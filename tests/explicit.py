"""Explicit-state oracles over the token game of `semdiff.ad.model`.

The engine never calls these; tests compare its symbolic answers with
them.  Each is a direct reading of the definition over explicit
configurations.
"""

from __future__ import annotations

from semdiff.ad.model import (DECISION, ActivityDiagram, Configuration,
                              build_explicit_ts, eval_bool, observable_steps)


def enabled_actions(ad: ActivityDiagram, c: Configuration) -> set[str]:
    return {s.action for s in observable_steps(ad, c)}


def stuck_decisions(ad: ActivityDiagram, c: Configuration) -> list[str]:
    """Decision nodes holding a token no guard lets out of c."""
    env = c.env()
    out = []
    for n in ad.nodes:
        if n.kind != DECISION:
            continue
        e_in = ad.in_edges(n.id)[0]
        if e_in.id in c.tokens and not any(
                eval_bool(e.guard, env) for e in ad.out_edges(n.id)):
            out.append(n.id)
    return out


def is_observably_deterministic(ad: ActivityDiagram) -> bool:
    """No reachable state has two distinct successors under one action name."""
    ts = build_explicit_ts(ad)
    for outs in ts.steps:
        by_action: dict[str, set[int]] = {}
        for action, j in outs:
            by_action.setdefault(action, set()).add(j)
        if any(len(v) > 1 for v in by_action.values()):
            return False
    return True
