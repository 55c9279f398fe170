"""addiff at a size where the output dominates: every interleaving of a
wide fork, and the replay's step cache."""

from __future__ import annotations

import itertools
from collections import Counter

from semdiff.ad import diff, validate_ad
from semdiff.ad.diff import addiff
from semdiff.parsing import parse_ad

from test_golden import fork_text


def fork_pair(width: int):
    return (validate_ad(parse_ad(fork_text("wide_v1", width, "ship"))),
            validate_ad(parse_ad(fork_text("wide_v2", width, "archive", moves=3))))


def test_width_six_fork_yields_every_interleaving():
    left, right = fork_pair(6)
    res = addiff(left, right)
    assert res.semantics == "trace"
    want = {perm + ("ship",) for perm in itertools.permutations(f"b{i}" for i in range(6))}
    assert len(want) == 720
    assert {st.actions for st in res.traces} == want
    assert [e.key.names for e in res.action_lists.entries] == sorted(want)
    # one action set: every branch plus the final action
    assert [e.key.names for e in res.action_sets.entries] == [
        tuple(sorted({f"b{i}" for i in range(6)} | {"ship"}))]


def test_replay_computes_each_step_set_once(monkeypatch):
    left, right = fork_pair(4)
    calls: Counter = Counter()
    real = diff.observable_steps

    def counted(ad, c):
        calls[ad.name, c] += 1
        return real(ad, c)

    monkeypatch.setattr(diff, "observable_steps", counted)
    res = addiff(left, right)
    assert len(res.traces) == 24
    assert calls and max(calls.values()) == 1
    assert {name for name, _ in calls} == {"wide_v1", "wide_v2"}
    for e in res.action_lists.entries:
        rep = e.representative
        assert len(rep.configs) == len(rep.actions) + 1
