"""addiff at a size where the output dominates: every interleaving of a
wide fork, the replay's caches, and how long a result's memory lives."""

from __future__ import annotations

import gc
import itertools
import weakref
from collections import Counter

from semdiff.ad import diff, validate_ad
from semdiff.ad.diff import addiff
from semdiff.parsing import parse_ad

from conftest import fixture_text
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


def test_start_configurations_are_built_once_per_diagram_and_valuation(monkeypatch):
    left, right = fork_pair(4)
    calls: Counter = Counter()
    real = diff.initial_configs

    def counted(ad, pinned=None):
        calls[ad.name, tuple(sorted((pinned or {}).items()))] += 1
        return real(ad, pinned)

    monkeypatch.setattr(diff, "initial_configs", counted)
    res = addiff(left, right)
    assert len(res.traces) == 24
    assert calls and max(calls.values()) == 1
    assert {name for name, _ in calls} == {"wide_v1", "wide_v2"}


def test_a_dropped_result_is_freed_by_reference_counting():
    # no reference cycles on the addiff path: the manager and its tables
    # go as soon as the result does, with the cycle collector off
    texts = [(fixture_text("ad_v2.ad"), fixture_text("ad_v1.ad")),
             (fork_text("wide_v1", 4, "ship"), fork_text("wide_v2", 4, "archive", moves=3))]
    gc.collect()
    gc.disable()
    try:
        for left, right in texts:
            res = addiff(validate_ad(parse_ad(left)), validate_ad(parse_ad(right)))
            assert res.traces
            manager = weakref.ref(res.traces[0].init_inputs.manager)
            del res
            assert manager() is None
            assert gc.collect() == 0
    finally:
        gc.enable()
