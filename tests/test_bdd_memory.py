"""Memory of the BDD kernel on the addiff path.

A node is one row, the tuple that is also its unique-table key, and each
addiff stage's computed tables are cleared when the stage ends.  The
bounds below are the tracemalloc peaks measured with both in place, plus
15 %.  With three node lists and every table kept for the whole run, the
same calls peaked at 31.5 MB on the counter and 9.0 MB on the fork.
"""

from __future__ import annotations

import gc
import tracemalloc

import pytest

from semdiff.ad import diff, validate_ad
from semdiff.ad.diff import addiff
from semdiff.ad.encode import encode_product
from semdiff.bdd import BddManager
from semdiff.parsing import parse_ad

from conftest import fixture_text
from test_golden import counter_text, fork_text

# measured peaks: counter 0..300 19.76 MB, width-6 fork 5.09 MB
PEAK_BOUNDS = {"counter300": 22.7e6, "fork6": 5.86e6}

# encode_product's node count per fixture pair, as before the row layout
FIXTURE_NODES = {("v1", "v2"): 2007, ("v1", "v3"): 2127, ("v2", "v3"): 2859}

# node count after addiff per direction.  A cleared table makes a stage
# recompute results, never new nodes, so a run whose clear_cache does
# nothing builds as many; the test checks that rule on both runs.
ADDIFF_NODES = {("v1", "v2"): 2709, ("v1", "v3"): 2655, ("v2", "v1"): 2632,
                ("v2", "v3"): 3735, ("v3", "v1"): 2863, ("v3", "v2"): 4521}

def _ad(text: str):
    return validate_ad(parse_ad(text))


def _pair(case: str):
    if case == "counter300":
        return (_ad(counter_text("count_v1", 300, "stop")),
                _ad(counter_text("count_v2", 300, "halt")))
    return (_ad(fork_text("wide_v1", 6, "ship")),
            _ad(fork_text("wide_v2", 6, "archive", moves=3)))


def _fixture(name: str):
    return _ad(fixture_text(f"ad_{name}.ad"))


@pytest.mark.parametrize("case", sorted(PEAK_BOUNDS))
def test_addiff_peak_stays_under_its_bound(case):
    left, right = _pair(case)
    gc.collect()
    tracemalloc.start()
    try:
        res = addiff(left, right)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.has_diffs
    assert peak < PEAK_BOUNDS[case], f"{case} peaked at {peak / 1e6:.2f} MB"


@pytest.mark.parametrize("pair", sorted(FIXTURE_NODES), ids="-".join)
def test_row_layout_builds_the_same_nodes(pair):
    m = encode_product(*map(_fixture, pair)).manager
    assert m.audit()["nodes"] == FIXTURE_NODES[pair]
    # each row is its own unique-table key
    assert all(m._nodes[idx] is key for key, idx in m._unique.items())


def _manager_after_addiff(pair, monkeypatch) -> BddManager:
    managers = []
    real = diff.encode_product

    def kept(*args, **kwargs):
        enc = real(*args, **kwargs)
        managers.append(enc.manager)
        return enc

    monkeypatch.setattr(diff, "encode_product", kept)
    addiff(*map(_fixture, pair))
    (m,) = managers
    return m


@pytest.mark.parametrize("pair", sorted(ADDIFF_NODES), ids="-".join)
def test_audit_passes_after_addiff(pair, monkeypatch):
    assert _manager_after_addiff(pair, monkeypatch).audit()["nodes"] == ADDIFF_NODES[pair]
    monkeypatch.setattr(BddManager, "clear_cache", lambda self: None)
    m = _manager_after_addiff(pair, monkeypatch)
    assert m.audit()["nodes"] == ADDIFF_NODES[pair]
    assert m.audit()["cache_entries"] > 0
