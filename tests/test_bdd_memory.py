"""Memory of the BDD kernel on the addiff path.

A node is one row, the tuple that is also its unique-table key, and each
addiff stage's computed tables are cleared when the stage ends.  The
bounds below are the tracemalloc peaks measured with both in place, plus
15 %.  With three node lists and every table kept for the whole run, the
same calls peaked at 31.5 MB on the counter and 9.0 MB on the fork.
"""

from __future__ import annotations

import ast
import gc
import os
import subprocess
import sys
import tracemalloc

import pytest

from semdiff.ad import diff, validate_ad
from semdiff.ad.diff import addiff
from semdiff.ad.encode import encode_product
from semdiff.bdd import BddManager
from semdiff.parsing import parse_ad

from conftest import FIXTURES, fixture_text
from test_golden import counter_text, fork_text

# measured peaks: counter 0..300 19.76 MB, width-6 fork 5.09 MB
PEAK_BOUNDS = {"counter300": 22.7e6, "fork6": 5.86e6}

# encode_product's node count per fixture pair, with the silent closure
# composed once per component of silent transitions that share an edge
FIXTURE_NODES = {("v1", "v2"): 1124, ("v1", "v3"): 1266, ("v2", "v3"): 1484}

# node count after addiff per direction.  A cleared table makes a stage
# recompute results, never new nodes, so a run whose clear_cache does
# nothing builds as many; the test checks that rule on both runs.
ADDIFF_NODES = {("v1", "v2"): 1828, ("v1", "v3"): 1794, ("v2", "v1"): 1752,
                ("v2", "v3"): 2360, ("v3", "v1"): 2005, ("v3", "v2"): 3147}

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


# Per fixture direction: the nodes after encode_product and after addiff,
# then addiff's stdout; the counts last, as one dict.
_PROBE = """
import ast, sys
from semdiff.ad import diff, encode_product, validate_ad
from semdiff.cli import main
from semdiff.parsing import parse_ad

fixtures, directions = sys.argv[1], ast.literal_eval(sys.argv[2])
path = lambda v: f"{fixtures}/ad_{v}.ad"
ad = lambda v: validate_ad(parse_ad(open(path(v), encoding="utf-8").read()))
kept, real = [], diff.encode_product
diff.encode_product = lambda *args, **kwargs: kept.append(real(*args, **kwargs)) or kept[-1]
counts = {}
for a, b in directions:
    encoded = encode_product(ad(a), ad(b)).manager.audit()["nodes"]
    diff.addiff(ad(a), ad(b))
    counts[a, b] = (encoded, kept[0].manager.audit()["nodes"])
    main(["addiff", path(a), path(b)])
    kept.clear()
print(counts)
"""


def test_node_counts_do_not_depend_on_string_hashing():
    # the pins above hold in every process only if no encoding step
    # follows set order, which string hashing changes per process
    src = str(FIXTURES.parent / "src")
    runs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        runs.append(subprocess.run(
            [sys.executable, "-c", _PROBE, str(FIXTURES), repr(sorted(ADDIFF_NODES))],
            env=env, capture_output=True, text=True, check=True, timeout=120).stdout)
    assert runs[0] == runs[1]
    *output, last = runs[0].splitlines()
    assert len(output) > len(ADDIFF_NODES)
    counts = ast.literal_eval(last)
    assert {d: c[1] for d, c in counts.items()} == ADDIFF_NODES
    assert {d: counts[d][0] for d in FIXTURE_NODES} == FIXTURE_NODES
