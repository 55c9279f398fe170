"""The CLI's output on the benchmark's seed-0 pools still matches the
digests the benchmark recorded in `perfbench/digests.json`.

The benchmark compares those digests only after its timed loop, where a
moved output shows up as `outputs_incorrect`.  Here every job of the
seed-0 pool of each `perfbench/generators.py` family runs in process
through `cli.main`, and its digest is compared under the job's key.  The
`perfbench/` files are only read.
"""

from __future__ import annotations

import json

import pytest

from conftest import FIXTURES
from semdiff import cli

BENCH = FIXTURES.parent / "perfbench"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import gate
    import generators
    import run
    return gate, generators, run


def test_seed_0_pools_match_the_recorded_digests(bench, tmp_path, capsys):
    gate, generators, run = bench
    digests = json.loads((BENCH / "digests.json").read_text(encoding="utf-8"))
    moved = []
    for workload in sorted(generators.FAMILIES):
        jobs = generators.make_jobs(workload, 0, run.POOL_PAIRS)
        for job, args in zip(jobs, run.write_inputs(tmp_path, jobs, workload)):
            status = cli.main(args)
            out, err = capsys.readouterr()
            assert err == "", (workload, job.label, err)
            if digests[gate.job_key(job)] != gate.output_digest(out.encode(), status):
                moved.append(f"{workload} {job.label}")
    assert moved == []
