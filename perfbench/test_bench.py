"""Checks of the benchmark's own generators and tracer.

    PYTHONPATH=src python3 -m pytest perfbench
"""

from __future__ import annotations

import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import run
import traced_job
from generators import (FAMILIES, interleave_answer, make_jobs, pipeline_answers,
                        pipeline_text)
from semdiff.parsing import parse_ad

HERE = Path(__file__).resolve().parent
FIXTURES = HERE.parent / "fixtures"


def _files(tmp: Path, workload: str, seed: int) -> dict[str, bytes]:
    tmp.mkdir()
    run.write_inputs(tmp, make_jobs(workload, seed, 3), "job")
    return {p.name: p.read_bytes() for p in sorted(tmp.iterdir())}


@pytest.mark.parametrize("workload", sorted(FAMILIES))
def test_one_seed_always_yields_byte_identical_model_files(tmp_path, workload):
    first = _files(tmp_path / "a", workload, 5)
    assert first == _files(tmp_path / "b", workload, 5)
    assert first != _files(tmp_path / "c", workload, 6)


def test_generated_bytes_do_not_depend_on_the_hash_seed():
    # set and dict order must never leak into a model file
    code = ("import hashlib, generators as g\n"
            "h = hashlib.sha256()\n"
            "for w in sorted(g.FAMILIES):\n"
            "    for j in g.make_jobs(w, 3, 4):\n"
            "        h.update((j.left + j.right + ' '.join(j.flags)).encode())\n"
            "print(h.hexdigest())\n")
    digests = {
        subprocess.run([sys.executable, "-c", code], cwd=HERE, check=True,
                       capture_output=True, text=True,
                       env=dict(os.environ, PYTHONHASHSEED=seed)).stdout
        for seed in ("1", "2")}
    assert len(digests) == 1


def test_interleave_answer_counts_the_multinomial():
    assert len(interleave_answer(3, 2, "ship").classes) == 90
    assert len(interleave_answer(4, 1, "ship").classes) == 24


def test_pipeline_generator_at_range_15_is_the_fixture_pair():
    for name, threshold, concurrent in (("ad_v1", 8, False), ("ad_v2", 12, True)):
        fixture = (FIXTURES / f"{name}.ad").read_text(encoding="utf-8")
        generated = pipeline_text(name, 15, threshold, concurrent)
        assert parse_ad(generated) == parse_ad(fixture)


def test_pipeline_answers_reproduce_the_fixture_reports():
    # fixtures/ad_v1.ad moves on at 8 tickets, fixtures/ad_v2.ad at 12; the
    # README shows the engine's report for them at range 0..15
    seq, fork = pipeline_answers(8, 12)
    tail = ("register", "welcome_msg", "reserve", "accounts", "update", "report")
    assert seq.classes == {(tail, "tickets ∈ [0..7]")}
    assert fork.classes == {
        (("register", "welcome_msg"), "tickets ∈ [8..11]"),
        (("register", "welcome_msg", "accounts"), "tickets ∈ [0..7]"),
        (("register", "welcome_msg", "update"), "tickets ∈ [0..7]"),
    }


def test_every_job_has_an_answer_with_the_expected_exit_status():
    for workload in FAMILIES:
        for job in make_jobs(workload, 1, 4):
            want = 1 if workload == "equiv" else 0
            assert job.answer.exit == want
            assert bool(job.answer.classes) == (job.kind == "ad" and want == 0)


def test_a_vanished_trace_target_is_reported_missing_not_zero(monkeypatch):
    monkeypatch.setattr(traced_job, "TARGETS", [
        ("semdiff.cd.diff", "no_such_function", "cd.diff.find_witness",
         traced_job.SPAN)])
    rec = traced_job.Recorder("job")
    rec.install()
    metrics = run.layer_metrics([rec.report()], [(0.0, 1.0)])
    assert metrics["cd.diff.find_witness_calls"] == (None, "count")
    assert metrics["cd.diff.find_witness_s"] == (None, "s")
    assert metrics["cd.diff.summary_s"] == (0.0, "s")


def test_a_name_wrapped_twice_is_missing_only_when_both_targets_vanish(monkeypatch):
    # a caller that imported the function, and the module that defines it
    caller, home = types.ModuleType("caller"), types.ModuleType("home")
    home.observable_steps = lambda: None
    monkeypatch.setitem(sys.modules, "caller", caller)
    monkeypatch.setitem(sys.modules, "home", home)
    monkeypatch.setattr(traced_job, "TARGETS", [
        (module, "observable_steps", "ad.model.observable_steps", traced_job.TIMED)
        for module in ("caller", "home")])
    rec = traced_job.Recorder("job")
    rec.install()
    assert rec.missing == []
    home.observable_steps()
    assert rec.calls == {"ad.model.observable_steps": 1}

    del home.observable_steps
    rec = traced_job.Recorder("job")
    rec.install()
    assert rec.missing == ["ad.model.observable_steps"]
    metrics = run.layer_metrics([rec.report()], [(0.0, 1.0)])
    assert metrics["ad.model.observable_steps_calls"] == (None, "count")
