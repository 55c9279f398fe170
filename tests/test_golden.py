"""CLI stdout and exit status on every ordered fixture pair, frozen.

Each case runs `semdiff.cli.main` in process, exactly as
`python -m semdiff.cli ARGS...` would, and compares its stdout byte for
byte with tests/golden/<case>.out and its exit status with
tests/golden/status.json.  Engine changes that claim to preserve
behaviour must leave every case untouched.  When an output change is
intended, regenerate the files from the root of the checkout with

    PYTHONPATH=src python tests/test_golden.py

and review the diff.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import pytest

from semdiff.cli import main

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
GOLDEN = Path(__file__).resolve().parent / "golden"
STATUS = GOLDEN / "status.json"

ADS = ("ad_v1", "ad_v2", "ad_v3")
CDS = ("cd_v1", "cd_v2")


def _cases() -> dict[str, list[str]]:
    cases: dict[str, list[str]] = {}
    for a in ADS:
        for b in ADS:
            argv = ["addiff", str(FIXTURES / f"{a}.ad"), str(FIXTURES / f"{b}.ad")]
            cases[f"addiff-{a}-{b}"] = argv
            cases[f"addiff-{a}-{b}-json-lines"] = argv + ["--format", "json-lines"]
            cases[f"addiff-{a}-{b}-both"] = argv + ["--both"]
            cases[f"addiff-{a}-{b}-no-summary"] = argv + ["--no-summary"]
    for a in CDS:
        for b in CDS:
            argv = ["cddiff", str(FIXTURES / f"{a}.cd"), str(FIXTURES / f"{b}.cd")]
            cases[f"cddiff-{a}-{b}"] = argv
            cases[f"cddiff-{a}-{b}-json-lines"] = argv + ["--format", "json-lines"]
            cases[f"cddiff-{a}-{b}-no-summary"] = argv + ["--no-summary"]
    return cases


CASES = _cases()


def run_case(argv: list[str]) -> tuple[int, bytes]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = main(list(argv))
    return status, out.getvalue().encode("utf-8")


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_golden(case):
    status, out = run_case(CASES[case])
    assert out == (GOLDEN / f"{case}.out").read_bytes()
    assert status == json.loads(STATUS.read_text(encoding="utf-8"))[case]


def test_golden_set_has_no_stale_files():
    stored = {p.stem for p in GOLDEN.glob("*.out")}
    assert stored == set(CASES)
    assert set(json.loads(STATUS.read_text(encoding="utf-8"))) == set(CASES)


def record() -> None:
    GOLDEN.mkdir(exist_ok=True)
    statuses = {}
    for case, argv in sorted(CASES.items()):
        statuses[case], out = run_case(argv)
        (GOLDEN / f"{case}.out").write_bytes(out)
    STATUS.write_text(json.dumps(statuses, indent=2, sort_keys=True) + "\n",
                      encoding="utf-8")


if __name__ == "__main__":
    record()
