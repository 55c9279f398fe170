"""Correctness gate: checks one job's output outside the timed region.

Each check returns None when the output is right and a one-line reason
when it is not.  The gate imports semdiff only for its parser, the
instance check and the brute-force oracles, never for the engines it
checks.
"""

from __future__ import annotations

import hashlib
import re

from generators import Job
from semdiff.cd.model import check_instance, classes_of
from semdiff.oracle import cd_enumerate_all, is_diff_trace
from semdiff.parsing import parse_ad, parse_cd, parse_od

_AD_HEAD = re.compile(r"addiff (\S+) vs (\S+) \((\w+) semantics\): "
                      r"(?:no differences|(\d+) difference class\(es\) \[action-list\])$")
_CD_HEAD = re.compile(r"cddiff (\S+) vs (\S+) \(scope (\d+)\): "
                      r"(?:no differences|(\d+) difference class\(es\) \[class-set\])$")
_ENTRY = re.compile(r"  \[(\d+)\] (.*)$")
_RANGE = re.compile(r"(\w+) ∈ ((?:\[-?\d+\.\.-?\d+\](?: ∪ )?)+)$")


# 80-bit prefixes of SHA-256 keep digests.json small; thousands of
# entries leave no realistic chance of a collision
_HEX = 20


def job_key(job: Job) -> str:
    """Identity of a job's input: subcommand, flags and both model texts."""
    h = hashlib.sha256()
    for part in (job.kind, *job.flags, job.left, job.right):
        h.update(part.encode())
        h.update(b"\0")
    return h.hexdigest()[:_HEX]


def output_digest(stdout: bytes, status: int) -> str:
    return hashlib.sha256(stdout + b"\0" + str(status).encode()).hexdigest()[:_HEX]


def _entries(lines: list[str]) -> list[tuple[str, list[str]]]:
    """(key text, detail lines) per numbered entry of a text report."""
    out: list[tuple[str, list[str]]] = []
    for ln in lines:
        m = _ENTRY.match(ln)
        if m:
            if int(m.group(1)) != len(out) + 1:
                raise ValueError(f"entry numbered {m.group(1)} out of order")
            out.append((m.group(2), []))
        elif out and ln.startswith("      "):
            out[-1][1].append(ln[6:])
        else:
            raise ValueError(f"unexpected line {ln!r}")
    return out


def _in_ranges(annotation: str, valuation: dict[str, int]) -> bool:
    for part in annotation.split("; "):
        m = _RANGE.match(part)
        if not m or m.group(1) not in valuation:
            return False
        x = valuation[m.group(1)]
        runs = re.findall(r"\[(-?\d+)\.\.(-?\d+)\]", m.group(2))
        if not any(int(lo) <= x <= int(hi) for lo, hi in runs):
            return False
    return True


def check_ad(job: Job, stdout: str, status: int) -> str | None:
    """Compare an addiff report with the generator's answer, and replay
    every representative trace through the explicit oracle."""
    lines = stdout.splitlines()
    if not lines:
        return "no output"
    head = _AD_HEAD.match(lines[0])
    if not head:
        return f"unexpected heading {lines[0]!r}"
    ans = job.answer
    if status != ans.exit:
        return f"exit status {status}, expected {ans.exit}"
    if head.group(3) != ans.semantics:
        return f"{head.group(3)} semantics, expected {ans.semantics}"
    try:
        entries = _entries(lines[1:])
    except ValueError as exc:
        return str(exc)
    if len(entries) != int(head.group(4) or 0):
        return "entry count disagrees with the heading"
    left, right = parse_ad(job.left), parse_ad(job.right)
    got = set()
    for key, detail in entries:
        actions = tuple(key.split(" -> "))
        if len(detail) != 2 or not (detail[0].startswith("(")
                                    and detail[0].endswith(")")):
            return f"malformed entry {key!r}"
        note = detail[0][1:-1]
        got.add((actions, note))
        m = re.match(r"trace: (.*?): (.*)$", detail[1])
        if not m or tuple(m.group(2).split(" -> ")) != actions:
            return f"representative of {key!r} does not replay its key"
        valuation = {k: int(v) for k, v in
                     (kv.split("=") for kv in m.group(1).split(", "))}
        if not _in_ranges(note, valuation):
            return f"representative of {key!r} lies outside ({note})"
        if not is_diff_trace(left, right, valuation, actions):
            return f"representative of {key!r} is not a difference trace"
    if got != set(ans.classes):
        missing = sorted(set(ans.classes) - got)[:2]
        extra = sorted(got - set(ans.classes))[:2]
        return f"classes differ from the answer: missing {missing}, extra {extra}"
    return None


# The oracle allows scope 4, but there it took 0.13 s per cd_chain job,
# about 6 s per run; scope 3 takes 0.03 s.
ORACLE_SCOPE = 3


def cd_oracle_keys(job: Job, scope: int) -> set[tuple[str, ...]]:
    oracle = cd_enumerate_all(parse_cd(job.left), parse_cd(job.right),
                              min(scope, ORACLE_SCOPE))
    return set(oracle.keys())


def check_cd(job: Job, stdout: str, status: int,
             oracle_keys: set[tuple[str, ...]]) -> str | None:
    """Every representative is an instance of LEFT and not of RIGHT, and
    the engine's class sets include every one the oracle finds."""
    lines = stdout.splitlines()
    if not lines:
        return "no output"
    head = _CD_HEAD.match(lines[0])
    if not head:
        return f"unexpected heading {lines[0]!r}"
    if status != job.answer.exit:
        return f"exit status {status}, expected {job.answer.exit}"
    try:
        entries = _entries(lines[1:])
    except ValueError as exc:
        return str(exc)
    if len(entries) != int(head.group(4) or 0):
        return "entry count disagrees with the heading"
    left, right = parse_cd(job.left), parse_cd(job.right)
    keys = set()
    for key, detail in entries:
        if not (key.startswith("{") and key.endswith("}")) or len(detail) < 2:
            return f"malformed entry {key!r}"
        names = tuple(key[1:-1].split(", "))
        if not detail[1].startswith("witness: "):
            return f"entry {key} has no witness"
        try:
            om = parse_od("\n".join([detail[1][len("witness: "):], *detail[2:]]))
        except ValueError as exc:
            return f"witness of {key} does not parse: {exc}"
        if classes_of(om) != names:
            return f"witness of {key} instantiates {classes_of(om)}"
        if detail[0] != f"({len(om.objects)} object(s))":
            return f"entry {key} miscounts its witness"
        if not check_instance(om, left).ok or check_instance(om, right).ok:
            return f"witness of {key} is not in LEFT minus RIGHT"
        keys.add(names)
    if not oracle_keys <= keys:
        return f"oracle class sets missing: {sorted(oracle_keys - keys)[:3]}"
    return None
