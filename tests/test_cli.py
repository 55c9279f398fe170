"""End-to-end CLI behavior, driven in process through main()."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from conftest import FIXTURES, fixture_text
from semdiff.ad.diff import ReplayMismatchError
from semdiff import cli
from semdiff.cd.model import InstanceVerdict, ObjectModel
from semdiff.cli import COMMANDS, main
from semdiff.oracle import StateBudgetExceededError

CD1 = str(FIXTURES / "cd_v1.cd")
CD2 = str(FIXTURES / "cd_v2.cd")
AD1 = str(FIXTURES / "ad_v1.ad")
AD2 = str(FIXTURES / "ad_v2.ad")
AD3 = str(FIXTURES / "ad_v3.ad")
OM1 = str(FIXTURES / "om1.od")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- cddiff ------------------------------------------------------------


def test_cddiff_text_report(capsys):
    code, out, err = run(capsys, "cddiff", CD2, CD1, "--scope", "6")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "cddiff cd_v2 vs cd_v1 (scope 6): 4 difference class(es) [class-set]"
    assert "  [1] {Employee, Manager}" in lines
    assert "  [3] {Manager}" in lines
    assert any(ln.startswith("      witness: objectdiagram") for ln in lines)
    assert any("object(s))" in ln for ln in lines)
    assert err == ""


def test_cddiff_self_is_quiet(capsys):
    code, out, _ = run(capsys, "cddiff", CD1, CD1)
    assert code == 1
    assert out == "cddiff cd_v1 vs cd_v1 (scope 10): no differences\n"


def test_cddiff_output_is_reproducible(capsys):
    first = run(capsys, "cddiff", CD2, CD1, "--scope", "6")
    second = run(capsys, "cddiff", CD2, CD1, "--scope", "6")
    assert first == second


def test_cddiff_json_lines_roundtrip(capsys):
    code, out, _ = run(capsys, "cddiff", CD2, CD1, "--scope", "6",
                       "--format", "json-lines")
    assert code == 0
    lines = out.rstrip("\n").splitlines()
    assert len(lines) == 4
    for ln in lines:
        obj = json.loads(ln)
        assert list(obj) == ["annotation", "key", "representative"]
        assert obj["key"]["kind"] == "class-set"
        assert obj["representative"].startswith("objectdiagram")
    assert [json.loads(ln)["key"]["names"] for ln in lines] == [
        ["Employee", "Manager"],
        ["Employee", "Manager", "Task"],
        ["Manager"],
        ["Manager", "Task"],
    ]


def test_cddiff_raw_enumeration_reports_truncation(capsys):
    code, out, _ = run(capsys, "cddiff", CD2, CD1, "--scope", "6",
                       "--no-summary", "--limit", "5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].endswith("5 witness(es) (limit reached; more may exist)")
    assert sum(ln.lstrip().startswith("[") for ln in lines) == 5


def test_cddiff_raw_json_lines(capsys):
    code, out, _ = run(capsys, "cddiff", CD2, CD1, "--no-summary",
                       "--limit", "3", "--format", "json-lines")
    assert code == 0
    rows = [json.loads(ln) for ln in out.rstrip("\n").splitlines()]
    assert len(rows) == 3
    assert all(list(r) == ["witness"] for r in rows)


@pytest.mark.parametrize("left,right,n", [(CD1, CD2, 3), (CD2, CD1, 4)])
def test_cddiff_oracle_agreement(capsys, left, right, n):
    code, out, err = run(capsys, "cddiff", left, right, "--scope", "3", "--oracle")
    assert code == 0
    assert f"oracle agreement: {n} class(es) at scope 3" in err


def test_cddiff_oracle_scope_cap(capsys):
    code, _, err = run(capsys, "cddiff", CD2, CD1, "--scope", "6", "--oracle")
    assert code == 2
    assert "error: oracle scope capped at 4, got 6" in err


def test_cddiff_oracle_mismatch_exits_3(capsys, monkeypatch):
    class Disagreeing:
        def keys(self):
            return []

    monkeypatch.setattr("semdiff.oracle.cd_enumerate_all",
                        lambda cd1, cd2, scope: Disagreeing())
    code, _, err = run(capsys, "cddiff", CD2, CD1, "--scope", "3", "--oracle")
    assert code == 3
    assert "oracle mismatch" in err


def test_cddiff_rejects_nonpositive_scope(capsys):
    code, _, err = run(capsys, "cddiff", CD1, CD2, "--scope", "0")
    assert code == 2
    assert "must be at least 1, got 0" in err


# -- addiff ------------------------------------------------------------


def test_addiff_text_report(capsys):
    code, out, _ = run(capsys, "addiff", AD2, AD1)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == ("addiff ad_v2 vs ad_v1 (trace semantics): "
                        "3 difference class(es) [action-list]")
    assert "  [1] register -> welcome_msg" in lines
    assert "      (tickets ∈ [8..11])" in lines
    assert "      trace: tickets=8: register -> welcome_msg" in lines


def test_addiff_quiet_direction(capsys):
    code, out, _ = run(capsys, "addiff", AD1, AD3)
    assert code == 1
    assert out == "addiff ad_v1 vs ad_v3 (trace semantics): no differences\n"


def test_addiff_both_prints_counts(capsys):
    code, out, _ = run(capsys, "addiff", AD3, AD2, "--both")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "counts: 6/1"
    assert sum("difference class(es)" in ln for ln in lines) == 2
    assert "[action-list]" in lines[0]


def test_addiff_raw_traces(capsys):
    code, out, _ = run(capsys, "addiff", AD2, AD1, "--no-summary")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].endswith("3 symbolic trace(s)")
    assert lines[1] == "  [1] register -> welcome_msg  (tickets ∈ [8..11])"


def test_addiff_action_set_json(capsys):
    code, out, _ = run(capsys, "addiff", AD3, AD2,
                       "--summarize", "action-set", "--format", "json-lines")
    assert code == 0
    rows = [json.loads(ln) for ln in out.rstrip("\n").splitlines()]
    assert len(rows) == 1
    assert rows[0]["key"]["kind"] == "action-set"
    assert rows[0]["annotation"] == "tickets ∈ [0..11]"


def test_addiff_oracle_agreement(capsys):
    code, _, err = run(capsys, "addiff", AD2, AD1, "--oracle")
    assert code == 0
    assert "oracle agreement: 3/3 class(es)" in err


def test_addiff_oracle_skips_simulation_directions(capsys, tmp_path):
    plain = tmp_path / "plain.ad"
    plain.write_text("activitydiagram plain {\n"
                     "  initial i; action a; final f;\n"
                     "  edge i -> a; edge a -> f; }")
    gated = tmp_path / "gated.ad"  # private input makes the pair game lossy
    gated.write_text("activitydiagram gated { input x : 0..1;\n"
                     "  initial i; action a; final f;\n"
                     "  edge i -> a; edge a -> f; }")
    code, _, err = run(capsys, "addiff", str(plain), str(gated), "--oracle")
    assert code == 1
    assert "oracle cross-check skipped: simulation semantics" in err


# a fork whose two branches meet at a merge (a second token would land on
# the merge's out-edge) and an effect that leaves its range: neither the
# encoder nor the explicit simulator fires such a step
BLOCKED = {
    "plain": """activitydiagram plain {
      initial i; action a; final f; edge i -> a; edge a -> f; }""",
    "unsafe": """activitydiagram unsafe {
      initial i; fork k; merge m; action a; final f;
      edge i -> k; edge k -> m; edge k -> m; edge m -> a; edge a -> f; }""",
    "range": """activitydiagram range {
      local c : 0..1 = 0;
      initial i; action tick { c := c + 5; }; final f;
      edge i -> tick; edge tick -> f; }""",
}


@pytest.mark.parametrize("limit,n", [("20", 20), ("1000", 54)])
def test_cddiff_no_summary_oracle_agreement(capsys, limit, n):
    argv = ["cddiff", CD2, CD1, "--scope", "3", "--no-summary", "--limit", limit]
    _, plain, _ = run(capsys, *argv)
    code, out, err = run(capsys, *argv, "--oracle")
    assert (code, out) == (0, plain)
    assert f"oracle agreement: {n} witness(es) at scope 3" in err


def test_cddiff_no_summary_oracle_scope_cap(capsys):
    code, out, err = run(capsys, "cddiff", CD2, CD1, "--scope", "5", "--no-summary",
                         "--oracle")
    assert (code, out) == (2, "")
    assert "error: oracle scope capped at 4, got 5" in err


@pytest.mark.parametrize("limit", ["20", "1000"])
def test_cddiff_no_summary_oracle_mismatch_exits_3(capsys, monkeypatch, limit):
    real = cli.enumerate_witnesses

    def stray_first(cd1, cd2, scope, limit):
        # a listed witness the oracle lacks fails even in a list --limit cut
        stray = ObjectModel("stray", (("x1", "Nowhere"),), ())
        return [stray] + list(real(cd1, cd2, scope, limit=limit))[1:]

    monkeypatch.setattr(cli, "enumerate_witnesses", stray_first)
    code, out, err = run(capsys, "cddiff", CD2, CD1, "--scope", "3", "--no-summary",
                         "--limit", limit, "--oracle")
    assert (code, out) == (3, "")
    assert "oracle mismatch: 1 listed witness(es) the oracle lacks" in err


def test_cddiff_no_summary_oracle_needs_every_witness_of_an_uncut_list(capsys, monkeypatch):
    real = cli.enumerate_witnesses
    monkeypatch.setattr(cli, "enumerate_witnesses",
                        lambda cd1, cd2, scope, limit: list(real(cd1, cd2, scope))[1:])
    code, out, err = run(capsys, "cddiff", CD2, CD1, "--scope", "3", "--no-summary",
                         "--limit", "1000", "--oracle")
    assert (code, out) == (3, "")
    assert "0 listed witness(es) the oracle lacks, 1 oracle witness(es) not listed" in err


@pytest.mark.parametrize("left,right,status,first", [
    ("unsafe", "plain", 0, "a -> a"),
    ("plain", "unsafe", 1, None),
    ("range", "plain", 1, None),
    ("plain", "range", 0, "a"),
    ("unsafe", "range", 0, "a"),
    ("range", "unsafe", 1, None),
])
def test_blocked_firings_answer_without_traceback(capsys, tmp_path, left, right,
                                                  status, first):
    for name, text in BLOCKED.items():
        (tmp_path / f"{name}.ad").write_text(text)
    argv = ["addiff", str(tmp_path / f"{left}.ad"), str(tmp_path / f"{right}.ad")]
    code, out, _ = run(capsys, *argv)
    assert code == status
    if first is not None:
        assert out.splitlines()[1] == f"  [1] {first}"
    code, oracle_out, err = run(capsys, *argv, "--oracle")
    assert (code, oracle_out) == (status, out)
    assert "mismatch" not in err


# -- check ----------------------------------------------------------------


def test_check_accepts_instance(capsys):
    code, out, _ = run(capsys, "check", OM1, CD2)
    assert code == 0
    assert out == "om1 is an instance of cd_v2\n"


def test_check_lists_violations(capsys):
    code, out, _ = run(capsys, "check", OM1, CD1)
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "om1 is not an instance of cd_v1:"
    assert ("  - e1 has 3 Task partner(s) via handles, multiplicity is [0..2]"
            in lines)


# -- input handling ----------------------------------------------------------


def test_parse_errors_carry_location(capsys, tmp_path):
    bad = tmp_path / "bad.cd"
    bad.write_text("classdiagram x {\n  клас A;\n}")
    code, _, err = run(capsys, "cddiff", str(bad), CD1)
    assert code == 2
    assert f"error: {bad}:2:" in err


def test_kind_mismatch_is_a_usage_error(capsys):
    code, _, err = run(capsys, "check", CD1, CD1)
    assert code == 2
    assert "expected object model, found class diagram" in err


def test_validation_runs_before_diffing(capsys, tmp_path):
    bad = tmp_path / "dangling.cd"
    bad.write_text("classdiagram x { class A; association r [1] A -- Ghost [1]; }")
    code, _, err = run(capsys, "cddiff", str(bad), CD1)
    assert code == 2
    assert "unknown class Ghost" in err


def test_missing_file(capsys, tmp_path):
    gone = tmp_path / "gone.cd"
    code, _, err = run(capsys, "cddiff", str(gone), CD1)
    assert code == 2
    assert str(gone) in err


@pytest.mark.parametrize("command, data, where", [
    ("cddiff", b"\xff\xfe\x00bad", "0xff at offset 0"),
    ("check", b"objectdiagram o {\n  e1 : Employ\xc0ee;\n}\n", "0xc0 at offset 31"),
])
def test_a_file_that_is_not_utf8_is_a_usage_error(capsys, tmp_path, command, data, where):
    bad = tmp_path / "bad"
    bad.write_bytes(data)
    code, out, err = run(capsys, command, str(bad), str(bad) if command == "cddiff" else CD1)
    assert (code, out, err) == (2, "", f"error: {bad}: not UTF-8 text, byte {where}\n")


def test_usage_errors(capsys):
    assert run(capsys, "frobnicate") == (
        2, "", "error: expected a command (cddiff, addiff, check), got frobnicate\n")
    assert run(capsys)[:2] == (2, "")
    code, out, err = run(capsys, "--help")
    assert (code, err) == (0, "")
    assert out.startswith("usage: semdiff cddiff LEFT RIGHT ")


# each usage error, wherever on the line it sits: status 2, nothing on
# stdout, one `error:` line that names the bad argument
@pytest.mark.parametrize("argv, line", [
    ([], "expected a command (cddiff, addiff, check), got nothing"),
    (["frobnicate", CD1, CD2], "expected a command (cddiff, addiff, check), got frobnicate"),
    (["cddiff", CD1], "cddiff: missing RIGHT"),
    (["check", OM1, CD2, CD1], f"check: unexpected argument {CD1}"),
    (["cddiff", "--bogus", CD1, CD2], "unrecognized option --bogus"),
    (["cddiff", CD1, CD2, "--s", "3"], "ambiguous option --s (could be --scope, --summarize)"),
    (["addiff", AD1, AD2, "--format"], "option --format needs a value"),
    (["cddiff", CD1, CD2, "--scope", "--oracle"], "option --scope needs a value"),
    (["cddiff", CD1, CD2, "--summarize", "action-set"],
     "option --summarize: invalid choice action-set (choose from class-set, none)"),
    (["addiff", AD1, AD2, "--format=xml"],
     "option --format: invalid choice xml (choose from text, json-lines)"),
    (["cddiff", CD1, CD2, "--scope", "x"], "option --scope: must be at least 1, got x"),
    (["cddiff", CD1, CD2, "--scope", "0"], "option --scope: must be at least 1, got 0"),
    (["cddiff", CD1, CD2, "--limit", "-1"], "option --limit: must be at least 1, got -1"),
    (["addiff", AD1, AD2, "--oracle=yes"], "option --oracle takes no value"),
])
def test_usage_error_is_one_error_line(capsys, argv, line):
    assert run(capsys, *argv) == (2, "", f"error: {line}\n")


# each spelling gives the status and stdout of the plain one
@pytest.mark.parametrize("argv, plain", [
    (["cddiff", CD2, CD1, "--scope=3"], ["cddiff", CD2, CD1, "--scope", "3"]),
    (["cddiff", "--scope", "3", CD2, CD1], ["cddiff", CD2, CD1, "--scope", "3"]),
    (["cddiff", CD2, "--scope", "3", CD1], ["cddiff", CD2, CD1, "--scope", "3"]),
    (["cddiff", CD2, CD1, "--sco", "3"], ["cddiff", CD2, CD1, "--scope", "3"]),
    (["cddiff", CD2, CD1, "--no-sum", "--lim=2", "--form", "json-lines"],
     ["cddiff", CD2, CD1, "--no-summary", "--limit", "2", "--format", "json-lines"]),
    (["addiff", AD2, AD1, "--no-sum"], ["addiff", AD2, AD1, "--no-summary"]),
    (["addiff", AD3, AD2, "--summarize", "action-set", "--no-summary"],
     ["addiff", AD3, AD2, "--no-summary"]),
    (["addiff", AD3, AD2, "--no-summary", "--summarize", "action-set"],
     ["addiff", AD3, AD2, "--summarize", "action-set"]),
    (["addiff", "--both", "--", AD3, AD2], ["addiff", AD3, AD2, "--both"]),
    (["check", OM1, "--", CD1], ["check", OM1, CD1]),
])
def test_accepted_spellings_match_the_plain_one(capsys, argv, plain):
    code, out, err = run(capsys, *plain)
    assert code in (0, 1) and out
    assert run(capsys, *argv) == (code, out, err)


def test_last_of_summarize_and_no_summary_wins(capsys):
    # the two plain spellings above differ, so neither option is ignored
    assert (run(capsys, "addiff", AD3, AD2, "--no-summary")
            != run(capsys, "addiff", AD3, AD2, "--summarize", "action-set"))


@pytest.mark.parametrize("argv", [
    ["-h"], ["--help"], ["--he"],
    *([name, flag] for name in COMMANDS for flag in ("-h", "--help")),
    ["cddiff", CD1, "--scope", "3", "--help"],
])
def test_help_prints_the_synopsis(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    shown = [argv[0]] if argv[0] in COMMANDS else list(COMMANDS)
    usages = [ln.split() for ln in out.splitlines() if ln.startswith("usage: ")]
    assert [words[2] for words in usages] == shown
    for words, name in zip(usages, shown):
        assert "[-h]" in words
        for option in COMMANDS[name][3]:
            assert any(w.startswith(f"[{option}") for w in words), option


def test_readme_shows_the_synopsis_help_prints(capsys):
    usages = [ln for ln in run(capsys, "--help")[1].splitlines() if ln.startswith("usage: ")]
    readme = (FIXTURES.parent / "README.md").read_text(encoding="utf-8").splitlines()
    assert usages and all(ln in readme for ln in usages)


# -- limits and internal errors ---------------------------------------------------


HUGE_INPUT = """activitydiagram huge {
  input x : 0..1000000000000000000000;
  initial i; action a; final f;
  edge i -> a; edge a -> f;
}"""


def test_bit_budget_exits_4_without_traceback(tmp_path):
    huge = tmp_path / "huge.ad"
    huge.write_text(HUGE_INPUT)
    src = str(FIXTURES.parent / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-m", "semdiff.cli", "addiff", str(huge), AD1],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 4
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines() == [
        "error: limit reached: huge needs 72 state bits, budget is 64"]


def test_product_deeper_than_the_recursion_limit_exits_4(capsys, tmp_path):
    def chains(n: int) -> list[str]:
        # two chains of n actions: 2 (n + 1) BDD levels each, a current
        # and a next-state bit per edge
        paths = []
        for last in ("stop", "halt"):
            acts = [f"a{i}" for i in range(n - 1)] + [last]
            hops = " ".join(f"edge {a} -> {b};" for a, b in zip(["i", *acts], [*acts, "f"]))
            path = tmp_path / f"{last}{n}.ad"
            path.write_text(f"activitydiagram {last} {{ initial i; "
                            + "".join(f"action {a}; " for a in acts) + f"final f; {hops} }}")
            paths.append(str(path))
        return paths

    old = sys.getrecursionlimit()
    sys.setrecursionlimit(300)
    try:
        code, out, err = run(capsys, "addiff", *chains(40))
        assert (code, out) == (4, "")
        (line,) = err.splitlines()
        assert line.startswith("error: limit reached: stop and halt need 164 BDD levels, "
                               "the recursion limit allows ")
        # the deepest product the limit allows runs to the end
        n = int(line.rsplit(" ", 1)[1]) // 4 - 1
        code, out, err = run(capsys, "addiff", *chains(n))
    finally:
        sys.setrecursionlimit(old)
    assert (code, err) == (0, "")
    assert out.startswith("addiff stop vs halt (trace semantics): 1 difference class(es)")


DEEP_GUARDS = {  # run as a process, each overflows a recursion: the
    # parser's descent, `_unary`, the type check (both sums, the shorter
    # one past the 900 terms `test_a_long_sum_guard_is_answered` runs)
    "parentheses": "(" * 3000 + "tickets < 8" + ")" * 3000,
    "negations": "!" * 3000 + "tickets < 8",
    "sum-of-3000": " + ".join(["tickets"] * 3000) + " > 1",
    "sum-of-2000": " + ".join(["tickets"] * 2000) + " < 8",
}


@pytest.mark.parametrize("shape", DEEP_GUARDS)
def test_a_guard_nested_past_the_recursion_limit_exits_4(capsys, tmp_path, shape):
    deep = tmp_path / "deep.ad"
    deep.write_text(fixture_text("ad_v1.ad").replace("[tickets < 8]", f"[{DEEP_GUARDS[shape]}]"))
    code, out, err = run(capsys, "addiff", str(deep), AD2)
    assert (code, out) == (4, "")
    assert err == ("error: limit reached: recursion deeper than Python's limit of "
                   f"{sys.getrecursionlimit()}\n")


def _sum_guard(tmp_path, terms: int) -> str:
    """ad_v1 with its `tickets < 8` guard's left side a sum of `terms` terms."""
    path = tmp_path / f"sum{terms}.ad"
    guard = " + ".join(["tickets"] * terms) + " < 8"
    path.write_text(fixture_text("ad_v1.ad").replace("[tickets < 8]", f"[{guard}]"))
    return str(path)


@pytest.mark.parametrize("terms", [400, 600, 900])
def test_a_long_sum_guard_is_answered(capsys, tmp_path, terms):
    # the encoder orders edges by their printed guards; printing walks the
    # sum's left spine in a loop, not one call per term
    code, out, err = run(capsys, "addiff", AD1, _sum_guard(tmp_path, terms))
    assert (code, err) == (0, "")
    assert out.splitlines()[1:4] == ["  [1] register -> welcome_msg",
                                     "      (tickets ∈ [1..7])",
                                     "      trace: tickets=1: register -> welcome_msg"]


def test_oracle_state_budget_exits_4(capsys, monkeypatch):
    def exhausted(ad1, ad2):
        raise StateBudgetExceededError("state budget exceeded")

    monkeypatch.setattr("semdiff.oracle.ad_diff_bfs", exhausted)
    code, out, err = run(capsys, "addiff", AD2, AD1, "--oracle")
    assert code == 4
    assert out == ""
    assert err == "error: limit reached: state budget exceeded\n"


def test_replay_mismatch_exits_5(capsys, monkeypatch):
    def contradict(enc, st, *, exact=None):
        raise ReplayMismatchError("ad_v1 cannot replay ['register']")

    monkeypatch.setattr("semdiff.ad.diff.concretize", contradict)
    code, out, err = run(capsys, "addiff", AD2, AD1)
    assert code == 5
    assert out == ""
    assert err == ("error: internal error, replay mismatch: "
                   "ad_v1 cannot replay ['register']\n")


@pytest.mark.parametrize("name, fake, says", [
    ("is_instance", lambda om, cd: False, "a model built as an instance of cd_v2 is not one"),
    ("is_instance", lambda om, cd: True, "a witness is an instance of cd_v1"),
    ("check_instance", lambda om, cd: InstanceVerdict(False), "a witness is invalid in cd_v2: ()"),
])
def test_witness_check_failure_exits_5(capsys, monkeypatch, name, fake, says):
    # each fake breaks one check the witness search makes on its own result
    monkeypatch.setattr(f"semdiff.cd.diff.{name}", fake)
    code, out, err = run(capsys, "cddiff", CD2, CD1, "--scope", "3")
    assert (code, out) == (5, "")
    assert err == f"error: internal error, witness check failed: {says}\n"


@pytest.mark.parametrize("objects, flags, says", [
    # the empty model is an instance of every class diagram; the
    # enumeration re-checks each universe's witness as the summary does
    ((), (), "a witness is an instance of cd_v1"),
    ((), ("--no-summary",), "a witness is an instance of cd_v1"),
    ((("g1", "Ghost"),), (), "a witness is invalid in cd_v2: "),
    ((("g1", "Ghost"),), ("--no-summary",), "a witness is invalid in cd_v2: "),
])
def test_a_faulty_universe_witness_exits_5(capsys, monkeypatch, objects, flags, says):
    monkeypatch.setattr("semdiff.cd.diff._universe_witness",
                        lambda cd1, cd2, universe, name, flows: ObjectModel(name, objects, ()))
    code, out, err = run(capsys, "cddiff", CD2, CD1, "--scope", "3", *flags)
    assert (code, out) == (5, "")
    (line,) = err.splitlines()
    assert line.startswith(f"error: internal error, witness check failed: {says}")


# -- the process path: run() flushes, then exits without teardown --------------


def _child_env() -> dict:
    # stdout stays block-buffered, so an exit that skipped the flush would lose output
    src = str(FIXTURES.parent / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    env.pop("PYTHONUNBUFFERED", None)
    return env


def _process_cases(tmp_path):
    from test_golden import fork_text

    (tmp_path / "w5a.ad").write_text(fork_text("wide_v1", 5, "ship"))
    (tmp_path / "w5b.ad").write_text(fork_text("wide_v2", 5, "archive", moves=3))
    (tmp_path / "bad.cd").write_text("classdiagram x {\n  клас A;\n}")
    (tmp_path / "huge.ad").write_text(HUGE_INPUT)
    return {
        "fork5": ["addiff", str(tmp_path / "w5a.ad"), str(tmp_path / "w5b.ad")],
        "no_diffs": ["addiff", AD1, AD3],
        "parse_error": ["cddiff", str(tmp_path / "bad.cd"), CD1],
        "bit_budget": ["addiff", str(tmp_path / "huge.ad"), AD1],
    }


@pytest.mark.parametrize("case, status", [
    ("fork5", 0), ("no_diffs", 1), ("parse_error", 2), ("bit_budget", 4)])
@pytest.mark.parametrize("sink", ["pipe", "file"])
def test_process_output_matches_main(capsys, tmp_path, case, status, sink):
    argv = _process_cases(tmp_path)[case]
    code, out, err = run(capsys, *argv)
    assert code == status
    cmd = [sys.executable, "-m", "semdiff.cli", *argv]
    if sink == "pipe":
        proc = subprocess.run(cmd, capture_output=True, env=_child_env(), timeout=60)
        stdout = proc.stdout
    else:
        with open(tmp_path / "out.txt", "wb") as fh:
            proc = subprocess.run(cmd, stdout=fh, stderr=subprocess.PIPE,
                                  env=_child_env(), timeout=60)
        stdout = (tmp_path / "out.txt").read_bytes()
    assert proc.returncode == status
    assert stdout.decode("utf-8") == out
    assert proc.stderr.decode("utf-8") == err
    if case == "fork5":
        # larger than the 8 KiB stdio buffer, so the exit must flush it
        assert len(stdout) > 8192 and err == ""
    if case == "no_diffs":
        assert err == ""


def test_console_script_is_the_process_entry_point():
    tomllib = pytest.importorskip("tomllib")
    meta = tomllib.loads((FIXTURES.parent / "pyproject.toml").read_text(encoding="utf-8"))
    assert meta["project"]["scripts"]["semdiff"] == "semdiff.cli:run"


def test_a_plain_run_loads_no_argument_parser_json_or_oracle():
    # the --oracle and json-lines tests above run the deferred imports
    runs = [["addiff", AD2, AD1], ["cddiff", CD2, CD1, "--scope", "3"],
            ["check", OM1, CD1]]
    probe = ("import sys, semdiff.cli\n"
             f"print([semdiff.cli.main(argv) for argv in {runs!r}])\n"
             "print([m for m in ('argparse', 'gettext', 'locale', 'json',\n"
             "                   'semdiff.oracle') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", probe], env=_child_env(),
                         capture_output=True, text=True, check=True, timeout=60).stdout
    assert out.splitlines()[-2:] == ["[0, 0, 1]", "[]"]


@pytest.mark.parametrize("case", ["small", "fork5"])
def test_closed_stdout_exits_2_without_traceback(tmp_path, case):
    # the read end closes before the child starts, so no write can succeed;
    # "small" fails at the final flush, "fork5" (over the 8 KiB stdio buffer)
    # inside main()
    argv = {"small": ["cddiff", CD2, CD1, "--no-summary"],
            "fork5": _process_cases(tmp_path)["fork5"]}[case]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "semdiff.cli", *argv],
                              stdout=write_end, stderr=subprocess.PIPE,
                              env=_child_env(), timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert b"Traceback" not in proc.stderr
    assert proc.stderr.decode("utf-8").splitlines() == [
        "error: output closed before it was complete"]
