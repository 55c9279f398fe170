"""Command line front end.

Three subcommands: `cddiff` and `addiff` compare two models and print a
summary report (or a raw witness enumeration), `check` tests one object
model against a class diagram.  Exit status: 0 differences found /
instance ok, 1 no differences / not an instance, 2 usage or parse
failure, 3 oracle mismatch under --oracle, 4 a limit was hit (the
encoder's bit budget or depth bound, the --oracle state budget), 5 an
internal error (an engine result failed its explicit replay).  Statuses
2, 4 and 5 print one `error: ...` line on stderr, never a traceback.
A process whose reader closes stdout before the output is complete (say,
`| head -c 10`) also ends in status 2.

`main()` returns the exit status, so tests and tools can call it in
process.  The process entry point `run()` (the `semdiff` script and
`python -m semdiff.cli`) flushes stdout and stderr after `main()` and
ends with `os._exit`, which skips interpreter teardown (the final
garbage collections and module clearing) and runs no `atexit` handlers.
Nothing is lost: the CLI writes only to stdout and stderr, keeps no
temporary files and registers no `atexit` handler.  A closed pipe,
whether a `print` in `main()` or the final flush meets it, points fd 1 at
/dev/null and exits 2; if a flush fails otherwise (say, no stream), `run()`
exits through `sys.exit`.
`json` is imported only where JSON is written.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .ad.diff import addiff, render_inputs
from .ad.model import ActivityDiagram, validate_ad
from .cd.diff import cddiff_summary, enumerate_witnesses
from .cd.model import (ClassDiagram, ObjectModel, check_instance, is_instance,
                       validate_cd, validate_om)
from .errors import InternalError, LimitError
from .oracle import ScopeTooLargeError, ad_diff_bfs, cd_enumerate_all
from .parsing import ParseError, parse_model, print_od
from .summary import PartitionKey, SummaryReport

EXIT_DIFFS = 0
EXIT_NO_DIFFS = 1
EXIT_USAGE = 2
EXIT_ORACLE = 3
EXIT_LIMIT = 4
EXIT_INTERNAL = 5

_KIND_NAMES = {"cd": "class diagram", "od": "object model", "ad": "activity diagram"}


class CliError(Exception):
    """Bad invocation or unreadable/unparsable input; exits 2."""


def _load(path: str, want: type) -> object:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CliError(f"{path}: {exc.strerror or exc}") from exc
    try:
        model = parse_model(text, source=path)
    except ParseError as exc:
        raise CliError(str(exc)) from exc
    if not isinstance(model, want):
        kinds = {ClassDiagram: "cd", ObjectModel: "od", ActivityDiagram: "ad"}
        raise CliError(
            f"{path}: expected {_KIND_NAMES[kinds[want]]}, "
            f"found {_KIND_NAMES[kinds[type(model)]]}")
    validators = {ClassDiagram: validate_cd, ObjectModel: validate_om,
                  ActivityDiagram: validate_ad}
    try:
        validators[want](model)
    except ValueError as exc:
        raise CliError(f"{path}: {exc}") from exc
    return model


# ------------------------------------------------------------- rendering

def _key_text(key: PartitionKey) -> str:
    if key.kind == "action-list":
        return " -> ".join(key.names)
    return "{" + ", ".join(key.names) + "}"


def _rep_text(rep: object) -> str:
    if isinstance(rep, ObjectModel):
        return print_od(rep).rstrip("\n")
    # concrete trace: valuation prefix, then the action names
    vals = ", ".join(f"{k}={v}" for k, v in rep.valuation)
    acts = " -> ".join(rep.actions)
    return f"{vals}: {acts}" if vals else acts


def render_text(report: SummaryReport, heading: str) -> str:
    """Deterministic text report, one numbered block per entry."""
    n = len(report.entries)
    lines = [f"{heading}: {n} difference class(es) [{report.partition_kind}]"]
    for i, e in enumerate(report.entries, 1):
        lines.append(f"  [{i}] {_key_text(e.key)}")
        if e.annotation:
            lines.append(f"      ({e.annotation})")
        rep = _rep_text(e.representative).splitlines()
        label = "witness" if report.partition_kind == "class-set" else "trace"
        lines.append(f"      {label}: {rep[0]}")
        lines.extend(f"      {ln}" for ln in rep[1:])
    return "\n".join(lines)


def render_json_lines(report: SummaryReport) -> str:
    """One entry object per line: key, representative, annotation."""
    import json
    out = []
    for e in report.entries:
        out.append(json.dumps(
            {"key": {"kind": e.key.kind, "names": list(e.key.names)},
             "representative": _rep_text(e.representative),
             "annotation": e.annotation},
            ensure_ascii=False, sort_keys=True))
    return "\n".join(out)


def _print_report(report: SummaryReport, heading: str, fmt: str) -> None:
    if fmt == "json-lines":
        body = render_json_lines(report)
        if body:
            print(body)
    else:
        print(render_text(report, heading))


# ----------------------------------------------------------- subcommands

def cmd_cddiff(args: argparse.Namespace) -> int:
    cd1 = _load(args.left, ClassDiagram)
    cd2 = _load(args.right, ClassDiagram)
    heading = f"cddiff {cd1.name} vs {cd2.name} (scope {args.scope})"

    if args.summarize == "none":
        # limit + 1 probes whether the enumeration was cut short
        witnesses = list(enumerate_witnesses(cd1, cd2, args.scope,
                                             limit=args.limit + 1))
        truncated = len(witnesses) > args.limit
        witnesses = witnesses[:args.limit]
        if not witnesses:
            print(f"{heading}: no differences")
            return EXIT_NO_DIFFS
        if args.format == "json-lines":
            import json
            for om in witnesses:
                print(json.dumps({"witness": print_od(om).rstrip("\n")},
                                 ensure_ascii=False, sort_keys=True))
        else:
            tail = " (limit reached; more may exist)" if truncated else ""
            print(f"{heading}: {len(witnesses)} witness(es){tail}")
            for i, om in enumerate(witnesses, 1):
                body = print_od(om).rstrip("\n").splitlines()
                print(f"  [{i}] {body[0]}")
                for ln in body[1:]:
                    print(f"      {ln}")
        return EXIT_DIFFS

    report = cddiff_summary(cd1, cd2, args.scope)
    if args.oracle:
        status = _cd_oracle_check(cd1, cd2, args.scope, report)
        if status != 0:
            return status
    if not report.entries:
        print(f"{heading}: no differences")
        return EXIT_NO_DIFFS
    _print_report(report, heading, args.format)
    return EXIT_DIFFS


def _cd_oracle_check(cd1: ClassDiagram, cd2: ClassDiagram, scope: int,
                     report: SummaryReport) -> int:
    try:
        oracle = cd_enumerate_all(cd1, cd2, scope)
    except ScopeTooLargeError as exc:
        raise CliError(str(exc)) from exc
    engine_keys = [e.key.names for e in report.entries]
    if engine_keys != oracle.keys():
        print(f"oracle mismatch: engine found {engine_keys}, "
              f"oracle found {oracle.keys()}", file=sys.stderr)
        return EXIT_ORACLE
    for e in report.entries:
        om = e.representative
        if not is_instance(om, cd1) or is_instance(om, cd2):
            print(f"oracle mismatch: representative for {e.key.names} "
                  f"is not a witness", file=sys.stderr)
            return EXIT_ORACLE
    print(f"oracle agreement: {len(engine_keys)} class(es) at scope {scope}",
          file=sys.stderr)
    return 0


def cmd_addiff(args: argparse.Namespace) -> int:
    ad1 = _load(args.left, ActivityDiagram)
    ad2 = _load(args.right, ActivityDiagram)
    res = addiff(ad1, ad2)
    heading = f"addiff {res.left_name} vs {res.right_name} ({res.semantics} semantics)"

    if args.oracle:
        status = _ad_oracle_check(ad1, ad2, res)
        if status != 0:
            return status

    if not res.has_diffs:
        print(f"{heading}: no differences")
        return EXIT_NO_DIFFS

    if args.both:
        _print_report(res.action_lists, heading, args.format)
        _print_report(res.action_sets, heading, args.format)
        if args.format == "text":
            print(f"counts: {len(res.action_lists.entries)}"
                  f"/{len(res.action_sets.entries)}")
    elif args.summarize == "none":
        if args.format == "json-lines":
            import json
            for st in res.traces:
                print(json.dumps({"actions": list(st.actions),
                                  "inputs": render_inputs(st)},
                                 ensure_ascii=False, sort_keys=True))
        else:
            print(f"{heading}: {len(res.traces)} symbolic trace(s)")
            for i, st in enumerate(res.traces, 1):
                print(f"  [{i}] {' -> '.join(st.actions)}  "
                      f"({render_inputs(st)})")
    else:
        report = (res.action_lists if args.summarize == "action-list"
                  else res.action_sets)
        _print_report(report, heading, args.format)
    return EXIT_DIFFS


def _ad_oracle_check(ad1: ActivityDiagram, ad2: ActivityDiagram, res) -> int:
    if res.semantics != "trace":
        print("oracle cross-check skipped: simulation semantics (right "
              "diagram nondeterministic on a joint run, or has private inputs)",
              file=sys.stderr)
        return 0
    oracle = ad_diff_bfs(ad1, ad2)
    names1 = {v.name for v in ad1.inputs}

    engine_ql = sorted(st.actions for st in res.traces)
    if engine_ql != sorted(oracle.ql):
        print(f"oracle mismatch: action lists {engine_ql} vs "
              f"{sorted(oracle.ql)}", file=sys.stderr)
        return EXIT_ORACLE
    for st in res.traces:
        m = st.init_inputs.manager
        mine = {b.name: m.project_values(st.init_inputs.node, b)
                for b in st.bundles if b.name in names1}
        want = oracle.projections(st.actions)
        if mine != want:
            print(f"oracle mismatch on {list(st.actions)}: inputs {mine} "
                  f"vs {want}", file=sys.stderr)
            return EXIT_ORACLE
    engine_qs = sorted(e.key.names for e in res.action_sets.entries)
    if engine_qs != sorted(oracle.qs()):
        print(f"oracle mismatch: action sets {engine_qs} vs "
              f"{sorted(oracle.qs())}", file=sys.stderr)
        return EXIT_ORACLE
    print(f"oracle agreement: {len(engine_ql)}/{len(engine_qs)} class(es)",
          file=sys.stderr)
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    om = _load(args.object_model, ObjectModel)
    cd = _load(args.class_diagram, ClassDiagram)
    verdict = check_instance(om, cd)
    if verdict.ok:
        print(f"{om.name} is an instance of {cd.name}")
        return EXIT_DIFFS
    print(f"{om.name} is not an instance of {cd.name}:")
    for v in verdict.violations:
        print(f"  - {v.message}")
    return EXIT_NO_DIFFS


# ----------------------------------------------------------------- wiring

def _positive(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="semdiff",
        description="Semantic differencing of class and activity diagrams.")
    sub = p.add_subparsers(dest="command", required=True)

    dd = sub.add_parser("cddiff", help="object models of LEFT that are not "
                                       "instances of RIGHT")
    dd.add_argument("left")
    dd.add_argument("right")
    dd.add_argument("--scope", type=_positive, default=10, metavar="N",
                    help="max objects per witness (default 10)")
    dd.add_argument("--limit", type=_positive, default=20, metavar="N",
                    help="cap for --no-summary enumeration (default 20)")
    dd.add_argument("--summarize", choices=["class-set", "none"],
                    default="class-set")
    dd.add_argument("--no-summary", dest="summarize", action="store_const",
                    const="none", help="raw witness enumeration")
    dd.add_argument("--oracle", action="store_true",
                    help="cross-check against exhaustive enumeration (scope <= 4)")
    dd.add_argument("--format", choices=["text", "json-lines"], default="text")
    dd.set_defaults(func=cmd_cddiff)

    da = sub.add_parser("addiff", help="traces of LEFT that RIGHT cannot match")
    da.add_argument("left")
    da.add_argument("right")
    da.add_argument("--summarize", choices=["action-list", "action-set", "none"],
                    default="action-list")
    da.add_argument("--no-summary", dest="summarize", action="store_const",
                    const="none", help="symbolic traces without concretization")
    da.add_argument("--both", action="store_true",
                    help="print both partitions plus a counts line L/S")
    da.add_argument("--oracle", action="store_true",
                    help="cross-check against the explicit subset-construction oracle")
    da.add_argument("--format", choices=["text", "json-lines"], default="text")
    da.set_defaults(func=cmd_addiff)

    ck = sub.add_parser("check", help="is the object model an instance of "
                                      "the class diagram?")
    ck.add_argument("object_model")
    ck.add_argument("class_diagram")
    ck.set_defaults(func=cmd_check)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else 0
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except LimitError as exc:
        print(f"error: limit reached: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except InternalError as exc:
        print(f"error: internal error, {exc.what}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def _output_closed() -> int:
    """The reader closed the pipe: point fd 1 at /dev/null, so that no later
    flush raises, and say so on stderr while it is still open."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, 1)
    os.close(devnull)
    try:
        print("error: output closed before it was complete", file=sys.stderr,
              flush=True)
    except OSError:
        pass  # stderr is closed too
    return EXIT_USAGE


def run() -> None:
    """Process entry point: main(), a flush, then os._exit(status)."""
    try:
        status = main()
    except BrokenPipeError:
        status = _output_closed()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except BrokenPipeError:
        status = _output_closed()
    except (AttributeError, OSError, ValueError):
        # no stream (a descriptor closed at start), or another failed write
        sys.exit(status)
    os._exit(status)


if __name__ == "__main__":
    run()
