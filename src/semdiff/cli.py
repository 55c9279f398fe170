"""Command line front end.

Three subcommands: `cddiff` and `addiff` compare two models and print a
summary report (or a raw witness enumeration), `check` tests one object
model against a class diagram.  Exit status: 0 differences found /
instance ok, 1 no differences / not an instance, 2 usage or parse
failure (a model file that is not UTF-8 text included), 3 oracle
mismatch under --oracle, 4 a limit was hit (the encoder's bit budget or
depth bound, the --oracle state budget, Python's recursion limit), 5 an
internal error (an engine result failed its replay or re-check).  Statuses
2, 4 and 5 print one `error: ...` line on stderr, never a traceback.
A process whose reader closes stdout before the output is complete (say,
`| head -c 10`) also ends in status 2.

`parse_args` reads the command line against one table, COMMANDS.
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
A plain run imports neither `argparse`, `json` nor the oracle: JSON
output and `--oracle` import them where they are used.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path
from types import SimpleNamespace

from .ad.diff import addiff, render_inputs
from .ad.model import ActivityDiagram, validate_ad
from .cd.diff import cddiff_summary, enumerate_witnesses
from .cd.model import (ClassDiagram, ObjectModel, check_instance, is_instance,
                       validate_cd, validate_om)
from .errors import InternalError, LimitError
from .parsing import ParseError, parse_model, print_od
from .summary import PartitionKey, SummaryReport

EXIT_DIFFS = 0
EXIT_NO_DIFFS = 1
EXIT_USAGE = 2
EXIT_ORACLE = 3
EXIT_LIMIT = 4
EXIT_INTERNAL = 5

_KIND_NAMES = {ClassDiagram: "class diagram", ObjectModel: "object model",
               ActivityDiagram: "activity diagram"}


class CliError(Exception):
    """Bad invocation or unreadable/unparsable input; exits 2."""


def _load(path: str, want: type) -> object:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CliError(f"{path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise CliError(f"{path}: not UTF-8 text, byte {exc.object[exc.start]:#04x} "
                       f"at offset {exc.start}") from exc
    try:
        model = parse_model(text, source=path)
    except ParseError as exc:
        raise CliError(str(exc)) from exc
    if not isinstance(model, want):
        raise CliError(f"{path}: expected {_KIND_NAMES[want]}, "
                       f"found {_KIND_NAMES[type(model)]}")
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


def _json_line(row: dict) -> str:
    import json
    return json.dumps(row, ensure_ascii=False, sort_keys=True)


def render_json_lines(report: SummaryReport) -> str:
    """One entry object per line: key, representative, annotation."""
    return "\n".join(_json_line(
        {"key": {"kind": e.key.kind, "names": list(e.key.names)},
         "representative": _rep_text(e.representative),
         "annotation": e.annotation}) for e in report.entries)


def _print_report(report: SummaryReport, heading: str, fmt: str) -> None:
    if fmt == "json-lines":
        body = render_json_lines(report)
        if body:
            print(body)
    else:
        print(render_text(report, heading))


# ----------------------------------------------------------- subcommands

def cmd_cddiff(args: SimpleNamespace) -> int:
    cd1 = _load(args.left, ClassDiagram)
    cd2 = _load(args.right, ClassDiagram)
    heading = f"cddiff {cd1.name} vs {cd2.name} (scope {args.scope})"
    oracle = None
    if args.oracle:
        from .oracle import ScopeTooLargeError, cd_enumerate_all
        try:
            oracle = cd_enumerate_all(cd1, cd2, args.scope)
        except ScopeTooLargeError as exc:
            raise CliError(str(exc)) from exc

    if args.summarize == "none":
        # limit + 1 probes whether the enumeration was cut short
        witnesses = list(enumerate_witnesses(cd1, cd2, args.scope,
                                             limit=args.limit + 1))
        truncated = len(witnesses) > args.limit
        witnesses = witnesses[:args.limit]
        if oracle is not None:
            status = _cd_oracle_witnesses(oracle, args.scope, witnesses, truncated)
            if status != 0:
                return status
        if not witnesses:
            print(f"{heading}: no differences")
            return EXIT_NO_DIFFS
        if args.format == "json-lines":
            for om in witnesses:
                print(_json_line({"witness": print_od(om).rstrip("\n")}))
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
    if oracle is not None:
        status = _cd_oracle_check(cd1, cd2, oracle, args.scope, report)
        if status != 0:
            return status
    if not report.entries:
        print(f"{heading}: no differences")
        return EXIT_NO_DIFFS
    _print_report(report, heading, args.format)
    return EXIT_DIFFS


def _cd_oracle_check(cd1: ClassDiagram, cd2: ClassDiagram, oracle, scope: int,
                     report: SummaryReport) -> int:
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


def _cd_oracle_witnesses(oracle, scope: int, witnesses: list[ObjectModel],
                         truncated: bool) -> int:
    """Each listed witness, taken as (set of objects, set of links), is one
    of the oracle's; a list that --limit did not cut holds every one."""
    want, got = ({(frozenset(om.objects), frozenset(om.links)) for om in oms}
                 for oms in (oracle.witnesses, witnesses))
    if not got <= want or not truncated and got != want:
        print(f"oracle mismatch: {len(got - want)} listed witness(es) the oracle "
              f"lacks, {len(want - got)} oracle witness(es) not listed", file=sys.stderr)
        return EXIT_ORACLE
    print(f"oracle agreement: {len(got)} witness(es) at scope {scope}", file=sys.stderr)
    return 0


def cmd_addiff(args: SimpleNamespace) -> int:
    ad1 = _load(args.left, ActivityDiagram)
    ad2 = _load(args.right, ActivityDiagram)
    res = addiff(ad1, ad2)
    heading = f"addiff {ad1.name} vs {ad2.name} ({res.semantics} semantics)"

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
            for st in res.traces:
                print(_json_line({"actions": list(st.actions),
                                  "inputs": render_inputs(st)}))
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
    from .oracle import ad_diff_bfs
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


def cmd_check(args: SimpleNamespace) -> int:
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
    if not text.strip().removeprefix("+").isdecimal() or int(text) < 1:
        raise ValueError(f"must be at least 1, got {text}")
    return int(text)


# command -> (handler, summary, positionals, options); an option maps to
# (dest, default, how): `how` is a converter or a tuple of choices for an
# option that takes a value, and for a flag the constant it stores
_SHARED = {"--oracle": ("oracle", False, True),
           "--format": ("format", "text", ("text", "json-lines"))}
COMMANDS = {
    "cddiff": (cmd_cddiff, "object models of LEFT that are not instances of RIGHT",
               ("left", "right"), {
                   "--scope": ("scope", 10, _positive),
                   "--limit": ("limit", 20, _positive),
                   "--summarize": ("summarize", "class-set", ("class-set", "none")),
                   "--no-summary": ("summarize", "class-set", "none"), **_SHARED}),
    "addiff": (cmd_addiff, "traces of LEFT that RIGHT cannot match", ("left", "right"), {
        "--summarize": ("summarize", "action-list", ("action-list", "action-set", "none")),
        "--no-summary": ("summarize", "action-list", "none"),
        "--both": ("both", False, True), **_SHARED}),
    "check": (cmd_check, "is the object model an instance of the class diagram?",
              ("object_model", "class_diagram"), {}),
}
_HELP = ("-h", "--help")


def _help(args: SimpleNamespace) -> int:
    """Print the synopsis of one command, or of all."""
    for name in [args.command] if args.command else COMMANDS:
        _, summary, positionals, options = COMMANDS[name]
        words = [name, *(p.upper() for p in positionals), "[-h]"]
        words += [f"[{opt} {{{','.join(how)}}}]" if isinstance(how, tuple) else
                  f"[{opt} N]" if callable(how) else f"[{opt}]"
                  for opt, (_, _, how) in options.items()]
        print(f"usage: semdiff {' '.join(words)}\n  {summary}")
    return 0


def _is_option(tok: str) -> bool:
    return tok.startswith("-") and len(tok) > 1 and not tok[1:].isdigit()


def _option(tok: str, names: tuple[str, ...]) -> str:
    """The option that `tok` spells out, or abbreviates to a unique prefix."""
    hits = [n for n in names if n == tok] or [
        n for n in names if len(tok) > 2 and n.startswith(tok)]
    if len(hits) != 1:
        raise CliError(f"ambiguous option {tok} (could be {', '.join(hits)})"
                       if hits else f"unrecognized option {tok}")
    return hits[0]


def parse_args(argv: list[str]) -> SimpleNamespace:
    """Read argv against COMMANDS; a usage error raises CliError, and `-h`
    or `--help` yields a namespace whose `func` prints the synopsis."""
    command = argv[0] if argv else "nothing"
    if command not in COMMANDS:
        if _is_option(command) and _option(command, _HELP):
            return SimpleNamespace(command=None, func=_help)
        raise CliError(f"expected a command ({', '.join(COMMANDS)}), got {command}")
    func, _, names, options = COMMANDS[command]
    args = SimpleNamespace(command=command, func=func,
                           **{dest: default for dest, default, _ in options.values()})
    values, rest = [], iter(argv[1:])
    for tok in rest:
        if tok == "--" or not _is_option(tok):  # `--` ends the options
            values.extend(rest if tok == "--" else [tok])
            continue
        name, eq, value = tok.partition("=")
        name = _option(name, (*_HELP, *options))
        if name in _HELP:
            return SimpleNamespace(command=command, func=_help)
        dest, _, how = options[name]
        flag = not (callable(how) or isinstance(how, tuple))
        if flag and eq:
            raise CliError(f"option {name} takes no value")
        if not (flag or eq) and _is_option(value := next(rest, "--")):
            raise CliError(f"option {name} needs a value")
        try:
            if isinstance(how, tuple) and value not in how:
                raise ValueError(f"invalid choice {value} (choose from {', '.join(how)})")
            setattr(args, dest, how if flag else how(value) if callable(how) else value)
        except ValueError as exc:
            raise CliError(f"option {name}: {exc}") from None
    if len(values) != len(names):
        raise CliError(f"{command}: missing {names[len(values)].upper()}"
                       if len(values) < len(names) else
                       f"{command}: unexpected argument {values[len(names)]}")
    vars(args).update(zip(names, values))
    return args


def main(argv: list[str] | None = None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except LimitError as exc:
        print(f"error: limit reached: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except RecursionError:
        # say, an expression nested thousands deep in a model file
        print(f"error: limit reached: recursion deeper than Python's limit of "
              f"{sys.getrecursionlimit()}", file=sys.stderr)
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
