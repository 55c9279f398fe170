"""Run one semdiff CLI job with spans around the calls into each layer.

Usage: python traced_job.py OUT.json JOB_ID CLI_ARG...

Each function is wrapped under the name its caller looks it up by: the
CLI calls `semdiff.cli.addiff`, `addiff` calls
`semdiff.ad.diff.backward_fixpoint`, `cddiff_summary` calls
`semdiff.cd.diff.find_witness`, and so on.  Spans stay in memory; at
exit they go to OUT.json with per-layer self times (a span's duration
minus the time of the wrapped calls inside it), call counts and the
sizes read off each layer's results.  The CLI's own stdout and exit
status pass through unchanged.

Functions called millions of times are only counted (`conforms`,
`is_instance`) or only timed in aggregate (`observable_steps`,
`check_instance`); their time is still subtracted from the enclosing
span's self time when they are timed.  A target that no longer exists
is listed under "missing", so the report can say so instead of
printing 0.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

SPAN, TIMED, COUNTED = "span", "timed", "counted"

# (module the caller looks the name up in, attribute, metric name, mode)
TARGETS = [
    ("semdiff.cli", "main", "cli.main", SPAN),
    ("semdiff.cli", "parse_model", "parsing.parse_model", SPAN),
    ("semdiff.cli", "validate_ad", "ad.model.validate_ad", SPAN),
    ("semdiff.cli", "validate_cd", "cd.model.validate_cd", SPAN),
    ("semdiff.cli", "addiff", "ad.diff.addiff", SPAN),
    ("semdiff.cli", "cddiff_summary", "cd.diff.cddiff_summary", SPAN),
    ("semdiff.cli", "_print_report", "cli.render", SPAN),
    ("semdiff.cli", "is_instance", "cd.model.is_instance", COUNTED),
    ("semdiff.ad.diff", "trace_exact", "ad.diff.trace_exact", SPAN),
    ("semdiff.ad.diff", "is_observably_deterministic",
     "ad.model.is_observably_deterministic", SPAN),
    ("semdiff.ad.model", "build_explicit_ts", "ad.model.build_explicit_ts", SPAN),
    ("semdiff.ad.diff", "encode_product", "ad.encode.encode_product", SPAN),
    ("semdiff.ad.diff", "non_correspondence", "ad.diff.non_correspondence", SPAN),
    ("semdiff.ad.diff", "backward_fixpoint", "ad.diff.backward_fixpoint", SPAN),
    ("semdiff.ad.diff", "forward_split", "ad.diff.forward_split", SPAN),
    ("semdiff.ad.diff", "summarize_action_list", "ad.diff.summarize_action_list", SPAN),
    ("semdiff.ad.diff", "summarize_action_set", "ad.diff.summarize_action_set", SPAN),
    ("semdiff.ad.diff", "concretize", "ad.diff.concretize", SPAN),
    ("semdiff.ad.diff", "observable_steps", "ad.model.observable_steps", TIMED),
    ("semdiff.ad.model", "observable_steps", "ad.model.observable_steps", TIMED),
    ("semdiff.cd.diff", "find_witness", "cd.diff.find_witness", SPAN),
    ("semdiff.cd.diff", "summarize", "summary.summarize", SPAN),
    ("semdiff.cd.diff", "check_instance", "cd.model.check_instance", TIMED),
    ("semdiff.cd.model", "check_instance", "cd.model.check_instance", TIMED),
    ("semdiff.cd.diff", "is_instance", "cd.model.is_instance", COUNTED),
    ("semdiff.cd.diff", "conforms", "cd.model.conforms", COUNTED),
    ("semdiff.cd.model", "conforms", "cd.model.conforms", COUNTED),
]


def _sizes(name: str, result: object) -> dict[str, int]:
    """Counts read off a wrapped function's result."""
    if name == "ad.encode.encode_product":
        return {"ad.encode.bdd_nodes": result.manager.audit()["nodes"]}
    if name == "ad.model.build_explicit_ts":
        return {"ad.model.explicit_states": len(result.states)}
    if name == "ad.diff.backward_fixpoint":
        return {"ad.diff.fixpoint_depth": result.depth()}
    if name == "ad.diff.forward_split":
        return {"ad.diff.symbolic_traces": len(result)}
    if name in ("ad.diff.summarize_action_list", "ad.diff.summarize_action_set",
                "summary.summarize"):
        return {"summary.entries": len(result.entries)}
    return {}


class Recorder:
    """Spans, aggregates and self times of one traced job."""

    def __init__(self, job_id: str) -> None:
        self.job_id = job_id
        self.spans: list[tuple[str, float, float, int, str]] = []
        self.calls: dict[str, int] = {}
        self.total_s: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.sizes: dict[str, int] = {}
        self.missing: list[str] = []
        self.managers: list[object] = []
        # open frames: [index of the innermost open span or -1, time spent
        # in wrapped callees]
        self.stack: list[list] = []

    def wrap(self, fn, name: str, mode: str):
        if mode == COUNTED:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                self.calls[name] = self.calls.get(name, 0) + 1
                return fn(*args, **kwargs)
            return counted

        layer = name.rsplit(".", 1)[0]
        clock = time.perf_counter

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            parent = self.stack[-1][0] if self.stack else -1
            frame = [parent, 0.0]
            if mode == SPAN:
                frame[0] = len(self.spans)
                self.spans.append((name, 0.0, 0.0, parent, self.job_id))
            self.stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self.stack.pop()
                dur = end - start
                if self.stack:
                    self.stack[-1][1] += dur
                if mode == SPAN:
                    self.spans[frame[0]] = (name, start, end, parent, self.job_id)
                self.calls[name] = self.calls.get(name, 0) + 1
                self.total_s[name] = self.total_s.get(name, 0.0) + dur
                self.self_s[layer] = self.self_s.get(layer, 0.0) + dur - frame[1]
            for key, value in _sizes(name, result).items():
                self.sizes[key] = self.sizes.get(key, 0) + value
            if name == "ad.encode.encode_product":
                self.managers.append(result.manager)
            if self.stack:
                # reading the sizes is tracing work, not the caller's
                self.stack[-1][1] += clock() - end
            return result
        return timed

    def install(self) -> None:
        # some names are wrapped in two modules (where the caller imported
        # them and where they live); a name is missing only when every
        # module has lost it
        found: dict[str, bool] = {}
        for module_name, attr, name, mode in TARGETS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            found[name] = found.get(name, False) or fn is not None
            if fn is not None:
                setattr(module, attr, self.wrap(fn, name, mode))
        self.missing = [name for name, ok in found.items() if not ok]

    def report(self) -> dict:
        # the manager keeps every node, so its final size is its peak
        bdd = {"bdd.nodes": 0, "bdd.cache_entries": 0}
        for m in self.managers:
            stats = m.audit()
            bdd["bdd.nodes"] += stats["nodes"]
            bdd["bdd.cache_entries"] += stats["cache_entries"]
        return {
            "job": self.job_id,
            "spans": self.spans,
            "calls": self.calls,
            "total_s": self.total_s,
            "self_s": self.self_s,
            "sizes": {**self.sizes, **bdd},
            "missing": self.missing,
        }


def main(argv: list[str]) -> int:
    out_path, job_id, cli_args = argv[0], argv[1], argv[2:]
    rec = Recorder(job_id)
    rec.install()
    cli = importlib.import_module("semdiff.cli")
    status = cli.main(cli_args)
    sys.stdout.flush()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(rec.report(), fh)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
