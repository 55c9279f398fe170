"""semdiff benchmark: time to a verdict on seeded model pairs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  Each job is one
`python -m semdiff.cli ...` run in a fresh child process, the way users
run the CLI.  One client runs jobs back to back (a closed loop), so at
most one job child exists at a time.  Each job is timed from spawn to
exit, and its peak RSS comes from `os.wait4`.  Each child caps its own
address space and CPU time, so a blow-up fails that job, not the host.

The host's speed drifts by up to 1.8 times over seconds to minutes, so
before every child the client times a fixed pure-Python calibration
loop on the same CPU.  Each reported time is a child's wall time divided
by its host factor: the mean of the calibrations just before and just
after it, over CALIBRATION_REF_S, raised to HOST_ELASTICITY.  The text
report prints the raw wall times as well.

After the timed loop every job's output is checked against the answer
its generator built (AD), the exhaustive oracle (CD), and the stdout
digests recorded at the commit that introduced the benchmark.

--trace 0 prints the end-to-end metrics.  --trace 1 runs each job twice,
once under traced_job.py and once plain, and prints the per-layer
metrics, self times and the tracing overhead.  The last line of stdout
is one JSON object with the keys correct, attempted, failed and metrics.
`--workload all` runs every workload in turn; its last line merges
theirs, with each metric named `<workload>/<metric>`.  Exit status: 0 when every job passed its checks, 1 when one failed, 2
when the checkout holds no semdiff sources or the arguments are bad.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from generators import FAMILIES, Job, make_jobs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"

POOL_PAIRS = 20        # 40 jobs; a run cycles through them in order
MIN_JOBS = 40          # children per run, so verdict_s.p75 has ten beyond it
MAX_LOOP_S = 110.0     # hard stop that keeps a run inside three minutes
SETUP_EVERY = 3        # an import-only child (setup_s) before every third job
CALIBRATION_REF_S = 0.030  # a typical calibrate() time inside the loop on
                           # the 2-vCPU Xeon host NOTES.md describes
HOST_ELASTICITY = 0.7      # job time grows as the calibration time to this
                           # power on that host (NOTES.md, "Host speed")
REFERENCE_PAIRS = 1    # seed-0 pairs checked against digests on every run
MEM_CAP_BYTES = 2 << 30
CPU_CAP_S = 60


@dataclass
class Execution:
    """One finished child: which job, how long, how it ended."""

    index: int
    start: float  # time.perf_counter() at spawn; CLOCK_MONOTONIC is system-wide
    wall_s: float
    status: int
    rss_mb: float
    out_path: Path
    err_path: Path
    trace_path: Path | None = None
    host_factor: float = 1.0  # host slowness around this child (timed_loop)

    @property
    def norm_s(self) -> float:
        """Wall time at the reference host speed."""
        return self.wall_s / self.host_factor


def _limits() -> None:
    # runs in the child between fork and exec
    for which, cap in ((resource.RLIMIT_AS, MEM_CAP_BYTES),
                       (resource.RLIMIT_CPU, CPU_CAP_S)):
        _, hard = resource.getrlimit(which)
        if hard != resource.RLIM_INFINITY:
            cap = min(cap, hard)
        resource.setrlimit(which, (cap, hard))


class Runner:
    """Spawns job children one at a time inside a private work directory."""

    def __init__(self, work: Path) -> None:
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.count = 0

    def spawn(self, argv: list[str], index: int = -1,
              trace_path: Path | None = None) -> Execution:
        self.count += 1
        out_path = self.work / f"out{self.count}.txt"
        err_path = self.work / f"err{self.count}.txt"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env,
                                    cwd=self.work, preexec_fn=_limits)
            _, wstatus, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(wstatus)
        return Execution(index, start, wall, proc.returncode,
                         usage.ru_maxrss / 1024, out_path, err_path, trace_path)


def calibrate() -> float:
    """Seconds a fixed pure-Python loop takes now: the host's current speed.

    Dictionary probes keyed by small tuples, like the BDD unique table and
    the CD search's lookups.  It never touches semdiff, so no change to
    the program can move it.  The table stays at a few thousand entries so
    that the client stays small: a forked child's ru_maxrss starts at the
    client's RSS.
    """
    start = time.perf_counter()
    table: dict[tuple[int, int], int] = {}
    x = 1
    for i in range(60000):
        key = (i & 63, (x >> 16) & 63)
        node = table.get(key)
        if node is None:
            table[key] = node = len(table)
        x = (x * 1103515245 + node + 12345) & 0xFFFFFFFF
    return time.perf_counter() - start


def write_inputs(work: Path, jobs: list[Job], tag: str) -> list[list[str]]:
    """Model files for each job; returns each job's CLI arguments."""
    args = []
    for i, job in enumerate(jobs):
        left = work / f"{tag}{i}.left.{job.kind}"
        right = work / f"{tag}{i}.right.{job.kind}"
        left.write_text(job.left, encoding="utf-8")
        right.write_text(job.right, encoding="utf-8")
        args.append([f"{job.kind}diff", str(left), str(right), *job.flags])
    return args


class Gate:
    """Checks executions; caches per job so repeats cost nothing."""

    def __init__(self, digests: dict[str, str]) -> None:
        import gate  # imports semdiff, so only after the sources are found
        self.gate = gate
        self.digests = digests
        self.oracle: dict[str, set] = {}
        self.verdicts: dict[tuple[str, str], str | None] = {}

    def check(self, job: Job, ex: Execution, *, need_digest: bool = False) -> str | None:
        stdout = ex.out_path.read_bytes()
        stderr = ex.err_path.read_text(encoding="utf-8", errors="replace")
        if ex.status < 0:
            return f"killed by signal {-ex.status}"
        if stderr.strip():
            return "stderr: " + stderr.strip().splitlines()[-1]
        key = self.gate.job_key(job)
        digest = self.gate.output_digest(stdout, ex.status)
        recorded = self.digests.get(key)
        if recorded is not None:
            # a recorded output passed this gate when it was recorded
            return None if recorded == digest else "stdout differs from the recorded digest"
        if need_digest:
            return "no recorded digest for a reference job"
        if (key, digest) not in self.verdicts:
            text = stdout.decode("utf-8")
            if job.kind == "ad":
                verdict = self.gate.check_ad(job, text, ex.status)
            else:
                if key not in self.oracle:
                    scope = int(job.flags[job.flags.index("--scope") + 1])
                    self.oracle[key] = self.gate.cd_oracle_keys(job, scope)
                verdict = self.gate.check_cd(job, text, ex.status, self.oracle[key])
            self.verdicts[(key, digest)] = verdict
        return self.verdicts[(key, digest)]


def quartile3(values: list[float]) -> float:
    # a run cut short by MAX_LOOP_S may hold a single job
    return statistics.quantiles(values, n=4)[2] if len(values) > 1 else values[0]


@dataclass
class Loop:
    """What the timed loop produced."""

    plain: list[Execution]
    traced: list[Execution]
    setup: list[Execution]     # import-only children
    calibration: list[float]   # calibrate() times, one before each child
    wall_s: float = 0.0


def timed_loop(runner: Runner, args: list[list[str]], seconds: float,
               traced: bool) -> Loop:
    """Closed loop over the job pool, setup children spread through it.

    A calibration runs before every child and once after the last; each
    child's host factor comes from the mean of the two around it.
    """
    loop = Loop([], [], [], [])
    children: list[Execution] = []
    tracer = str(HERE / "traced_job.py")
    setup_argv = [sys.executable, "-c", "import semdiff.cli"]

    def spawn(argv: list[str], index: int = -1,
              trace_path: Path | None = None) -> Execution:
        loop.calibration.append(calibrate())
        children.append(runner.spawn(argv, index, trace_path))
        return children[-1]

    start = time.perf_counter()
    i = 0
    while True:
        elapsed = time.perf_counter() - start
        done = len(loop.plain) + len(loop.traced)
        if (elapsed >= seconds and done >= MIN_JOBS) or elapsed >= MAX_LOOP_S:
            break
        if i % SETUP_EVERY == 0:
            loop.setup.append(spawn(setup_argv))
        j = i % len(args)
        cli = [sys.executable, "-m", "semdiff.cli", *args[j]]
        if traced:
            trace_path = runner.work / f"trace{i}.json"
            run_traced = [sys.executable, tracer, str(trace_path), str(i), *args[j]]
            # alternate the order so drift in host speed hits both sides
            pair = [(run_traced, trace_path), (cli, None)]
            for argv, path in (pair if i % 2 == 0 else pair[::-1]):
                ex = spawn(argv, j, path)
                (loop.traced if path else loop.plain).append(ex)
        else:
            loop.plain.append(spawn(cli, j))
        i += 1
    loop.calibration.append(calibrate())
    loop.wall_s = time.perf_counter() - start
    for k, ex in enumerate(children):
        around = (loop.calibration[k] + loop.calibration[k + 1]) / 2
        ex.host_factor = (around / CALIBRATION_REF_S) ** HOST_ELASTICITY
    return loop


# (metric, unit, how it is read off a traced job, wrapped names it needs)
LAYER_METRICS = [
    ("parsing.load_s", "s", "total",
     ["parsing.parse_model", "ad.model.validate_ad", "cd.model.validate_cd"]),
    ("ad.encode.encode_s", "s", "total", ["ad.encode.encode_product"]),
    ("ad.encode.bdd_nodes", "count", "size", ["ad.encode.encode_product"]),
    ("ad.model.explicit_ts_s", "s", "total", ["ad.model.build_explicit_ts"]),
    ("ad.model.explicit_states", "count", "size", ["ad.model.build_explicit_ts"]),
    ("ad.model.observable_steps_calls", "count", "calls",
     ["ad.model.observable_steps"]),
    ("ad.diff.fixpoint_s", "s", "total", ["ad.diff.backward_fixpoint"]),
    ("ad.diff.fixpoint_depth", "count", "size", ["ad.diff.backward_fixpoint"]),
    ("ad.diff.forward_split_s", "s", "total", ["ad.diff.forward_split"]),
    ("ad.diff.symbolic_traces", "count", "size", ["ad.diff.forward_split"]),
    ("ad.diff.concretize_s", "s", "total", ["ad.diff.concretize"]),
    ("ad.diff.concretize_calls", "count", "calls", ["ad.diff.concretize"]),
    ("bdd.nodes", "count", "size", ["ad.encode.encode_product"]),
    ("bdd.cache_entries", "count", "size", ["ad.encode.encode_product"]),
    ("cli.render_s", "s", "total", ["cli.render"]),
    ("summary.entries", "count", "size",
     ["ad.diff.summarize_action_list", "ad.diff.summarize_action_set",
      "summary.summarize"]),
    ("cd.diff.summary_s", "s", "total", ["cd.diff.cddiff_summary"]),
    ("cd.diff.find_witness_calls", "count", "calls", ["cd.diff.find_witness"]),
    ("cd.diff.find_witness_s", "s", "total", ["cd.diff.find_witness"]),
    ("cd.model.conforms_calls", "count", "calls", ["cd.model.conforms"]),
    ("cd.model.is_instance_calls", "count", "calls", ["cd.model.is_instance"]),
    ("cd.model.check_s", "s", "total", ["cd.model.check_instance"]),
]
SELF_LAYERS = ["cli", "parsing", "ad.encode", "ad.model", "ad.diff", "cd.diff",
               "cd.model", "summary"]


def layer_metrics(reports: list[dict],
                  lifetimes: list[tuple[float, float]]) -> dict[str, tuple]:
    """Per-job means of each per-layer metric; None marks a missing one.

    lifetimes holds each traced child's (spawn, exit) times on the same
    clock as its spans.
    """
    n = max(len(reports), 1)
    out: dict[str, tuple] = {}
    missing = set().union(*(r["missing"] for r in reports)) if reports else set()
    for name, unit, source, needs in LAYER_METRICS:
        if all(x in missing for x in needs):
            out[name] = (None, unit)
            continue
        if source == "size":
            value = sum(r["sizes"].get(name, 0) for r in reports)
        else:
            value = sum(r[f"{source}_s" if source == "total" else source].get(x, 0)
                        for r in reports for x in needs)
        out[name] = (value / n, unit)
    for layer in SELF_LAYERS:
        value = sum(r["self_s"].get(layer, 0.0) for r in reports)
        out[f"{layer}.self_s"] = (value / n, "s")
    # before cli.main: interpreter start, imports, tracer set-up; after it:
    # the tracer's report, its JSON file and interpreter exit
    mains = [next((sp for sp in r["spans"] if sp[0] == "cli.main"), None)
             for r in reports]
    if reports and None not in mains:
        out["proc.startup_s"] = (sum(sp[1] - born for sp, (born, _) in
                                     zip(mains, lifetimes)) / n, "s")
        out["proc.exit_s"] = (sum(died - sp[2] for sp, (_, died) in
                                  zip(mains, lifetimes)) / n, "s")
    else:
        out["proc.startup_s"] = out["proc.exit_s"] = (None, "s")
    return out


def _line(name: str, value: float | None, unit: str, note: str = "") -> str:
    shown = "missing" if value is None else f"{value:.6g}"
    return f"  {name:<34} {shown:>12} {unit:<6} {note}".rstrip()


def parse_args(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*sorted(FAMILIES), "all"],
                   help="one workload, or all of them in turn")
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def use_sources() -> bool:
    """Put the checkout's semdiff on sys.path; False if it has none."""
    if not (SRC / "semdiff" / "cli.py").is_file():
        print(f"error: no semdiff sources under {SRC}", file=sys.stderr)
        return False
    sys.path.insert(0, str(SRC))
    return True


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not use_sources():
        return 2
    # the calibration must run on the CPU the children run on; children
    # inherit the mask
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    names = sorted(FAMILIES) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        work = ROOT / ".bench_build" / "perfbench" / (
            f"{name}-{args.seed}-{os.getpid()}")
        work.mkdir(parents=True, exist_ok=True)
        try:
            results[name] = run(args, name, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    if args.workload == "all":
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}/{metric}": value for name, r in results.items()
                        for metric, value in r["metrics"].items()}}))
    return 0 if all(r["correct"] for r in results.values()) else 1


def run(args: argparse.Namespace, workload: str, work: Path) -> dict:
    """One workload: set up, time, check, print; returns the JSON result."""
    # the build step: users run installed bytecode, so jobs should too
    compileall.compile_dir(str(SRC / "semdiff"), quiet=1)
    runner = Runner(work)
    jobs = make_jobs(workload, args.seed, POOL_PAIRS)
    job_args = write_inputs(work, jobs, "job")
    loop = timed_loop(runner, job_args, args.seconds, bool(args.trace))

    # the gate imports semdiff; a child forked from a larger client would
    # inherit a higher ru_maxrss floor, so it is built only now
    checks_start = time.perf_counter()
    digests = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    gate = Gate(digests)
    failures: list[str] = []
    passed_plain = 0
    for ex in loop.plain + loop.traced:
        reason = gate.check(jobs[ex.index], ex)
        if reason:
            failures.append(f"{jobs[ex.index].label}: {reason}")
        elif ex.trace_path is None:
            passed_plain += 1

    refs = make_jobs(workload, 0, REFERENCE_PAIRS)
    for j, ref_args in enumerate(write_inputs(work, refs, "ref")):
        ex = runner.spawn([sys.executable, "-m", "semdiff.cli", *ref_args], j)
        reason = gate.check(refs[j], ex, need_digest=True)
        if reason:
            failures.append(f"reference {refs[j].label}: {reason}")
    attempted = len(loop.plain) + len(loop.traced) + len(refs)

    walls = [ex.wall_s for ex in loop.plain]
    factors = [ex.host_factor for ex in loop.plain + loop.traced + loop.setup]
    print(f"workload {workload}  seed {args.seed}  trace {args.trace}  "
          f"loop {loop.wall_s:.2f} s  jobs {len(loop.plain) + len(loop.traced)} "
          f"timed + {len(refs)} reference  checks "
          f"{time.perf_counter() - checks_start:.2f} s")
    print(f"  host factor {min(factors):.3f}-{max(factors):.3f}, median "
          f"{statistics.median(factors):.3f}, from {len(loop.calibration)} "
          f"calibrations against {CALIBRATION_REF_S * 1000:.0f} ms")
    for reason in failures[:20]:
        print(f"  FAILED {reason}")
    print(_line("fail_ratio", len(failures) / attempted, "ratio",
                f"{len(failures)} failed of {attempted} attempted"))

    metrics: dict[str, dict] = {}
    if not args.trace:
        norms = [ex.norm_s for ex in loop.plain]
        setup_walls = [ex.wall_s for ex in loop.setup]
        # (name, host-normalised value, raw value, unit, note)
        e2e = [
            ("diffs_per_s", passed_plain / sum(norms), passed_plain / sum(walls),
             "1/s", f"{passed_plain} passing jobs in {sum(walls):.2f} s of job time"),
            ("verdict_s.p50", statistics.median(norms), statistics.median(walls),
             "s", f"n={len(walls)}"),
            ("verdict_s.p75", quartile3(norms), quartile3(walls), "s",
             f"n={len(walls)}"),
            ("peak_rss_mb", None, max(ex.rss_mb for ex in loop.plain), "MB",
             "max over jobs; not normalised"),
            ("setup_s", statistics.median(ex.norm_s for ex in loop.setup),
             statistics.median(setup_walls), "s",
             f"median of {len(setup_walls)} import-only children"),
        ]
        print("  metric                             normalised    raw wall")
        for name, value, raw, unit, note in e2e:
            value = raw if value is None else value
            print(f"  {name:<34} {value:>10.6g} {raw:>10.6g} {unit:<4} {note}")
            metrics[name] = {"value": value, "unit": unit}
        rss = [ex.rss_mb for ex in loop.plain]
        print(f"  job peak RSS p50 {statistics.median(rss):.1f} MB, p90 "
              f"{statistics.quantiles(rss, n=10)[-1]:.1f} MB; an import-only "
              f"child peaks at {max(ex.rss_mb for ex in loop.setup):.1f} MB")
    else:
        # a traced child that failed may have written no spans
        done = [ex for ex in loop.traced if ex.trace_path.is_file()]
        reports = [json.loads(ex.trace_path.read_text()) for ex in done]
        per_layer = layer_metrics(
            reports, [(ex.start, ex.start + ex.wall_s) for ex in done])
        p50_traced = statistics.median(ex.wall_s for ex in loop.traced)
        p50_plain = statistics.median(walls)
        per_layer["trace.traced_p50_s"] = (p50_traced, "s")
        per_layer["trace.untraced_p50_s"] = (p50_plain, "s")
        per_layer["trace.overhead_ratio"] = (p50_traced / p50_plain, "ratio")
        print(f"per-layer metrics, mean per traced job (n={len(reports)}), raw "
              f"wall times; self time is a span minus the wrapped calls inside it")
        for name, (value, unit) in per_layer.items():
            print(_line(name, value, unit))
            metrics[name] = {"value": value, "unit": unit}
        print(f"  tracing overhead: traced p50 {p50_traced:.4f} s vs untraced "
              f"p50 {p50_plain:.4f} s (n={len(walls)} each)")

    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}
    print(json.dumps(result))
    return result


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
