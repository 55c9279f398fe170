"""Record the stdout digests that later runs of the benchmark compare.

    python3 perfbench/record_digests.py --seeds 0-9 [--workload NAME ...]

Run it from the root of a checkout at the commit whose output is the
reference.  It runs every job in the pool of each seed once, untimed,
and records a digest only for output that passes the correctness gate.
The digests merge into digests.json, keyed by the job's input, so a
later run checks every job whose input was recorded.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import run
from generators import FAMILIES, make_jobs


def main(argv: list[str]) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", required=True, help="inclusive range, e.g. 0-9")
    p.add_argument("--workload", action="append", choices=sorted(FAMILIES))
    args = p.parse_args(argv)
    lo, _, hi = args.seeds.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    if not run.use_sources():
        return 2
    import gate

    digests = json.loads(run.DIGESTS.read_text()) if run.DIGESTS.is_file() else {}
    work = run.ROOT / ".bench_build" / "perfbench" / "record"
    work.mkdir(parents=True, exist_ok=True)
    checker = run.Gate({})
    bad = 0
    try:
        runner = run.Runner(work)
        for workload in args.workload or sorted(FAMILIES):
            for seed in seeds:
                jobs = make_jobs(workload, seed, run.POOL_PAIRS)
                for i, cli_args in enumerate(run.write_inputs(work, jobs, "job")):
                    key = gate.job_key(jobs[i])
                    if key in digests:
                        continue
                    ex = runner.spawn([sys.executable, "-m", "semdiff.cli",
                                       *cli_args], i)
                    reason = checker.check(jobs[i], ex)
                    if reason:
                        print(f"{workload} seed {seed} {jobs[i].label}: {reason}")
                        bad += 1
                        continue
                    digests[key] = gate.output_digest(ex.out_path.read_bytes(),
                                                      ex.status)
                run.DIGESTS.write_text(json.dumps(digests, indent=0, sort_keys=True)
                                       + "\n")
                print(f"{workload} seed {seed}: {len(digests)} digests")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
