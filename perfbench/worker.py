"""One benchmark worker process; run.py starts it with a pinned environment.

    worker.py --workload NAME --seed N --out FILE [--trace]
        runs an in-process workload's job list and writes the job records
        (and, traced, the spans and counters) to FILE as JSON.
    worker.py --cli-trace FILE -- ARGS...
        runs `glcenter ARGS...` like `python -m glcenter`, traced, and writes
        the spans and counters to FILE.
"""

from __future__ import annotations

import argparse
import json
import sys
import time


def _trace_payload(tracer, jobs_cache_entries: int) -> dict:
    tracer.restore()
    return {**tracer.dump(), "cache_entries": jobs_cache_entries}


def run_cli_traced(out: str, argv: list) -> int:
    from spans import Tracer, cache_entries

    tracer = Tracer()
    tracer.install()
    tracer.job = " ".join(argv)
    from glcenter import cli

    try:
        code = cli.main(argv)
    finally:
        sys.stdout.flush()
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(_trace_payload(tracer, cache_entries()), fh)
    return code


def run_workload(name: str, seed: int, out: str, trace: bool) -> int:
    from workloads import IN_PROCESS, Jobs

    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    jobs = Jobs(tracer)
    start = time.perf_counter()
    IN_PROCESS[name](seed, jobs)
    result = {"loop_s": time.perf_counter() - start, "jobs": jobs.records}
    if tracer is not None:
        result.update(_trace_payload(tracer, jobs.cache_entries))
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def main() -> int:
    if "--cli-trace" in sys.argv:
        i = sys.argv.index("--cli-trace")
        rest = sys.argv[i + 2 :]
        return run_cli_traced(sys.argv[i + 1], rest[1:] if rest[:1] == ["--"] else rest)
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    return run_workload(args.workload, args.seed, args.out, args.trace)


if __name__ == "__main__":
    sys.exit(main())
