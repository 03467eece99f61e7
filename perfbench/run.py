"""glcenter benchmark: runs one workload, checks its outputs, prints its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs whole passes of the workload's job list, one fresh worker process at a
time, for up to S seconds (always at least one pass), checks every job's
output, prints a table, and ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics are
the end-to-end metrics of BENCHMARK.json, measured with tracing off; with
--trace 1 they are its per-layer metrics, from one traced pass, next to one
untraced pass for the tracing overhead. `--workload all` runs every workload.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
DEADLINE_S = 170  # a run never outlives this; its unfinished pass counts as failed
SETUP_PROBES = 40
PROBE = "import os, glcenter.cli; os._exit(0)"

sys.path.insert(0, str(SRC))
from spans import COUNTED, MODULES, SPANNED, aggregate  # noqa: E402
from workloads import (  # noqa: E402
    HEAVY_JOB,
    WORKLOADS,
    SeededChecks,
    cli_jobs,
    sha256,
)


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def worker_env() -> dict:
    """The caller's environment without PYTHON*/GLCENTER_* settings, running
    the checkout's src/ tree with a fixed hash seed."""
    env = {k: v for k, v in os.environ.items() if not k.startswith(("PYTHON", "GLCENTER_"))}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


class Spawner:
    """Starts one child at a time and reads its own rusage with os.wait4."""

    def __init__(self, deadline: float):
        self.env = worker_env()
        self.deadline = deadline
        self.pid = None
        signal.signal(signal.SIGALRM, self._expire)

    def _expire(self, signum, frame):
        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)

    def run(self, argv: list, stdout: Path):
        """(wall seconds, exit code, peak RSS in MB, stderr text)."""
        remaining = self.deadline - time.perf_counter()
        if remaining <= 0:
            return 0.0, -signal.SIGKILL, 0.0, "deadline reached before start"
        err_path = stdout.with_suffix(".err")
        with open(stdout, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            self.pid = proc.pid
            signal.setitimer(signal.ITIMER_REAL, remaining)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                self.pid = None
            wall = time.perf_counter() - start
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        return wall, code, usage.ru_maxrss / 1024, err_path.read_text(errors="replace")[-500:]


class Pass:
    """One pass of a job list in fresh processes."""

    def __init__(self):
        self.jobs = []  # {"name", "s", "ok", "note"}
        self.run_s = 0.0
        self.rss_mb = 0.0
        self.start_s = 0.0
        self.spans = []
        self.counts = {}
        self.cache_entries = 0

    def add_trace(self, data: dict) -> float:
        """Merge one process's trace; returns its cli.main time."""
        offset = len(self.spans)
        spans = [[n, s, e, p + offset if p >= 0 else -1, j] for n, s, e, p, j in data["spans"]]
        self.spans.extend(spans)
        for key, value in data["counts"].items():
            self.counts[key] = self.counts.get(key, 0) + value
        self.cache_entries = max(self.cache_entries, data["cache_entries"])
        return sum(e - s for n, s, e, p, _ in spans if n == "cli.main" and p < 0)


def cli_pass(spawner, seed, trace, refs, checks) -> Pass:
    result = Pass()
    for i, (name, argv, check) in enumerate(cli_jobs(seed)):
        out = WORK / f"job{i}.out"
        trace_file = WORK / f"job{i}.trace.json"
        trace_file.unlink(missing_ok=True)
        if trace:
            cmd = [sys.executable, str(BENCH / "worker.py"), "--cli-trace", str(trace_file), "--", *argv]
        else:
            cmd = [sys.executable, "-m", "glcenter", *argv]
        wall, code, rss, err = spawner.run(cmd, out)
        text = out.read_text()
        ok, note = code == 0, f"exit {code} {err.strip()}" if code else ""
        if ok:
            try:
                ok = refs.get(check[1]) == sha256(text) if check[0] == "ref" else checks(check, text)
            except Exception as exc:  # a malformed output fails its check
                ok, note = False, f"check raised {type(exc).__name__}: {exc}"
            note = note or ("" if ok else "output differs from the reference")
        result.jobs.append({"name": name, "s": wall, "ok": ok, "note": note})
        result.run_s += wall
        result.rss_mb = max(result.rss_mb, rss)
        if trace:
            main_s = result.add_trace(json.loads(trace_file.read_text())) if trace_file.exists() else 0.0
            result.start_s += wall - main_s
    return result


def in_process_pass(spawner, workload, seed, trace, refs) -> Pass:
    result = Pass()
    out = WORK / "worker.json"
    out.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload, "--seed", str(seed), "--out", str(out)]
    wall, code, rss, err = spawner.run(cmd + (["--trace"] if trace else []), WORK / "worker.out")
    result.rss_mb = rss
    if code != 0 or not out.exists():
        result.jobs.append({"name": "worker", "s": wall, "ok": False, "note": f"exit {code} {err.strip()}"})
        return result
    data = json.loads(out.read_text())
    for job in data["jobs"]:
        if "digest" in job and refs.get(job["name"]) != job["digest"]:
            job["ok"], job["note"] = False, f"{job['note']}; output differs from the reference"
        result.jobs.append(job)
    result.run_s = data["loop_s"]
    result.start_s = wall - data["loop_s"]
    if trace:
        result.add_trace(data)
    return result


def one_pass(spawner, workload, seed, trace, refs, checks) -> Pass:
    if workload == "cli-cold":
        return cli_pass(spawner, seed, trace, refs, checks)
    return in_process_pass(spawner, workload, seed, trace, refs)


def measure_setup(spawner, count: int) -> list:
    """Wall times of fresh interpreters importing glcenter.cli."""
    times = []
    for _ in range(count):
        wall, code, _, err = spawner.run([sys.executable, "-c", PROBE], WORK / "probe.out")
        if code != 0:
            raise BenchError(f"cannot import glcenter.cli from {SRC}: {err.strip()}")
        times.append(wall)
    return times


def end_to_end(workload, passes, setup_s) -> dict:
    heavy = [j["s"] for p in passes for j in p.jobs if j["name"] == HEAVY_JOB[workload]]
    return {
        "run_s": statistics.median(p.run_s for p in passes),
        "job_p50_s": statistics.median(j["s"] for p in passes for j in p.jobs),
        "heavy_job_s": statistics.median(heavy) if heavy else 0.0,
        "peak_rss_mb": statistics.median(p.rss_mb for p in passes),
        "setup_s": setup_s,
    }


def per_layer(traced: Pass, plain: Pass, names) -> dict:
    agg = aggregate(traced.spans)
    funcs, counts = agg["functions"], traced.counts
    schur_calls = funcs.get("central.schur_element", {}).get("calls", 0)
    special = {
        "enveloping.cache_entries": traced.cache_entries,
        "central.repeat_ratio": counts.get("central.schur_element.repeats", 0) / schur_calls if schur_calls else 0.0,
        "process.start_s": traced.start_s,
        "trace.overhead_ratio": traced.run_s / plain.run_s if plain.run_s else 0.0,
    }
    out = {}
    for name in names:
        base, _, field = name.rpartition(".")
        if name in special:
            out[name] = special[name]
        elif base in MODULES and field == "self_s":
            out[name] = agg["modules"][base]
        elif base in SPANNED and field in ("calls", "total_s", "self_s"):
            out[name] = funcs.get(base, {}).get(field, 0)
        elif base in SPANNED + COUNTED:
            out[name] = counts.get(name, 0)
        else:
            raise BenchError(f"BENCHMARK.json names a per-layer metric the trace cannot give: {name}")
    return out


def run_workload(workload, seed, seconds, trace, refs, spec) -> dict:
    spawner = Spawner(time.perf_counter() + DEADLINE_S)
    # Half the set-up probes run before the passes and half after, so their
    # median does not hang on the machine's state in one half second.
    setup = measure_setup(spawner, SETUP_PROBES // 2)
    checks = SeededChecks(seed) if workload == "cli-cold" else None
    start = time.perf_counter()
    passes = []
    if trace:
        passes = [one_pass(spawner, workload, seed, t, refs, checks) for t in (False, True)]
    else:
        longest = 0.0
        while True:
            began = time.perf_counter()
            passes.append(one_pass(spawner, workload, seed, False, refs, checks))
            now = time.perf_counter()
            longest = max(longest, now - began)
            if now - start + longest > seconds or now + longest > spawner.deadline:
                break
    if spawner.deadline - time.perf_counter() > 10:
        setup += measure_setup(spawner, SETUP_PROBES - len(setup))
    setup_s = statistics.median(setup)
    jobs = [j for p in passes for j in p.jobs]
    failed = [j for j in jobs if not j["ok"]]
    if trace:
        values = per_layer(passes[1], passes[0], [m["name"] for m in spec["per_layer"]])
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        _write_trace(workload, passes[1])
    else:
        computed = end_to_end(workload, passes, setup_s)
        values = {m["name"]: computed[m["name"]] for m in spec["end_to_end"]}
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    return {
        "workload": workload,
        "passes": len(passes),
        "jobs_per_pass": [len(p.jobs) for p in passes],
        "attempted": len(jobs),
        "failed": failed,
        "setup_probes": len(setup),
        "values": values,
        "units": units,
    }


def _write_trace(workload, traced: Pass) -> None:
    with open(WORK / f"trace-{workload}.json", "w", encoding="utf-8") as fh:
        json.dump({"spans": traced.spans, "counts": traced.counts}, fh)


def print_report(res: dict, trace: bool) -> None:
    w = res["workload"]
    print(f"== {w}: {res['passes']} pass(es), jobs per pass {res['jobs_per_pass']}, "
          f"{'traced' if trace else 'untraced'}")
    for name, value in res["values"].items():
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:<52} {shown:>14} {res['units'][name]}")
    nfail = len(res["failed"])
    print(f"  {'failed_ratio':<52} {nfail / res['attempted']:>14.6g} ratio ({nfail} of {res['attempted']} jobs)")
    if not trace:
        print(f"  job_p50_s is pooled over {res['attempted']} jobs; setup_s is the median of {res['setup_probes']} probes")
    else:
        modules = {m: res["values"].get(f"{m}.self_s", 0.0) for m in MODULES}
        top = max(modules, key=modules.get)
        print(f"  dominant module by self_s: {top} ({modules[top]:.3f} s)")
    for job in res["failed"][:20]:
        print(f"  FAILED {job['name']}: {job['note']}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        if not (SRC / "glcenter" / "__init__.py").is_file():
            raise BenchError(f"no glcenter package under {SRC}")
        WORK.mkdir(exist_ok=True)
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        refs = json.loads((BENCH / "refs.json").read_text())
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = []
        for name in names:
            res = run_workload(name, args.seed, args.seconds, bool(args.trace), refs, spec)
            print_report(res, bool(args.trace))
            results.append(res)
    except (BenchError, OSError, ValueError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    finally:
        for leftover in WORK.glob("job*") if WORK.exists() else ():
            leftover.unlink()
    prefix = len(results) > 1
    metrics = {
        (f"{r['workload']}." if prefix else "") + name: {"value": value, "unit": r["units"][name]}
        for r in results
        for name, value in r["values"].items()
    }
    failed = sum(len(r["failed"]) for r in results)
    attempted = sum(r["attempted"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
