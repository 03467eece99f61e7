"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Checks that binding discovery finds the functions `central` imported by
name, that the tracer restores every original, that self time is span minus
wrapped children, that an untraced smoke run prints every end-to-end metric BENCHMARK.json
names, and that a traced run in this process gives every per-layer metric and
counts a reference hash altered here as a failed job. The two smoke runs of
verify-session take under a minute.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402


def expect(cond, what: str) -> None:
    if not cond:
        raise AssertionError(what)


def check_binding_discovery() -> None:
    mods = spans.glcenter_modules()
    found = {(m.__name__, a) for m, a in spans.find_bindings(mods["enveloping"].devirtualize)}
    expect(("glcenter.central", "devirtualize") in found, f"central.devirtualize not found: {found}")
    expect(("glcenter.enveloping", "devirtualize") in found, "enveloping.devirtualize not found")
    found = {(m.__name__, a) for m, a in spans.find_bindings(mods["superspace"].superpolarize)}
    expect(("glcenter.enveloping", "superpolarize") in found, "enveloping.superpolarize not found")


def _bindings() -> dict:
    return {
        (name, attr): value
        for name, mod in sys.modules.items()
        if name.startswith("glcenter.")
        for attr, value in vars(mod).items()
        if callable(value)
    }


def check_wrap_and_restore() -> None:
    mods = spans.glcenter_modules()
    before = _bindings()
    tracer = spans.Tracer()
    tracer.install()
    try:
        expect(mods["central"].devirtualize is not before[("glcenter.central", "devirtualize")],
               "central.devirtualize was not wrapped")
        mods["central"].capelli_H(2, 2)
    finally:
        tracer.restore()
    expect(_bindings() == before, "restore() left a wrapper bound")
    names = [s[0] for s in tracer.spans]
    expect(names[:2] == ["central.capelli_H", "enveloping.devirtualize"], f"spans {names}")
    expect(tracer.spans[1][3] == 0, "devirtualize span is not a child of capelli_H")
    expect(tracer.counts.get("enveloping.devirtualize.words_in") == 1, f"counts {tracer.counts}")


def check_self_time() -> None:
    a, b = "central.embed", "enveloping.act"
    agg = spans.aggregate([[a, 0, 10, -1, "j"], [b, 1, 4, 0, "j"], [a, 5, 7, 0, "j"]])
    fa, fb = agg["functions"][a], agg["functions"][b]
    expect((fa["calls"], fa["total_s"], fa["self_s"]) == (2, 10, 7), f"{a}: {fa}")
    expect((fb["calls"], fb["total_s"], fb["self_s"]) == (1, 3, 3), f"{b}: {fb}")
    expect(agg["modules"]["central"] == 7 and agg["modules"]["enveloping"] == 3, f"{agg['modules']}")


def check_smoke_runs() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", "verify-session", "--seed", "3",
           "--seconds", "1", "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    expect(out.returncode == 0, f"run.py exited {out.returncode}: {out.stderr}")
    res = json.loads(out.stdout.strip().splitlines()[-1])
    want = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    expect({k: v["unit"] for k, v in res["metrics"].items()} == want, f"end-to-end metrics {res['metrics']}")
    expect(res["correct"] and res["failed"] == 0, f"seed tree fails: {res}")

    refs = json.loads((BENCH / "refs.json").read_text())
    refs["verify hc"] = "0" * 64
    run.WORK.mkdir(exist_ok=True)
    res = run.run_workload("verify-session", 3, 1, True, refs, spec)
    want = {m["name"] for m in spec["per_layer"]}
    expect(set(res["values"]) == want, f"per-layer metrics differ: {want ^ set(res['values'])}")
    # one untraced and one traced pass, each with the altered suite failing
    names = [job["name"] for job in res["failed"]]
    expect(names == ["verify hc", "verify hc"], f"altered hash not counted: {names}")


def main() -> int:
    for check in (check_binding_discovery, check_wrap_and_restore, check_self_time, check_smoke_runs):
        check()
        print(f"ok {check.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
