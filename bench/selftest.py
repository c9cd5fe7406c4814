"""Self-test of the benchmark.  Run from the root of the source tree:

    python3 bench/selftest.py

It takes about a minute.  It prints every metric named in BENCHMARK.json
with its unit, and checks that

- the unplanted runs report no failed invocation;
- a flipped expected verdict and a corrupted artifact each raise the failed
  count;
- the counts of two traced runs repeat exactly;
- the per-module self times of a traced pass add up to its wall time;
- a germ read-back at a tol just below the recorded δ fails.

Exit code 0 when every check holds, 1 otherwise.  The germ study runs with
a shortened final time here, so its numbers are not the benchmark's.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

import run
import workloads


def _args(workload: str, trace: int) -> argparse.Namespace:
    return argparse.Namespace(workload=workload, seed=0, seconds=0.0, trace=trace)


def _show(result: dict):
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']!r} {m['unit']}")


def main() -> int:
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []

    def check(ok: bool, what: str):
        print(f"[{'ok' if ok else 'FAIL'}] {what}")
        if not ok:
            problems.append(what)

    def units(result):
        return {k: m["unit"] for k, m in result["metrics"].items()}

    plain = run.run_benchmark(root, _args("verify_1d", 0), setups=1)
    print(plain["summary"])
    _show(plain)
    check(units(plain) == end_to_end, "end-to-end metrics and units match BENCHMARK.json")
    check(plain["correct"] and plain["failed"] == 0, "verify_1d: no failed invocation")

    for plant in ("flip", "corrupt"):
        bad = run.run_benchmark(root, _args("verify_1d", 0), setups=1, plant=plant)
        check(bad["failed"] > 0 and not bad["correct"]
              and bad["metrics"]["pass_rate"]["value"] < 1.0,
              f"planted {plant}: {bad['failed']} of {bad['attempted']} invocations fail")

    traced = []
    for _ in range(2):
        res = run.run_benchmark(root, _args("germ_sweep", 1), setups=1, short=True)
        print(res["summary"])
        traced.append(res)
    _show(traced[0])
    check(units(traced[0]) == per_layer, "per-layer metrics and units match BENCHMARK.json")
    check(all(r["correct"] for r in traced), "germ_sweep (short): no failed invocation")
    counts = [n for n, u in per_layer.items() if u in ("count", "MB")]
    differ = [n for n in counts
              if traced[0]["metrics"][n]["value"] != traced[1]["metrics"][n]["value"]]
    check(not differ, f"counts repeat across two traced runs (differ: {differ})")

    out = os.path.join(root, run.OUT_DIR, "germ_sweep")
    with open(os.path.join(out, "result.json")) as fh:
        passes = [p for p in json.load(fh)["passes"] if p["traced"]]
    for p in passes:
        total = sum(run.module_split(p).values())
        check(abs(total - p["wall_s"]) <= 1e-3 * p["wall_s"],
              f"self times sum to {total:.4f} s against a traced pass of {p['wall_s']:.4f} s")

    sys.path.insert(0, os.path.join(root, "src"))
    from discflux import cli

    wl = workloads.make("germ_sweep", 0, os.path.join(out, "inputs"), short=True)
    controls = wl.readbacks(os.path.join(out, "artifacts"), slack=-workloads.READBACK_SLACK)
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        codes = [(cli.main(list(inv.argv)), inv.expect_exit) for inv in controls]
    n_fail = sum(want == 2 for _, want in codes)
    check(all(rc == want for rc, want in codes) and n_fail > 0,
          f"{n_fail} read-backs at a tol 1e-9 below a nonzero recorded delta fail, "
          "the others and the estimate still match")

    print("self-test " + ("passed" if not problems else f"FAILED: {len(problems)} checks"))
    return 0 if not problems else 1


if __name__ == "__main__":
    raise SystemExit(main())
