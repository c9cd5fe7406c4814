"""discflux benchmark: end-to-end CLI workloads and a per-module traced split.

Run from the root of a discflux source tree:

    python3 bench/run.py --workload verify_1d --seed 1 --seconds 15 --trace 0

and check the harness itself with `python3 bench/selftest.py`.

Workloads are defined in `workloads.py`.  Each run

1. times SETUPS fresh interpreters that import `discflux.cli` and write the
   workload's inputs made from `--seed` (`setup_s` is their median);
2. starts one fresh worker process that calls `discflux.cli.main` in a
   closed loop, one invocation after another, for at least `--seconds`;
3. checks every invocation: exit code, check names and verdicts in
   `report.json`, `diff` read-backs, and identical artifact bytes across
   passes.

With `--trace 0` it reports the end-to-end metrics:

- setup_s: median time for a fresh interpreter to import discflux.cli and
  write the workload's inputs;
- wall_s: median time of one pass inside cli.main, scaled by the speed
  probe (`probe.py`) measured during the pass; the summary line gives the
  pass count and the unscaled median;
- peak_rss_mb: high-water mark of the worker process and its children;
- artifact_mb: bytes one pass writes under --out;
- pass_rate: share of the attempted invocations that did not fail.

With `--trace 1` passes alternate untraced and traced, and it reports the
per-module self times and counts of the traced passes (`layer_metrics`).
The last line of standard output is one JSON object:
`{"correct", "attempted", "failed", "metrics"}`.  Everything is written under
`.bench_out/` in the current directory.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import workloads

SETUPS = 3
# a run, set-up included, must end well inside the 180 s a run may take
RUN_LIMIT_S = 170.0
# share of cli.main that the traced child spans must cover; less means a
# wrapped function was renamed or bypassed and a layer reads zero
COVERAGE_FLOOR = 0.9
OUT_DIR = ".bench_out"


def _env(root: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    nproc = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = nproc
    return env


def _worker(root, phase, args, out, env, timeout, extra=()) -> None:
    cmd = [sys.executable, os.path.join(root, "bench", "worker.py"), phase,
           "--workload", args.workload, "--seed", str(args.seed), "--out", out, *extra]
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.DEVNULL)
    try:
        rc = proc.wait(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"{phase} of {args.workload} ran past its time limit") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if rc != 0:
        raise RuntimeError(f"{phase} of {args.workload} exited with code {rc}")


# ---------------------------------------------------------------------------
# trace analysis


def self_times(spans) -> dict[int, float]:
    """A span's duration minus the durations of its direct children."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def _us_per_cell_step(runs) -> float:
    cell_steps = sum(s["cells"] * s["steps"] for s in runs)
    if not cell_steps:
        return 0.0
    return 1e6 * sum(s["end"] - s["start"] for s in runs) / cell_steps


def layer_metrics(rec: dict) -> dict[str, float]:
    """Per-module self times and counts of one traced pass."""
    spans = rec["spans"]
    own = self_times(spans)

    def total(pred) -> float:
        return sum(own[s["id"]] for s in spans if pred(s))

    def layer(name):
        return lambda s: s["layer"] == name

    def named(*names):
        return lambda s: s["name"] in names

    runs = [s for s in spans if s["name"] == "run"]
    return {
        "solver.run_s": total(layer("solver")),
        "solver.runs": len(runs),
        "solver.steps": sum(s["steps"] for s in runs),
        "solver.cell_steps": sum(s["cells"] * s["steps"] for s in runs),
        "solver.us_per_cell_step": _us_per_cell_step([s for s in runs if not s["generic"]]),
        "solver.us_per_cell_step.generic": _us_per_cell_step([s for s in runs if s["generic"]]),
        "entropy.battery_s": total(lambda s: s["layer"] == "entropy" and s["name"] not in
                                   ("interface_trace", "cone_locality_check")),
        "entropy.residuals": rec["battery_entries"],
        "entropy.trace_s": total(named("interface_trace")),
        "entropy.cone_s": total(named("cone_locality_check")),
        "storage.write_s": total(lambda s: s["layer"] == "storage" and s["name"].startswith("write_")),
        "storage.write_mb": rec["artifact_bytes"] / 1e6,
        "storage.files": rec["artifact_files"],
        "storage.read_s": total(lambda s: s["layer"] == "storage" and s["name"].startswith("read_")),
        "germ.self_s": total(layer("germ")),
        "germ.members": sum(inv.get("members", 0) for inv in rec["invocations"]),
        "germ.select_s": total(named("diagonal_select")),
        "geometry.flatten_s": total(named("flatten_model", "radial_extend_model")),
        "geometry.speed_bound_s": total(named("speed_bound")),
        "scenario.parse_s": total(layer("scenario")),
        "cli.self_s": total(layer("cli")),
    }


def module_split(rec: dict) -> dict[str, float]:
    own = self_times(rec["spans"])
    split: dict[str, float] = {}
    for s in rec["spans"]:
        split[s["layer"]] = split.get(s["layer"], 0.0) + own[s["id"]]
    return split


def coverage(rec: dict) -> float:
    """Share of the cli.main spans that their child spans cover."""
    roots = [s for s in rec["spans"] if s["parent"] is None]
    whole = sum(s["end"] - s["start"] for s in roots)
    own = self_times(rec["spans"])
    return 1.0 - sum(own[s["id"]] for s in roots) / whole if whole else 0.0


# ---------------------------------------------------------------------------
# verdicts


def count_failures(passes) -> tuple[int, int]:
    """(attempted, failed) invocations.  An invocation fails on a wrong exit
    code, wrong check verdicts or read-back, or when the artifacts it wrote
    differ from the first pass's."""
    attempted = failed = 0
    first = passes[0]["digests"]
    for rec in passes:
        bad = [not inv["ok"] for inv in rec["invocations"]]
        for i, digests in enumerate(rec["digests"]):
            if digests != first[i]:
                bad[i] = True
        attempted += len(bad)
        failed += sum(bad)
    return attempted, failed


def _metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


# per-layer metrics whose unit is not seconds
UNITS = {"solver.runs": "count", "solver.steps": "count", "solver.cell_steps": "count",
         "entropy.residuals": "count", "storage.files": "count", "germ.members": "count",
         "solver.us_per_cell_step": "us", "solver.us_per_cell_step.generic": "us",
         "storage.write_mb": "MB"}


def run_benchmark(root: str, args, setups: int = SETUPS, short: bool = False,
                  plant: str | None = None) -> dict:
    """One benchmark run; returns the result object, plus a summary line
    under the key "summary"."""
    started = time.perf_counter()
    out = os.path.join(root, OUT_DIR, args.workload)
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    env = _env(root)
    extra = ["--short"] if short else []

    setup_times = []
    for _ in range(setups):
        t0 = time.perf_counter()
        _worker(root, "setup", args, out, env, RUN_LIMIT_S, extra)
        setup_times.append(time.perf_counter() - t0)

    extra += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    if plant:
        extra += ["--plant", plant]
    _worker(root, "measure", args, out, env,
            RUN_LIMIT_S - (time.perf_counter() - started), extra)
    with open(os.path.join(out, "result.json")) as fh:
        result = json.load(fh)

    passes = result["passes"]
    attempted, failed = count_failures(passes)
    walls = [p["wall_s"] for p in passes if not p["traced"]]
    summary = (f"{args.workload}: wall_s median of {len(walls)} untraced passes "
               f"({attempted} invocations, {failed} failed), setup_s median of {setups}")
    if not args.trace:
        scaled = statistics.median(p["scaled_s"] for p in passes)
        summary += (f"; unscaled wall_s {statistics.median(walls):.4f} s, speed probe "
                    f"{statistics.median(p['probe_s'] for p in passes) * 1e3:.3f} ms")
        metrics = {
            "setup_s": _metric(statistics.median(setup_times), "s"),
            "wall_s": _metric(scaled, "s"),
            "peak_rss_mb": _metric(result["peak_rss_kb"] / 1024.0, "MiB"),
            "artifact_mb": _metric(statistics.median(p["artifact_bytes"] for p in passes) / 1e6,
                                   "MB"),
            "pass_rate": _metric(1.0 - failed / attempted, "share"),
        }
    else:
        traced = [p for p in passes if p["traced"]]
        low = min(coverage(p) for p in traced)
        if low < COVERAGE_FLOOR:
            raise RuntimeError(
                f"traced child spans cover only {low:.1%} of cli.main (floor "
                f"{COVERAGE_FLOOR:.0%}); missing targets: {result['missing_targets']}")
        per_pass = [layer_metrics(p) for p in traced]
        metrics = {}
        for name in per_pass[0]:
            unit = UNITS.get(name, "s")
            # counts repeat from pass to pass; median_low keeps them whole
            pick = statistics.median_low if unit == "count" else statistics.median
            metrics[name] = _metric(pick(m[name] for m in per_pass), unit)
        traced_wall = statistics.median(p["wall_s"] for p in traced)
        metrics["trace.overhead_s"] = _metric(traced_wall - statistics.median(walls), "s")
        split = module_split(traced[len(traced) // 2])
        total = sum(split.values())
        summary += (f"; traced wall_s {traced_wall:.4f} s, self time by module: "
                    + ", ".join(f"{k} {v:.4f} s ({v / total:.1%})"
                                for k, v in sorted(split.items(), key=lambda kv: -kv[1])))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics, "summary": summary}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="discflux benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so that the worker process is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "discflux", "cli.py")):
        print("bench: run from the root of a discflux source tree (src/discflux/cli.py "
              "not found)", file=sys.stderr)
        return 1
    try:
        result = run_benchmark(root, args)
    except (RuntimeError, OSError, ValueError, KeyError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print(result.pop("summary"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
