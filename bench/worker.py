"""One workload process of the benchmark.

    worker.py setup   --workload W --seed N --out DIR
    worker.py measure --workload W --seed N --out DIR --seconds S --trace 0|1

`setup` imports discflux.cli, writes the workload's inputs and exits; the
parent times it.  `measure` runs passes over the workload's invocations
through `discflux.cli.main` in this one process until `--seconds` have gone
and at least MIN_PASSES are done, then writes `result.json` under DIR with
per-pass timings, the verdict of every invocation, artifact sizes and, with
`--trace 1`, the spans.  With tracing, passes alternate untraced and traced.
Without it, every pass samples the speed probe (`probe.py`) from a timer
signal, and the probe's own time is taken out of each invocation's timing.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import os
import resource
import shutil
import sys
import time

import workloads
from probe import REF_S, SpeedProbe
from tracer import Tracer

# two passes are the fewest that can show whether re-runs write the same bytes
MIN_PASSES = 2

# report.json records the solver's wall-clock time, so it cannot repeat;
# its check verdicts are compared instead
UNSTABLE_FILES = ("report.json",)


def _digests(path: str) -> dict[str, str]:
    out = {}
    for base, _, files in os.walk(path):
        for f in files:
            if f in UNSTABLE_FILES:
                continue
            full = os.path.join(base, f)
            with open(full, "rb") as fh:
                out[os.path.relpath(full, path)] = hashlib.sha256(fh.read()).hexdigest()
    return out


def _tree_size(path: str) -> tuple[int, int]:
    n_bytes = n_files = 0
    for base, _, files in os.walk(path):
        for f in files:
            n_bytes += os.path.getsize(os.path.join(base, f))
            n_files += 1
    return n_bytes, n_files


def _checks(out: str):
    try:
        with open(os.path.join(out, "report.json")) as fh:
            report = json.load(fh)
        return tuple((c["name"], c["pass"]) for c in report["checks"]), report
    except (OSError, KeyError, TypeError, ValueError):
        return None, {}


def _battery_entries(out: str) -> int:
    n = 0
    for base, _, files in os.walk(out):
        for f in files:
            if f in ("entropy_report.json", "kato_report.json"):
                with open(os.path.join(base, f)) as fh:
                    n += len(json.load(fh)["entries"])
    return n


def _corrupt_one(outs: list[str]):
    """Planted fault for the self-test: flip the last byte of one CSV artifact."""
    for out in outs:
        for base, _, files in sorted(os.walk(out)):
            for f in sorted(files):
                if f.endswith(".csv"):
                    with open(os.path.join(base, f), "r+b") as fh:
                        fh.seek(-1, os.SEEK_END)
                        last = fh.read(1)
                        fh.seek(-1, os.SEEK_END)
                        fh.write(bytes([last[0] ^ 1]))
                    return


class PassRunner:
    def __init__(self, wl: workloads.Workload, out_root: str, plant: str | None):
        from discflux import cli

        self.wl = wl
        self.out = os.path.join(out_root, "artifacts")
        self.main = cli.main
        self.plant = plant
        self.probe = SpeedProbe()

    def _call(self, main, inv: workloads.Invocation) -> dict:
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            busy = self.probe.busy
            start = time.perf_counter()
            rc = main(list(inv.argv))
            seconds = time.perf_counter() - start - (self.probe.busy - busy)
        ok = rc == inv.expect_exit
        info = {"argv": list(inv.argv), "exit": rc, "seconds": seconds}
        if inv.expect_checks is not None:
            got, report = _checks(inv.out)
            ok = ok and got == inv.expect_checks
            info["members"] = int(report.get("family_size", 0))
        info["ok"] = ok
        return info

    def _invoke_all(self, main) -> tuple[list, list]:
        results = []
        invs = self.wl.invocations(self.out)
        if self.plant == "flip":
            (name, verdict), *rest = invs[0].expect_checks
            invs[0] = dataclasses.replace(invs[0], expect_checks=((name, not verdict), *rest))
        for inv in invs:
            results.append(self._call(main, inv))
        try:
            follow = self.wl.followups(self.out)
        except workloads.MissingOutput as exc:
            print(f"bench: {exc}", file=sys.stderr)
            follow = []
            results += [{"argv": [], "exit": None, "seconds": 0.0, "ok": False}
                        for _ in range(self.wl.n_followups)]
        for inv in follow:
            results.append(self._call(main, inv))
        return invs, results

    def run_pass(self, main, corrupt: bool = False, probe: bool = False) -> dict:
        shutil.rmtree(self.out, ignore_errors=True)
        os.makedirs(self.out)
        if probe:
            self.probe.start()
        try:
            invs, results = self._invoke_all(main)
        finally:
            probe_s = self.probe.stop() if probe else None
        outs = [inv.out for inv in invs if inv.out is not None]
        if corrupt:
            _corrupt_one(outs)
        n_bytes, n_files = _tree_size(self.out)
        wall = sum(r["seconds"] for r in results)
        return {
            "wall_s": wall,
            "probe_s": probe_s,
            "scaled_s": wall * REF_S / probe_s if probe else None,
            "invocations": results,
            "digests": [_digests(o) for o in outs],
            "artifact_bytes": n_bytes,
            "artifact_files": n_files,
            "battery_entries": _battery_entries(self.out),
        }


def measure(args) -> dict:
    wl = workloads.make(args.workload, args.seed, os.path.join(args.out, "inputs"), args.short)
    wl.prepare()
    runner = PassRunner(wl, args.out, args.plant)
    tracer = Tracer() if args.trace else None
    passes = []
    deadline = time.perf_counter() + args.seconds
    while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
        # a planted corruption lands in the second pass, which always runs
        corrupt = args.plant == "corrupt" and len(passes) == 1
        traced = tracer is not None and len(passes) % 2 == 1
        main = runner.main
        if traced:
            tracer.install()
            main = tracer.wrap(runner.main, "main", "cli")
            first_span = len(tracer.spans)
        try:
            rec = runner.run_pass(main, corrupt, probe=tracer is None)
        finally:
            if traced:
                tracer.uninstall()
        rec["traced"] = traced
        rec["spans"] = tracer.spans[first_span:] if traced else []
        passes.append(rec)
    self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "workload": wl.name,
        "passes": passes,
        "peak_rss_kb": max(self_rss, child_rss),
        "missing_targets": tracer.missing if tracer else [],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("phase", choices=("setup", "measure"))
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--short", action="store_true",
                        help="shortened germ run, for the self-test")
    parser.add_argument("--plant", choices=("flip", "corrupt"),
                        help="self-test fault: flip an expected verdict or corrupt an artifact")
    args = parser.parse_args(argv)
    if args.phase == "setup":
        import discflux.cli  # noqa: F401  (the import is what setup measures)

        workloads.make(args.workload, args.seed, os.path.join(args.out, "inputs"),
                       args.short).prepare()
        return 0
    result = measure(args)
    with open(os.path.join(args.out, "result.json"), "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
