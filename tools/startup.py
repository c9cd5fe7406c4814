"""Median wall time of fresh `python -c "import discflux.cli"` runs, alternated with another tree's
under --against, and the third-party packages the import loads: tools/startup.py [-n 21] [--against DIR]"""
import argparse
import os
import pathlib
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGES = ("import sys; before = set(sys.modules); import discflux.cli; print(' '.join(sorted("
            "{m.split('.')[0] for m in set(sys.modules) - before} - {*sys.stdlib_module_names, 'discflux'})))")


def _run(tree: pathlib.Path, code: str) -> tuple[float, str]:
    start = time.perf_counter()
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(tree / "src")),
                         capture_output=True, text=True, check=True)
    return time.perf_counter() - start, out.stdout.strip()


def main():
    parser = argparse.ArgumentParser(description="median start-up of `import discflux.cli`")
    parser.add_argument("-n", type=int, default=21, help="fresh interpreters per tree")
    parser.add_argument("--against", help="another discflux source tree, timed alternately")
    args = parser.parse_args()
    trees = [ROOT] + ([pathlib.Path(args.against).resolve()] if args.against else [])
    times = {tree: [] for tree in trees}
    for i in range(args.n):
        for tree in trees[::-1] if i % 2 else trees:
            times[tree].append(_run(tree, "import discflux.cli")[0])
    for tree in trees:
        print(f"{tree}: median {statistics.median(times[tree]) * 1e3:.1f} ms; imports {_run(tree, PACKAGES)[1]}")
    if args.against:
        print(f"{ROOT} faster in {sum(a < b for a, b in zip(*times.values()))} of {args.n} pairs")


if __name__ == "__main__":
    main()
