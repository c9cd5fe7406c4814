"""Run one CLI command here and in another checkout, and compare every file
both runs wrote under --out, report.json with its timings (every value
whose key ends in `_s`) and its task `worker` ordinals masked; print each
file that differs (or exists on one side only), and in a JSON file each
path that does, or `identical (N files)`, and exit 1 on a difference
or a failed run.  How far a difference moved is printed with it: both
values of a numeric JSON leaf, and for a CSV of the same shape
on both sides the number of cells that differ and the largest absolute
and relative difference of those cells:

    python tools/same_bytes.py germ germ_level1 --against ../parent"""
import argparse
import csv
import io
import json
import os
import pathlib
import subprocess
import sys
import tempfile


def _masked(value):
    """`value` with the timings and worker ordinals replaced, which vary from run to run."""
    if isinstance(value, dict):
        return {k: "*" if k.endswith("_s") or k == "worker" else _masked(v) for k, v in value.items()}
    return [_masked(v) for v in value] if isinstance(value, list) else value


_ABSENT = object()


def _paths(here, there, path: str = "") -> list[str]:
    """The JSON paths at which two decoded documents differ, a key on one
    side only marked so."""
    if isinstance(here, dict) and isinstance(there, dict):
        return [p for k in sorted(here.keys() | there.keys())
                for p in _paths(here.get(k, _ABSENT), there.get(k, _ABSENT), f"{path}/{k}")]
    if isinstance(here, list) and isinstance(there, list) and len(here) == len(there):
        return [p for i, pair in enumerate(zip(here, there)) for p in _paths(*pair, f"{path}/{i}")]
    if here is _ABSENT or there is _ABSENT:
        return [f"{path} ({'there' if here is _ABSENT else 'here'} only)"]
    if here == there:
        return []
    numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (here, there))
    return [f"{path or '/'}" + (f": {here!r} here, {there!r} there" if numbers else "")]


def _cells(here: bytes, there: bytes) -> str:
    """The cells in which two CSV files of one shape differ, and the largest
    absolute and relative difference of those that are numbers on both
    sides; or both shapes."""
    tables = [list(csv.reader(io.StringIO(data.decode()))) for data in (here, there)]
    shapes = [[len(row) for row in table] for table in tables]
    if shapes[0] != shapes[1]:
        return " ".join(f"({len(s)} rows of {min(s, default=0)} to {max(s, default=0)} cells {side})"
                        for s, side in zip(shapes, ("here", "there")))
    pairs = [(a, b) for row_a, row_b in zip(*tables) for a, b in zip(row_a, row_b) if a != b]
    absolute = relative = 0.0
    for a, b in pairs:
        try:
            a, b = float(a), float(b)
        except ValueError:
            continue
        if a != b:  # not 0.0 against -0.0
            absolute = max(absolute, abs(a - b))
            relative = max(relative, abs(a - b) / max(abs(a), abs(b)))
    return (f"({len(pairs)} of {sum(shapes[0])} cells, largest absolute difference {absolute:.3g}, "
            f"relative {relative:.3g})")


def _files(tree: pathlib.Path, command: str, scenario: str, out: pathlib.Path) -> dict:
    argv = [sys.executable, "-m", "discflux.cli", command, scenario, "--out", str(out), "--quiet"]
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    if subprocess.run(argv, env=env, cwd=tree, stdout=subprocess.DEVNULL).returncode not in (0, 2):
        sys.exit(f"{command} {scenario} failed in {tree}")
    return {str(p.relative_to(out)): _masked(json.loads(p.read_bytes())) if p.name == "report.json" else p.read_bytes()
            for p in out.rglob("*") if p.is_file()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("command")
    parser.add_argument("scenario", help="a scenario file or a shipped scenario name")
    parser.add_argument("--against", required=True, help="root of the other checkout")
    args = parser.parse_args()
    scenario = os.path.abspath(args.scenario) if os.path.exists(args.scenario) else args.scenario
    with tempfile.TemporaryDirectory() as tmp:
        here, there = (_files(pathlib.Path(tree).resolve(), args.command, scenario, pathlib.Path(tmp, side))
                       for tree, side in ((pathlib.Path(__file__).parents[1], "here"), (args.against, "there")))
    diff = sorted(name for name in here.keys() | there.keys() if here.get(name) != there.get(name))
    for name in diff:
        a, b = here.get(name), there.get(name)
        if None in (a, b):
            paths = [""]
        elif name.endswith(".json"):
            paths = _paths(*(v if isinstance(v, dict) else json.loads(v) for v in (a, b)))
        else:
            paths = [_cells(a, b) if name.endswith(".csv") else ""]
        print("\n".join(f"differs: {name}" + (f" {p}" if p else "") for p in paths))
    if not diff:
        print(f"identical ({len(here)} files)")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
