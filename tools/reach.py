"""Print each src/discflux function that the shipped scenarios and one `diff`, run through `cli.main` in
this process, never enter, and each module-level constant no module loads; exit 1 if one is not ALLOWED or
an ALLOWED one was reached: python tools/reach.py"""
import ast
import os
import pathlib
import sys
import tempfile
from unittest import mock

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))
from discflux import cli, scenario, storage  # noqa: E402

PACKAGE = pathlib.Path(cli.__file__).parent
ALLOWED = {name: why for why, names in (line.split(": ") for line in """\
failure only: storage.WriteError.of storage.WriteError.__str__ solver._which
failure only: scenario._refuse_constant flux._point
forked entry point; the audit runs its body in-process: germ._init_worker germ._worker_task storage.Writers.submit
runs at import, before the audit: scenario._closed
Python API entry point for levels too large to enumerate; a command estimates from its level: germ.GermStudy.solve
ROADMAP item 5: flux.mollify_flux flux._mollifier_nodes""".splitlines()) for name in names.split()}


def entered(commands) -> set[str]:
    """`module.qualname` of each package function cli.main enters on the argvs, writers in-process on one CPU."""
    seen = set()
    with (mock.patch.object(storage.Writers, "submit", lambda self, write, path, *a: write(path, *a)),
          mock.patch.object(os, "sched_getaffinity", lambda pid: {0})):
        sys.setprofile(lambda frame, event, arg: event == "call" and seen.add(frame.f_code))
        try:
            codes = [cli.main(argv + ["--quiet"]) for argv in commands]
        finally:
            sys.setprofile(None)
    if any(codes):
        sys.exit(f"a command did not pass: exit codes {codes}")
    return {f"{pathlib.Path(c.co_filename).stem}.{c.co_qualname}" for c in seen
            if pathlib.Path(c.co_filename).parent == PACKAGE}


def unloaded_constants() -> list[str]:
    """`module.NAME` of each name a module of the package assigns at its top level (dunders aside) that no
    module loads: a Name load in its own module, or an attribute or import of that name in another."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py")}
    loads = {stem: {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
             for stem, tree in trees.items()}
    refs = {stem: {n.attr if isinstance(n, ast.Attribute) else n.name for n in ast.walk(tree)
                   if isinstance(n, (ast.Attribute, ast.alias))} for stem, tree in trees.items()}
    assigned = [(stem, t.id) for stem, tree in trees.items() for node in tree.body
                if isinstance(node, (ast.Assign, ast.AnnAssign))
                for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
                for t in ast.walk(target) if isinstance(t, ast.Name) and isinstance(t.ctx, ast.Store)]
    return sorted(f"{stem}.{name}" for stem, name in assigned
                  if not (name.startswith("__") and name.endswith("__")) and name not in loads[stem]
                  and not any(name in refs[other] for other in trees if other != stem))


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as out:
        seen = entered([[scenario.parse_scenario(scenario.builtin_scenario_path(name)).kind, name, "--out",
                         f"{out}/{name}"] for name in scenario.builtin_scenario_names()]
                       + [["diff", f"{out}/germ_level1/estimate.csv", f"{out}/germ_level1/estimate.csv"]])
    missed = {f"{path.stem}.{node.name}" + (f".{f.name}" if f is not node else "") for path in PACKAGE.glob("*.py")
              for node in ast.parse(path.read_text(encoding="utf-8")).body
              for f in (node.body if isinstance(node, ast.ClassDef) else [node]) if isinstance(f, ast.FunctionDef)}
    for name in sorted((missed := (missed - seen) | set(unloaded_constants())) | ALLOWED.keys()):
        print(name, ALLOWED.get(name, "NOT ALLOWED") if name in missed else "STALE: it was reached")
    sys.exit(1 if missed ^ ALLOWED.keys() else 0)
