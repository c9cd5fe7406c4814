"""Print the three size numbers of the package src/discflux: the lines of
its Python sources, its settable values (parameters with a default plus
dataclass fields with a default) and its CLI flags (the `--` options
`cli.build_parser` defines), both counted on the AST:

    python tools/src_shape.py
"""
from __future__ import annotations

import ast
import pathlib
import sys


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
        if name == "dataclass":
            return True
    return False


def settable_values(tree: ast.AST) -> int:
    """Defaulted parameters of every function and lambda, plus the fields
    with a default of every dataclass."""
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            count += len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            count += sum(isinstance(s, ast.AnnAssign) and s.value is not None for s in node.body)
    return count


def cli_flags(tree: ast.AST) -> int:
    """The distinct `--` options the add_argument calls of `build_parser` name."""
    build, = (n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == "build_parser")
    return len({a.value for n in ast.walk(build)
                if isinstance(n, ast.Call) and getattr(n.func, "attr", None) == "add_argument"
                for a in n.args if isinstance(a, ast.Constant) and str(a.value).startswith("--")})


def main() -> int:
    root = pathlib.Path(__file__).resolve().parents[1] / "src" / "discflux"
    texts = [f.read_text(encoding="utf-8") for f in sorted(root.rglob("*.py"))]
    lines = sum(t.count("\n") for t in texts)
    values = sum(settable_values(ast.parse(t)) for t in texts)
    print(f"lines {lines}")
    print(f"settable_values {values}")
    print(f"cli_flags {cli_flags(ast.parse((root / 'cli.py').read_text(encoding='utf-8')))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
