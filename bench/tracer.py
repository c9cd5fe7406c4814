"""Spans around the calls into each discflux module, recorded from outside.

The tracer replaces public functions where the CLI and the germ study look
them up (module attributes and class methods) with wrappers that record a
span: name, layer, start, end, its own id and the id of the span that was
open when it started.  Spans stay in memory; the worker writes them out when
it ends.  `uninstall` puts the original functions back, so untraced passes
run the program unchanged.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time

# (module, attribute, layer).  The same function bound in two modules gets
# one wrapper, installed in both.
TARGETS = (
    ("discflux.cli", "run", "solver"),
    ("discflux.germ", "run", "solver"),
    ("discflux.cli", "max_principle_check", "solver"),
    ("discflux.cli", "entropy_battery", "entropy"),
    ("discflux.cli", "kato_battery", "entropy"),
    ("discflux.entropy", "bump_battery", "entropy"),
    ("discflux.cli", "interface_trace", "entropy"),
    ("discflux.cli", "cone_locality_check", "entropy"),
    ("discflux.cli", "flatten_model", "geometry"),
    ("discflux.cli", "radial_extend_model", "geometry"),
    ("discflux.cli", "speed_bound", "geometry"),
    ("discflux.germ", "speed_bound", "geometry"),
    ("discflux.cli", "parse_scenario", "scenario"),
    ("discflux.scenario", "initial_values_at", "scenario"),
    ("discflux.scenario", "Scenario.initial_field", "scenario"),
    ("discflux.scenario", "Scenario.field_from_spec", "scenario"),
    ("discflux.storage", "write_trajectory_csv", "storage"),
    ("discflux.storage", "write_field_csv", "storage"),
    ("discflux.storage", "write_trace_csv", "storage"),
    ("discflux.storage", "write_deltas_csv", "storage"),
    ("discflux.storage", "write_matrix_csv", "storage"),
    ("discflux.storage", "write_manifest", "storage"),
    ("discflux.storage", "read_field_csv", "storage"),
    ("discflux.germ", "run_sequence", "germ"),
    ("discflux.germ", "GermStudy.__init__", "germ"),
    ("discflux.germ", "GermStudy.level_result", "germ"),
    ("discflux.germ", "GermStudy.solve", "germ"),
    ("discflux.germ", "diagonal_select", "germ"),
    ("discflux.germ", "contraction_matrix", "germ"),
    ("discflux.germ", "save_level_result", "germ"),
)


def _resolve(module: str, attr: str):
    """(owner object, attribute name) for `attr`, which may be `Class.method`."""
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


def _num_cells(u0) -> int:
    n = 1
    for c in u0.grid.counts:
        n *= int(c)
    return n


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._installed: list[tuple] = []
        # fluxes built by radial_extend_model: their solves take the
        # generic-callable path.  Held so that ids are not reused.
        self._generic: list = []

    def _annotate(self, name: str, args, kwargs, result) -> dict:
        if name == "radial_extend_model":
            self._generic.append(result)
        elif name == "run":
            u0 = args[0] if args else kwargs["u0"]
            config = args[1] if len(args) > 1 else kwargs["config"]
            return {"cells": _num_cells(u0),
                    "steps": int(result.manifest.get("n_steps", 0)),
                    "generic": any(config.flux is g for g in self._generic)}
        return {}

    def wrap(self, fn, name: str, layer: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.spans)
            self.spans.append(None)  # reserve the id; filled in on return
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[sid] = {"id": sid, "parent": parent, "name": name,
                                   "layer": layer, "start": start, "end": end}
            self.spans[sid].update(self._annotate(name, args, kwargs, result))
            return result

        return traced

    def install(self):
        wrappers = {}
        self.missing = []
        for module, attr, layer in TARGETS:
            try:
                owner, name = _resolve(module, attr)
                original = getattr(owner, name)
            except (ImportError, AttributeError):
                self.missing.append(f"{module}.{attr}")
                continue
            key = id(original)
            if key not in wrappers:
                wrappers[key] = self.wrap(original, attr.split(".")[-1], layer)
            setattr(owner, name, wrappers[key])
            self._installed.append((owner, name, original))
        if self.missing:
            print("trace: not found, left unwrapped: " + ", ".join(self.missing), file=sys.stderr)

    def uninstall(self):
        for owner, name, original in reversed(self._installed):
            setattr(owner, name, original)
        self._installed.clear()
