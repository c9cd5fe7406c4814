"""The benchmark's workloads: the CLI invocations of one pass, the inputs
made from the seed, and the check names and verdicts each invocation must
report.

Every workload is a single caller in a closed loop: an invocation starts
only after the previous one has returned.  Why each workload was chosen is
recorded in BENCHMARK.json.
"""
from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

# The shipped ε sequence of `germ_level1`; selection and stability keep
# their default threshold and slack.
GERM_EPSILONS = [0.004, 0.002, 0.001, 0.0005]
# Cut from the shipped 0.12 so that a pass fits the benchmark's time budget
# while the 8192-cell solve still dominates it.
GERM_FINAL_TIME = 0.015
# Used only by the self-test, which needs a pass of a few seconds.
GERM_FINAL_TIME_SHORT = 0.002

# Relative slack of the endpoint read-backs: the recorded δ is the L1 gap the
# program computed before writing, so re-reading both endpoints must give it
# back to rounding.
READBACK_SLACK = 1e-9


@dataclass(frozen=True)
class Invocation:
    argv: tuple[str, ...]
    expect_exit: int
    # (name, verdict) of every check in report.json, in order; None for `diff`
    expect_checks: tuple[tuple[str, bool], ...] | None
    # directory the invocation writes; its bytes must repeat across passes
    out: str | None


class MissingOutput(Exception):
    """An earlier invocation left no output to build the follow-ups from."""


class Workload:
    name = ""
    # follow-up invocations a pass makes after the main ones
    n_followups = 0

    def __init__(self, seed: int, inputs: str):
        self.seed = seed
        self.inputs = inputs

    def prepare(self):
        """Write the inputs made from the seed under `inputs`."""

    def invocations(self, out: str) -> list[Invocation]:
        raise NotImplementedError

    def followups(self, out: str) -> list[Invocation]:
        """Invocations built from what `invocations` wrote."""
        return []


def _scenario(kind: str, name: str, out: str, checks) -> Invocation:
    sub = os.path.join(out, name)
    return Invocation((kind, name, "--out", sub), 0, tuple(checks), sub)


class Verify1d(Workload):
    name = "verify_1d"

    def invocations(self, out):
        return [
            _scenario("entropy-check", "burgers_shock", out,
                      [("max_principle", True), ("entropy_battery", True)]),
            _scenario("entropy-check", "burgers_rarefaction", out,
                      [("max_principle", True), ("entropy_battery", True)]),
            _scenario("entropy-check", "two_flux_admissibility", out,
                      [("max_principle", True), ("entropy_battery", True)]),
            _scenario("kato-check", "kato_burgers", out,
                      [("max_principle_a", True), ("max_principle_b", True),
                       ("kato_battery", True)]),
            _scenario("cone-check", "cone_burgers", out,
                      [("perturbation_outside_base", True), ("max_principle_base", True),
                       ("max_principle_perturbed", True), ("cone_locality", True)]),
        ]


class Flatten2d(Workload):
    name = "flatten_2d"

    def invocations(self, out):
        return [
            _scenario("run", "tilted_flatten_2d", out,
                      [("max_principle", True), ("max_principle_flattened", True),
                       ("flatten_roundtrip", True), ("entropy_battery_flattened", True)]),
        ]


class GermSweep(Workload):
    name = "germ_sweep"
    n_followups = 10  # the estimate and one endpoint pair per level-1 member

    def __init__(self, seed, inputs, final_time: float = GERM_FINAL_TIME):
        super().__init__(seed, inputs)
        self.final_time = final_time
        self.scenario_path = os.path.join(inputs, "germ_sweep.json")

    def scenario(self) -> dict:
        rng = random.Random(self.seed)
        target = {"kind": "random_steps", "pieces": rng.randint(2, 8),
                  "seed": rng.randrange(2 ** 31)}
        return {
            "name": "germ_sweep",
            "kind": "germ",
            "flux": "two_flux",
            "domain": {"lows": [-0.5], "highs": [0.5]},
            "grid": {"counts": [400]},
            "run": {"epsilon": 0.001, "final_time": self.final_time, "boundary": 0.0},
            "initial": {"kind": "steps", "breakpoints": [-0.25, 0.25],
                        "values": [0.25, 0.75, 0.25]},
            "study": {"level": 1, "epsilons": GERM_EPSILONS, "solve_target": target},
        }

    def prepare(self):
        os.makedirs(self.inputs, exist_ok=True)
        with open(self.scenario_path, "w") as fh:
            json.dump(self.scenario(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    def invocations(self, out):
        sub = os.path.join(out, "germ_sweep")
        return [Invocation(("germ", self.scenario_path, "--out", sub), 0,
                           (("diagonal_selection", True), ("germ_stability", True)), sub)]

    def readbacks(self, out, slack: float = READBACK_SLACK) -> list[Invocation]:
        """`diff` of the estimate against its member's finest endpoint, and
        of each member's last two endpoints at a tol `slack` above the δ the
        study recorded for them."""
        sub = os.path.join(out, "germ_sweep")
        last = f"endpoint_{len(GERM_EPSILONS) - 1:02d}.csv"
        prev = f"endpoint_{len(GERM_EPSILONS) - 2:02d}.csv"
        try:
            with open(os.path.join(sub, "manifest.json")) as fh:
                level = json.load(fh)
            member = level["estimate"]["member_id"]
            deltas = {}
            for m in level["members"]:
                with open(os.path.join(sub, "records", m, "manifest.json")) as fh:
                    deltas[m] = json.load(fh)["deltas"][-1]
        except (OSError, KeyError, ValueError) as exc:
            raise MissingOutput(f"germ_sweep outputs unreadable: {exc}") from None
        invs = [Invocation(("diff", os.path.join(sub, "estimate.csv"),
                            os.path.join(sub, "records", member, last), "--tol", "1e-12"),
                           0, None, None)]
        for m, delta in deltas.items():
            rec = os.path.join(sub, "records", m)
            # below a nonzero δ the read-back must fail; a zero δ stays exact
            expect = 2 if slack < 0 and delta > 0 else 0
            invs.append(Invocation(("diff", os.path.join(rec, prev), os.path.join(rec, last),
                                    "--tol", repr(delta * (1.0 + slack))), expect, None, None))
        return invs

    def followups(self, out):
        return self.readbacks(out)


WORKLOADS = {w.name: w for w in (Verify1d, Flatten2d, GermSweep)}


def make(name: str, seed: int, inputs: str, short: bool = False) -> Workload:
    if name == GermSweep.name and short:
        return GermSweep(seed, inputs, final_time=GERM_FINAL_TIME_SHORT)
    return WORKLOADS[name](seed, inputs)
