"""The three benchmark workloads.

A workload is built from a freshly imported ``qdirac`` package and a seed;
building it is the set-up that ``setup_s`` times.  It holds one cycle of
inputs, runs op ``i`` on input ``i % cycle`` (``verify_all`` instead passes
seed + i to the CLI), and checks each output.  ``check`` returns the op's
work units, or raises ``WrongOutput``.

Every input is drawn from ``numpy.random.default_rng((seed, stream))``,
where ``stream`` is fixed per workload, so one seed gives the same inputs
on every commit.  The draws use numpy only, never the library's own
samplers, so a change to the harness cannot change what is measured.
"""

from __future__ import annotations

import contextlib
import io
import json
import math

import numpy as np


class WrongOutput(AssertionError):
    """An op returned without error but its output failed the check."""


def _unit3(rng) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def _momentum(rng, radius: float = 2.0) -> np.ndarray:
    while True:
        p = rng.uniform(-radius, radius, 3)
        if p @ p <= radius * radius:
            return p


def _solution(qd, rng, fd):
    """An exact plane-wave mode as (bispinor pair, mode)."""
    mode = qd.dirac.plane_wave_modes(_momentum(rng), fd)[int(rng.integers(4))]
    return qd.dirac.spinor_to_pair(mode.amplitude), mode


class VerifyAll:
    """``qdirac verify all`` in-process, op ``i`` with seed + i."""

    name = "verify_all"
    unit = "cases"
    cycle = 4
    # the 15 cases that do not loop over the trials (the FD grids among them)
    # take 13% of an op at 100 trials, 7% at the CLI's default 200 and 31% at
    # 32; at 200, the 20 ops a run needs would not fit in 30 s
    trials = 100

    def __init__(self, qd, seed: int):
        self.cli = qd.cli
        self.seed = seed

    def argv(self, i: int) -> list[str]:
        return ["verify", "all", "--seed", str(self.seed + i),
                "--trials", str(self.trials), "--format", "json"]

    def run(self, i: int):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.cli.main(self.argv(i))
        return code, out.getvalue()

    def check(self, i: int, result) -> int:
        code, text = result
        report = json.loads(text)
        cases = report["cases"]
        if not cases:
            raise WrongOutput("verify all reported no cases")
        failed = [c["name"] for c in cases if not c["pass"]]
        if code != 0 or report["pass"] is not True or failed:
            raise WrongOutput("verify all failed (exit %r): %s" % (code, failed))
        return len(cases)


class ConservationModes:
    """``current_divergence`` on superpositions of N zero-potential modes."""

    name = "conservation_modes"
    unit = "mode pairs"
    # equal neighbouring sizes run one and the same input.  Over whole cycles
    # the p50 rank falls inside the five 64s, and the p75 and p90 ranks both
    # inside the six 112s, so no rank lands on a jump between two inputs and
    # the tail stays on the same input whether a run makes fewer or more than
    # 100 ops.  The tail is the median of six ops per cycle, not of one.
    SIZES = (10, 16, 24, 32, 40, 48, 56, 64, 64, 64, 64, 64, 80,
             112, 112, 112, 112, 112, 112, 160)
    # the slots, half of the cycle, whose input carries a TransformSpec
    TRANSFORMED = (1, 2, 4, 6, 7, 8, 9, 10, 11, 12)
    TOL = 1e-10
    cycle = len(SIZES)

    def __init__(self, qd, seed: int):
        self.current = qd.current
        rng = np.random.default_rng((seed, 1))
        tr = qd.transforms
        self.inputs = []
        for k, n_modes in enumerate(self.SIZES):
            if k and n_modes == self.SIZES[k - 1]:
                self.inputs.append(self.inputs[-1])
                continue
            fd = qd.dirac.FieldData(rng.uniform(0.1, 2.0))
            solutions = [_solution(qd, rng, fd) for _ in range(n_modes)]
            spec = None
            if k in self.TRANSFORMED:
                if rng.integers(2):
                    rotor = tr.rotor_spatial(_unit3(rng), rng.uniform(0.0, math.pi))
                else:
                    rotor = tr.rotor_boost(_unit3(rng), rng.uniform(-2.0, 2.0))
                spec = tr.TransformSpec(rotor, int(rng.choice((-1, 0, 1, 2))))
            self.inputs.append((solutions, fd, spec))
        order = rng.permutation(self.cycle)
        self.inputs = [self.inputs[k] for k in order]

    def run(self, i: int):
        solutions, fd, spec = self.inputs[i % self.cycle]
        return self.current.current_divergence(solutions, fd, spec)

    def check(self, i: int, result) -> int:
        residual = float(result)
        if not residual <= self.TOL:
            raise WrongOutput("divergence residual %.3e > %.0e" % (residual, self.TOL))
        return len(self.inputs[i % self.cycle][0]) ** 2


class GridOracle:
    """Sample a mode on a 4-D grid and apply the central-difference D."""

    name = "grid_oracle"
    unit = "grid points"
    # pairs where the p50 and p90 ranks of whole cycles fall, so both land
    # mid-group
    SIDES = (17, 19, 21, 23, 25, 25, 27, 29, 33, 33)
    cycle = len(SIDES)

    def __init__(self, qd, seed: int):
        self.harness = qd.harness
        rng = np.random.default_rng((seed, 2))
        self.inputs = []
        for side in self.SIDES:
            fd = qd.dirac.FieldData(rng.uniform(0.1, 2.0))
            pair, mode = _solution(qd, rng, fd)
            symbol, _ = qd.dirac.momentum_symbol(mode)
            expected = np.array((symbol * pair.phi1).components)
            spacing = rng.uniform(0.02, 0.06)
            # central differences scale each wavenumber k by sin(kh)/(kh):
            # the error per axis is at most |k|**3 h**2 / 6 per unit amplitude
            k3 = abs(mode.energy) ** 3 + float(np.sum(np.abs(mode.momentum) ** 3))
            amp = max(abs(z) for z in pair.phi1.components)
            bound = (k3 * spacing**2 / 6.0 + 1e-9) * amp
            self.inputs.append((side, spacing, mode, pair.phi1, expected, bound))
        order = rng.permutation(self.cycle)
        self.inputs = [self.inputs[k] for k in order]

    def run(self, i: int):
        side, spacing, mode, amplitude, _, _ = self.inputs[i % self.cycle]
        grid = self.harness.sample_quat_mode(
            amplitude, mode.energy, mode.momentum, (side,) * 4, spacing
        )
        return self.harness.fd_apply_D(grid)

    def check(self, i: int, result) -> int:
        side, spacing, mode, _, expected, bound = self.inputs[i % self.cycle]
        values = result.values
        if values.shape != (side - 2,) * 4 + (4,):
            raise WrongOutput("fd_apply_D returned shape %r" % (values.shape,))
        axis = (np.arange(side) - (side - 1) / 2.0)[1:-1] * spacing
        p = mode.momentum
        spatial = np.exp(
            1j
            * (
                p[0] * axis[:, None, None]
                + p[1] * axis[None, :, None]
                + p[2] * axis[None, None, :]
            )
        )[..., None] * expected
        # one time slice at a time keeps the check's memory small
        worst = 0.0
        for t, x0 in enumerate(axis):
            exact = np.exp(-1j * mode.energy * x0) * spatial
            worst = max(worst, float(np.max(np.abs(values[t] - exact))))
        if not worst <= bound:
            raise WrongOutput("fd error %.3e above the O(h^2) bound %.3e" % (worst, bound))
        return side**4


WORKLOADS = {w.name: w for w in (VerifyAll, ConservationModes, GridOracle)}
