#!/usr/bin/env python3
"""The conserved current, three ways, and the radiation equation.

The probability current of a 4-column amplitude equals the temporal parts
extracted from the quaternion bispinors, and equals the temporal trace of
a product of reflector blocks.  For superpositions of solution modes the
four-divergence cancels mode-pair by mode-pair, in every frame and for
every transformation exponent.  The potential a current generates is one
division per mode, away from the light cone.
"""

import numpy as np

from qdirac import (
    FieldData,
    RadiationMode,
    TransformSpec,
    block_current,
    current_divergence,
    pair_current,
    plane_wave_modes,
    radiation_residual,
    rotor_boost,
    solve_potential,
    spinor_current,
    spinor_to_pair,
)
from qdirac.quaternion import Quat

rng = np.random.default_rng(4)
psi = rng.uniform(-1, 1, 4) + 1j * rng.uniform(-1, 1, 4)
pair = spinor_to_pair(psi)
from_blocks = block_current(pair)

print("current of a random amplitude, three pipelines:")
# the temporal component divided by i gives Euclidean components
euclidean = spinor_current(psi) / [1j, 1, 1, 1]
print("  column bilinears (Euclidean):", np.round(euclidean, 6))
print("  quaternion temporal parts:   ", np.round(pair_current(pair), 6))
print("  block-trace route:           ", np.round(from_blocks, 6))

fd = FieldData(mass=1.2)
solutions = []
for p in ([0.5, -0.1, 0.3], [-0.2, 0.8, 0.1]):
    mode = plane_wave_modes(np.array(p), fd)[3]
    solutions.append((spinor_to_pair(mode.amplitude), mode))

print("\ntwo-mode superposition, symbolic four-divergence:")
print("  untransformed:", current_divergence(solutions, fd))
for n in (-1, 0, 1, 2):
    spec = TransformSpec(rotor_boost([0.0, 0.0, 1.0], 0.8), n)
    print("  after boost, n=%+d:" % n, current_divergence(solutions, fd, spec=spec))

print("\nradiation equation per mode:")
amp = Quat(0.4j, 1.0, -0.3, 0.2)
source = (
    RadiationMode(amp, 2.0, [1.0, 0.0, 0.0]),
    RadiationMode(amp * 0.5, 0.3, [0.0, 1.2, 0.0]),
)
potential = solve_potential(source)
for j_mode, a_mode in zip(source, potential):
    print(
        "  omega=%.1f |k|=%.1f: wave operator %.2f, potential amplitude scale %.4f"
        % (
            j_mode.omega,
            np.linalg.norm(j_mode.wavevector),
            j_mode.wave_operator().real,
            a_mode.amplitude.max_abs(),
        )
    )
print("  residual:", radiation_residual(source, potential))
boost = rotor_boost([0.0, 1.0, 0.0], -1.1)
print("  residual in a boosted frame:", radiation_residual(source, potential, boost))
