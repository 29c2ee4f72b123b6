#!/usr/bin/env python3
"""Transformation freedom of the quaternion Dirac equation.

The usual half-angle spinor law is the exponent n = 0; every other
integer n also leaves the block equation invariant.  At n = 1 the mass
block transforms as a Euclidean four-vector, acquiring spatial
components under a boost.  A ``TransformSpec`` pairs the rotor, a unit
quaternion, with the exponent n.  Parity, time reversal and charge conjugation
act through fixed block elements.
"""

import numpy as np

from qdirac import (
    FieldData,
    TransformSpec,
    apply_discrete,
    plane_wave_modes,
    rotor_boost,
    state_from_mode,
    transform_state,
)
from qdirac.harness import quat_to_minkowski

fd = FieldData(mass=1.0, potential=[0.2, -0.1, 0.0, 0.3])
mode = plane_wave_modes(np.array([0.5, 0.2, -0.4]), fd)[3]
state = state_from_mode(mode, fd)
print("untransformed residual:", state.residual().max_abs())

boost = rotor_boost([1.0, 0.0, 0.0], 1.0)
print("\nresidual after a rapidity-1 boost, per exponent n:")
for n in (-1, 0, 1, 2):
    moved = transform_state(state, TransformSpec(boost, n))
    mass = moved.m.upper
    print(
        "  n=%+d  residual %.2e   mass block spatial part %.4f"
        % (n, moved.residual().max_abs(), mass.spatial.max_abs())
    )

moved = transform_state(state, TransformSpec(boost, 1))
print("\nat n=1 the mass is a four-vector; Minkowski components:")
print("  ", np.round(quat_to_minkowski(moved.m.upper), 6), " (cosh 1, sinh 1, 0, 0)")

print("\ndiscrete symmetries:")
for kind in ("parity", "time_reversal", "charge_conjugation"):
    image = apply_discrete(state, kind)
    twice = apply_discrete(image, kind)
    gap = max(
        (twice.d - state.d).max_abs(),
        (twice.a - state.a).max_abs(),
        (twice.phi - state.phi).max_abs(),
        (twice.m - state.m).max_abs(),
    )
    print(
        "  %-18s image residual %.2e   applied twice, distance to original %.1e"
        % (kind, image.residual().max_abs(), gap)
    )

image = apply_discrete(state, "charge_conjugation")
print("\ncharge conjugation sends the potential blocks to their negative:")
print("  |A_image + A| =", (image.a - (-state.a)).max_abs())
