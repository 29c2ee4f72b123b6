#!/usr/bin/env python3
"""How quaternion multiplication rotates four-space.

Reads the spatial- and temporal-plane angles produced by the eight
left/right multiplication patterns, then continues a spatial rotation to
a Lorentz boost by letting the rotor's spatial part go imaginary.  Every
rotor, a rotation, a boost or a product of them, moves a four-vector as
R q R.herm_conj().
"""

import math

import numpy as np

from qdirac import (
    I1,
    ONE,
    ROTATION_PATTERNS,
    four_vector_transform,
    pattern_rotate,
    rotor_boost,
    rotor_spatial,
)
from qdirac.harness import minkowski_to_quat, quat_to_minkowski

xi = 0.8
rotor = rotor_spatial([0.0, 0.0, 1.0], xi)

# the spatial plane of a z rotor is (i1, i2) and its temporal plane (1, i3),
# so the angles are those through which i1 and 1 turn within them
print("rotor about z, angle %.2f; measured plane angles (xi_s, xi_t):" % xi)
for pattern in ROTATION_PATTERNS:
    s = pattern_rotate(pattern, rotor, I1).components
    t = pattern_rotate(pattern, rotor, ONE).components
    xs = math.atan2(s[2].real, s[1].real)
    xt = math.atan2(t[3].real, t[0].real)
    print("  %-6s -> (%+.4f, %+.4f)   in units of xi: (%+.2f, %+.2f)"
          % (pattern, xs, xt, xs / xi, xt / xi))

print("\nThe sandwich R q Rc rotates only the spatial plane (a rotation of")
print("3-space); R q R rotates only the temporal plane.  Boosts are the")
print("temporal rotations with imaginary angle:")

w = 1.0
boost = rotor_boost([1.0, 0.0, 0.0], w)
unit_time = minkowski_to_quat([1.0, 0, 0, 0])
out = quat_to_minkowski(four_vector_transform(unit_time, boost))
print("\nboost rapidity %.1f along x of the unit time vector:" % w)
print("  ->", out, "   (cosh w, sinh w) =", (math.cosh(w), math.sinh(w)))

rng = np.random.default_rng(1)
u = rng.uniform(-1, 1, 4)
vec = minkowski_to_quat(u)
before = quat_to_minkowski(vec)
after = quat_to_minkowski(four_vector_transform(vec, boost))
i_before = before[0] ** 2 - before[1:] @ before[1:]
i_after = after[0] ** 2 - after[1:] @ after[1:]
print("\nrandom four-vector interval before/after boost: %.6f / %.6f" % (i_before, i_after))

w1, w2 = 0.4, 0.9
one_two = four_vector_transform(
    four_vector_transform(vec, rotor_boost([1.0, 0, 0], w1)), rotor_boost([1.0, 0, 0], w2)
)
at_once = four_vector_transform(vec, rotor_boost([1.0, 0, 0], w1 + w2))
print("rapidity additivity defect:", (one_two - at_once).max_abs())

# a rotation about z then the boost along x is one rotor, neither kind
stepwise = four_vector_transform(four_vector_transform(vec, rotor), boost)
combined = four_vector_transform(vec, boost * rotor)
print("rotation-then-boost rotor defect:", (stepwise - combined).max_abs())
