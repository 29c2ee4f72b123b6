"""Rotors, their four-vector and block laws, and multiplication patterns.

A rotor is a unit quaternion R, one with R.quat_conj() * R = 1.  A spatial
rotation has real components; a boost has a real temporal component and
imaginary spatial components; a product of rotations and boosts is a
rotor too.  Every rotor moves a Euclidean four-vector (imaginary temporal,
real spatial coordinates) by one law, q' = R q R.herm_conj(), and moves
reflector blocks by similarity with Rotator(R, R.complex_conj()), which
``rotor_blocks`` returns.  For a rotation R.herm_conj() is R.quat_conj(),
and for a boost it is R itself.  Both laws raise ValueError on a rotor
whose complex modulus is not 1.

Conventions fixed here and locked by tests:

* positive spatial-plane sense: a rotor about +z applied as R q Rc turns
  i1 toward i2;
* positive temporal-plane sense: R q R turns the temporal axis toward the
  rotor's spatial direction;
* a boost of rapidity w along a unit axis a is the rotor
  cosh(w/2) + i*sinh(w/2)*(a . ivec), which sends the Euclidean unit time
  vector to Minkowski components (cosh w, sinh w * a).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .blocks import Rotator
from .quaternion import Quat

__all__ = [
    "TransformSpec",
    "rotor_spatial",
    "rotor_boost",
    "ROTATION_PATTERNS",
    "pattern_rotate",
    "four_vector_transform",
    "rotor_blocks",
]

# a rotor's complex modulus may differ from 1 by at most this
_UNIT_TOL = 1e-9


@dataclass(frozen=True)
class TransformSpec:
    """A rotor and the integer exponent n of the law in ``dirac.transform_state``."""

    rotor: Quat
    n: int

    def __post_init__(self):
        if not isinstance(self.n, numbers.Integral):
            raise ValueError("n must be an integer, got %r" % (self.n,))
        object.__setattr__(self, "n", int(self.n))


def _unit_axis(axis) -> np.ndarray:
    a = np.asarray(axis, dtype=float)
    if a.shape != (3,):
        raise ValueError("axis must be a 3-vector")
    if abs(np.linalg.norm(a) - 1.0) > 1e-8:
        raise ValueError("axis must have unit length")
    return a


def rotor_spatial(axis, angle: float) -> Quat:
    """Unit real-component rotor for a rotation by ``angle`` about ``axis``."""
    a = _unit_axis(axis)
    c, s = math.cos(angle / 2.0), math.sin(angle / 2.0)
    return Quat(c, s * a[0], s * a[1], s * a[2])


def rotor_boost(axis, rapidity: float) -> Quat:
    """Unit-modulus boost rotor of the given rapidity along ``axis``."""
    a = _unit_axis(axis)
    c, s = math.cosh(rapidity / 2.0), math.sinh(rapidity / 2.0)
    return Quat(c, 1j * s * a[0], 1j * s * a[1], 1j * s * a[2])


ROTATION_PATTERNS = ("RQ", "QR", "RcQ", "QRc", "RQR", "RQRc", "RcQR", "RcQRc")


def pattern_rotate(pattern: str, r: Quat, q: Quat) -> Quat:
    """Apply one of the eight left/right multiplication patterns.

    'c' marks the quaternion conjugate, so "RQRc" computes R*q*R.quat_conj().
    """
    if pattern not in ROTATION_PATTERNS:
        raise ValueError(
            "unknown pattern %r, expected one of %s" % (pattern, ROTATION_PATTERNS)
        )
    left, right = pattern.split("Q")
    if left:
        q = (r if left == "R" else r.quat_conj()) * q
    if right:
        q = q * (r if right == "R" else r.quat_conj())
    return q


def _check_rotor(r: Quat) -> None:
    m = r.modulus()
    if not abs(m - 1.0) <= _UNIT_TOL:  # NaN fails too
        raise ValueError("a rotor must have unit modulus, got modulus %r" % (m,))


def four_vector_transform(q: Quat, r: Quat) -> Quat:
    """Move a Euclidean four-vector quaternion by the rotor r: r q r.herm_conj()."""
    _check_rotor(r)
    return r * q * r.herm_conj()


def rotor_blocks(r: Quat) -> tuple[Rotator, Rotator]:
    """Rotator (r, r.complex_conj()) carrying the rotor onto blocks, and its
    quaternion conjugate.

    Similarity of Reflector(Q, Q.quat_conj()) by the returned rotator moves
    the upper block as ``four_vector_transform`` does, and the lower block
    as its quaternion conjugate.
    """
    _check_rotor(r)
    b = Rotator(r, r.complex_conj())
    return b, b.quat_conj()

