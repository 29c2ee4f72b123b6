"""Rotors, their four-vector and block laws, and multiplication patterns.

A rotor is a unit quaternion R, one with R.quat_conj() * R = 1.  A spatial
rotation has real components; a boost has a real temporal component and
imaginary spatial components; a product of rotations and boosts is a
rotor too.  Every rotor moves a Euclidean four-vector (imaginary temporal,
real spatial coordinates) by one law, q' = R q R.herm_conj(), and moves
reflector blocks by similarity with Rotator(R, R.complex_conj()), which
``rotor_blocks`` returns.  For a rotation R.herm_conj() is R.quat_conj(),
and for a boost it is R itself.  Both laws raise ValueError on a rotor
whose complex modulus is not 1, to a tolerance relative to the sum of its
squared component moduli, which a boost of rapidity w makes cosh(w).  Both
laws take a stack of rotors (see ``quaternion``) and a stack of quaternions
as well, and raise when any member of the stack is not a rotor.
``rotor_spatial`` and ``rotor_boost`` build such a stack from stacked axes
(..., 3) and angles (...) with the formula of one rotor.

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

import numbers
from dataclasses import dataclass

import numpy as np

from .blocks import Rotator
from .quaternion import Quat, _first_member, _last_axis

__all__ = [
    "TransformSpec",
    "rotor_spatial",
    "rotor_boost",
    "ROTATION_PATTERNS",
    "pattern_rotate",
    "four_vector_transform",
    "rotor_blocks",
]

# a rotor's complex modulus may differ from 1 by at most this times the sum
# of its squared component moduli; that sum is at least |m| >= 1 - |m - 1|,
# so a gap of half the tolerance passes without it
_UNIT_TOL = 1e-9
_HALF_UNIT_TOL = 0.5 * _UNIT_TOL


@dataclass(frozen=True)
class TransformSpec:
    """A rotor and the integer exponent n of the law in ``dirac.transform_state``."""

    rotor: Quat
    n: int

    def __post_init__(self):
        if not isinstance(self.n, numbers.Integral):
            raise ValueError("n must be an integer, got %r" % (self.n,))
        object.__setattr__(self, "n", int(self.n))


def _unit_axis(axis) -> tuple:
    """The entries of a unit 3-vector, or of a stack (..., 3) of them (see
    ``quaternion._last_axis``); ValueError names the first member of a stack
    whose length is not 1 to within 1e-8."""
    a = np.asarray(axis, dtype=float)
    if a.shape[-1:] != (3,):
        raise ValueError("axis must be a 3-vector")
    x, y, z = _last_axis(a)
    # a NaN length fails too
    off = np.asarray(~(abs(np.sqrt(x * x + y * y + z * z) - 1.0) <= 1e-8))
    if off.any():
        at = "" if off.ndim == 0 else " at member %r" % (_first_member(off),)
        raise ValueError("axis must have unit length" + at)
    return x, y, z


def rotor_spatial(axis, angle) -> Quat:
    """Unit real-component rotor for a rotation by ``angle`` about ``axis``;
    axes (..., 3) and angles (...) give a stack."""
    x, y, z = _unit_axis(axis)
    half = np.divide(angle, 2.0)
    c, s = np.cos(half), np.sin(half)
    return Quat(c, s * x, s * y, s * z)


def rotor_boost(axis, rapidity) -> Quat:
    """Unit-modulus boost rotor of the given rapidity along ``axis``; axes
    (..., 3) and rapidities (...) give a stack."""
    x, y, z = _unit_axis(axis)
    half = np.divide(rapidity, 2.0)
    c, s = np.cosh(half), np.sinh(half)
    return Quat(c, 1j * s * x, 1j * s * y, 1j * s * z)


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
    """ValueError unless |modulus - 1| <= _UNIT_TOL * sum |r_k|**2, for every
    member of a stack.  The bound grows with the components because the
    modulus of a boost, cosh(w/2)**2 - sinh(w/2)**2, cancels two terms of
    that size."""
    m = r.modulus()
    if type(m) is complex and abs(m - 1.0) <= _HALF_UNIT_TOL:
        return
    scale = sum(z.real * z.real + z.imag * z.imag for z in r.components)
    ok = np.asarray(abs(m - 1.0) <= _UNIT_TOL * scale)  # NaN fails too
    if ok.all():
        return
    if ok.ndim == 0:
        raise ValueError("a rotor must have unit modulus, got modulus %r" % (m,))
    at = _first_member(~ok)
    raise ValueError(
        "a rotor must have unit modulus, got modulus %r at member %r"
        % (complex(m[at]), at)
    )


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
    b = Rotator._of(r, r.complex_conj())
    return b, b.quat_conj()

