"""Rotation and boost rotors, multiplication-pattern geometry, and the
discrete symmetry elements.

Spatial rotors have real components and unit modulus; boost rotors have a
real temporal component, imaginary spatial components and unit complex
modulus.  Euclidean four-vectors (imaginary temporal, real spatial
coordinates) transform by the sandwich q' = R q R.quat_conj() for spatial
rotations and q' = R q R for boosts; both patterns extend to reflector
blocks through a similarity by ``rotor_blocks``.

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
from dataclasses import dataclass

import numpy as np

from .blocks import Reflector, Rotator
from .quaternion import Quat, I2

__all__ = [
    "DegenerateProjection",
    "Rotor",
    "TransformSpec",
    "rotor_spatial",
    "rotor_boost",
    "rotor_angle",
    "ROTATION_PATTERNS",
    "pattern_rotate",
    "plane_angle",
    "measure_plane_angles",
    "four_vector_transform",
    "rotor_blocks",
    "discrete_elements",
]


class DegenerateProjection(ValueError):
    """A plane projection is too small for its rotation angle to be measured."""


@dataclass(frozen=True)
class Rotor:
    value: Quat
    kind: str  # "spatial" or "boost"

    def __post_init__(self):
        if self.kind not in ("spatial", "boost"):
            raise ValueError("rotor kind must be 'spatial' or 'boost'")


@dataclass(frozen=True)
class TransformSpec:
    rotor: Rotor
    n: int = 0


def _unit_axis(axis) -> np.ndarray:
    a = np.asarray(axis, dtype=float)
    if a.shape != (3,):
        raise ValueError("axis must be a 3-vector")
    if abs(np.linalg.norm(a) - 1.0) > 1e-8:
        raise ValueError("axis must have unit length")
    return a


def rotor_spatial(axis, angle: float) -> Rotor:
    """Unit real-component rotor for a rotation by ``angle`` about ``axis``."""
    a = _unit_axis(axis)
    c, s = math.cos(angle / 2.0), math.sin(angle / 2.0)
    return Rotor(Quat(c, s * a[0], s * a[1], s * a[2]), "spatial")


def rotor_boost(axis, rapidity: float) -> Rotor:
    """Unit-modulus boost rotor of the given rapidity along ``axis``."""
    a = _unit_axis(axis)
    c, s = math.cosh(rapidity / 2.0), math.sinh(rapidity / 2.0)
    return Rotor(Quat(c, 1j * s * a[0], 1j * s * a[1], 1j * s * a[2]), "boost")


def rotor_angle(r: Rotor) -> float:
    """Rotation angle recovered from tan(angle/2) = |spatial| / temporal."""
    c = r.value.components
    v = math.sqrt(sum(abs(z) ** 2 for z in c[1:]))
    return 2.0 * math.atan2(v, c[0].real)


ROTATION_PATTERNS = ("RQ", "QR", "RcQ", "QRc", "RQR", "RQRc", "RcQR", "RcQRc")


def pattern_rotate(pattern: str, r: Rotor, q: Quat) -> Quat:
    """Apply one of the eight left/right multiplication patterns.

    'c' marks the quaternion conjugate, so "RQRc" computes R*q*R.quat_conj().
    """
    v = r.value
    vc = v.quat_conj()
    products = {
        "RQ": lambda: v * q,
        "QR": lambda: q * v,
        "RcQ": lambda: vc * q,
        "QRc": lambda: q * vc,
        "RQR": lambda: v * q * v,
        "RQRc": lambda: v * q * vc,
        "RcQR": lambda: vc * q * v,
        "RcQRc": lambda: vc * q * vc,
    }
    try:
        return products[pattern]()
    except KeyError:
        raise ValueError(
            "unknown pattern %r, expected one of %s" % (pattern, ROTATION_PATTERNS)
        ) from None


def _real_vec4(q: Quat) -> tuple[float, float, float, float]:
    c0, c1, c2, c3 = q.components
    scale = max(1.0, abs(c0), abs(c1), abs(c2), abs(c3))
    if max(abs(c0.imag), abs(c1.imag), abs(c2.imag), abs(c3.imag)) > 1e-9 * scale:
        raise ValueError("expected a quaternion with real components")
    return c0.real, c1.real, c2.real, c3.real


def _dot3(a, b) -> float:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _cross(a, b) -> tuple[float, float, float]:
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def _rotor_direction(r: Rotor) -> tuple[float, float, float]:
    v = _real_vec4(r.value)[1:]
    norm = math.sqrt(_dot3(v, v))
    if norm < 1e-12:
        raise DegenerateProjection("rotor has no spatial direction")
    return v[0] / norm, v[1] / norm, v[2] / norm


def _spatial_frame(axis) -> tuple[tuple[float, ...], tuple[float, ...]]:
    # right-handed in-plane frame (v1, v2) with v1 x v2 = +axis, started
    # from the basis vector along the smallest axis component
    x, y, z = abs(axis[0]), abs(axis[1]), abs(axis[2])
    if x <= y and x <= z:
        e = (1.0, 0.0, 0.0)
    elif y <= z:
        e = (0.0, 1.0, 0.0)
    else:
        e = (0.0, 0.0, 1.0)
    v1 = _cross(axis, e)
    norm = math.sqrt(_dot3(v1, v1))
    v1 = (v1[0] / norm, v1[1] / norm, v1[2] / norm)
    return v1, _cross(axis, v1)


def _wrap(a: float) -> float:
    return math.atan2(math.sin(a), math.cos(a))


def plane_angle(r: Rotor, q: Quat, q_after: Quat, plane: str, tol: float = 1e-9) -> float:
    """Signed rotation angle of q's projection into q_after within one plane.

    ``plane`` is "temporal" (span of the time axis and the rotor direction)
    or "spatial" (its orthogonal complement).  Raises DegenerateProjection
    when q barely projects into the requested plane.
    """
    axis = _rotor_direction(r)
    a, b = _real_vec4(q), _real_vec4(q_after)
    if plane == "temporal":
        pa = (a[0], _dot3(a[1:], axis))
        pb = (b[0], _dot3(b[1:], axis))
    elif plane == "spatial":
        v1, v2 = _spatial_frame(axis)
        pa = (_dot3(a[1:], v1), _dot3(a[1:], v2))
        pb = (_dot3(b[1:], v1), _dot3(b[1:], v2))
    else:
        raise ValueError("plane must be 'temporal' or 'spatial'")
    if math.hypot(*pa) < tol or math.hypot(*pb) < tol:
        raise DegenerateProjection("projection onto the %s plane is degenerate" % plane)
    return _wrap(math.atan2(pb[1], pb[0]) - math.atan2(pa[1], pa[0]))


def measure_plane_angles(
    r: Rotor, q: Quat, q_after: Quat, tol: float = 1e-9
) -> tuple[float | None, float | None]:
    """Per-plane rotation angles (spatial, temporal); None where degenerate."""
    angles = []
    for plane in ("spatial", "temporal"):
        try:
            angles.append(plane_angle(r, q, q_after, plane, tol))
        except DegenerateProjection:
            angles.append(None)
    return angles[0], angles[1]


def four_vector_transform(q: Quat, spec: TransformSpec | Rotor) -> Quat:
    """Transform a Euclidean four-vector quaternion by a rotation or boost."""
    rotor = spec.rotor if isinstance(spec, TransformSpec) else spec
    v = rotor.value
    if rotor.kind == "spatial":
        return v * q * v.quat_conj()
    return v * q * v


def rotor_blocks(spec: TransformSpec | Rotor) -> tuple[Rotator, Rotator]:
    """Rotator carrying the transform onto blocks, and its quaternion conjugate.

    Spatial rotations use equal blocks (R, R); boosts use (R, R.quat_conj()).
    Similarity of Reflector(Q, Q.quat_conj()) by the returned rotator
    reproduces ``four_vector_transform`` on both blocks.
    """
    rotor = spec.rotor if isinstance(spec, TransformSpec) else spec
    v = rotor.value
    if rotor.kind == "spatial":
        r = Rotator(v, v)
    else:
        r = Rotator(v, v.quat_conj())
    return r, r.quat_conj()


def discrete_elements(kind: str):
    """Block elements for the discrete symmetries.

    * "parity": the pair (B, E) with B an anti-diagonal swap and E the
      identity rotator; states transform as B X B.quat_conj() for the
      derivative and potential blocks, B Phi E.quat_conj() for the spinor
      block and E M E.quat_conj() for the mass block.
    * "time_reversal": the pair (B, E) = (Rotator(-1, 1), Reflector(1, 1)).
    * "charge_conjugation": the rotator with both blocks i2, the spatial
      pi-rotation that accompanies componentwise conjugation.
    """
    if kind == "parity":
        return Reflector(1.0, 1.0), Rotator(1.0, 1.0)
    if kind == "time_reversal":
        return Rotator(-1.0, 1.0), Reflector(1.0, 1.0)
    if kind == "charge_conjugation":
        return Rotator(I2, I2)
    raise ValueError(
        "unknown symmetry %r, expected 'parity', 'time_reversal' or "
        "'charge_conjugation'" % (kind,)
    )
