"""Maps and lifts between C^2 columns and complexified quaternions.

``map_F`` sends a quaternion to the first column of its 2x2 matrix
representation; ``lift_G`` is the R-linear (not C-linear) inverse off the
four basis columns, always producing real-component quaternions.
``map_N``/``lift_L`` are the second-column analogues, catering for the
opposite spin assignment.

Right multiplication by (1 + i*i3) projects onto the left ideal generated
by the idempotent (1 + i*i3)/2.  On that ideal, right multiplication by
-i3 coincides with scalar multiplication by i, which is what restores
C-linearity to the composite column -> ideal map.  The mirror ideal
(1 - i*i3) plays the same role for the L/N pair.

Every map takes a stack as well: a stack of quaternions maps to columns
(..., 2), and columns (..., 2) lift to a stack of quaternions.
"""

from __future__ import annotations

import numpy as np

from .quaternion import Quat, _last_axis

__all__ = [
    "SIGMA",
    "map_F",
    "lift_G",
    "map_N",
    "lift_L",
    "vec_to_quat",
    "quat_to_vec",
    "ideal_factor",
]

# Pauli matrices; sigma_r equals i times the matrix representation of i_r.
SIGMA = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1j], [1j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)


def map_F(q: Quat) -> np.ndarray:
    """First matrix column of q, a C-linear map onto C^2."""
    q0, q1, q2, q3 = q.components
    if isinstance(q0, np.ndarray):
        return np.stack([q0 - 1j * q3, q2 - 1j * q1], axis=-1)
    return np.array([q0 - 1j * q3, q2 - 1j * q1], dtype=complex)


def lift_G(v) -> Quat:
    """R-linear lift with map_F(lift_G(v)) == v; components come out real."""
    try:
        v0, v1 = complex(v[0]), complex(v[1])
    except TypeError:  # a stack of columns
        v0, v1 = _last_axis(np.asarray(v))
    return Quat(v0.real, -v1.imag, v1.real, -v0.imag)


def map_N(q: Quat) -> np.ndarray:
    """Second matrix column of q."""
    q0, q1, q2, q3 = q.components
    if isinstance(q0, np.ndarray):
        return np.stack([-q2 - 1j * q1, q0 + 1j * q3], axis=-1)
    return np.array([-q2 - 1j * q1, q0 + 1j * q3], dtype=complex)


def lift_L(v) -> Quat:
    """R-linear lift with map_N(lift_L(v)) == v; components come out real."""
    try:
        v0, v1 = complex(v[0]), complex(v[1])
    except TypeError:  # a stack of columns
        v0, v1 = _last_axis(np.asarray(v))
    return Quat(v1.real, -v0.imag, -v0.real, v1.imag)


def vec_to_quat(v) -> Quat:
    """Coordinate relabelling of a length-4 complex vector as a quaternion."""
    return Quat(*_last_axis(np.asarray(v)))


def quat_to_vec(q: Quat) -> np.ndarray:
    return np.stack(q.components, axis=-1)


def ideal_factor(sign: int = 1) -> Quat:
    """The right factor 1 + sign*i*i3; half of it is idempotent."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    return Quat(1.0, 0.0, 0.0, sign * 1j)

