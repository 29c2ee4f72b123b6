"""Complexified quaternion algebra.

Elements are q0 + q1*i1 + q2*i2 + q3*i3 with complex coefficients, basis
rules i1*i2 = i3 (cyclic) and ir**2 = -1.  Three conjugation flavours are
provided:

* ``quat_conj``    negates the spatial part (q0, -q1, -q2, -q3),
* ``complex_conj`` conjugates every coefficient,
* ``herm_conj``    composes the two (in either order).

The squared modulus ``q.quat_conj() * q`` is a complex scalar, not a norm:
it vanishes on a nontrivial null cone, so nonzero elements may fail to be
invertible.  Inversion raises ``SingularQuaternion`` instead of
regularising, because null directions are meaningful (idempotents, the
light cone).

A faithful 2x2 complex matrix representation is available through
``to_matrix``/``from_matrix``.

Finiteness is checked where a ``Quat`` is built from outside values: the
``Quat(...)`` constructor, arithmetic with a scalar and ``from_matrix``
raise ``ValueError`` on a non-finite component.  Products, sums and
differences of two quaternions, negation, the conjugations and the
spatial part are built unchecked, so an overflow there gives inf or NaN
components; ``max_abs`` keeps a NaN, so a residual taken from such a
result reads NaN rather than a smaller number.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

__all__ = [
    "Quat",
    "SingularQuaternion",
    "ZERO",
    "ONE",
    "I1",
    "I2",
    "I3",
    "BASIS",
    "dot",
    "to_matrix",
    "from_matrix",
]

_SCALARS = (int, float, complex, np.integer, np.floating, np.complexfloating)


class SingularQuaternion(ZeroDivisionError):
    """Inversion of a quaternion whose complex modulus is zero."""


class Quat:
    """Immutable complexified quaternion."""

    __slots__ = ("_c",)

    def __init__(self, q0=0.0, q1=0.0, q2=0.0, q3=0.0):
        c = (complex(q0), complex(q1), complex(q2), complex(q3))
        for z in c:
            if not cmath.isfinite(z):
                raise ValueError("quaternion components must be finite, got %r" % (c,))
        self._c = c

    @property
    def components(self) -> tuple[complex, complex, complex, complex]:
        return self._c

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Quat):
            a, b = self._c, other._c
            return _of(a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3])
        if isinstance(other, _SCALARS):
            a = self._c
            return Quat(a[0] + other, a[1], a[2], a[3])
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Quat):
            a, b = self._c, other._c
            return _of(a[0] - b[0], a[1] - b[1], a[2] - b[2], a[3] - b[3])
        if isinstance(other, _SCALARS):
            a = self._c
            return Quat(a[0] - other, a[1], a[2], a[3])
        return NotImplemented

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        a = self._c
        return _of(-a[0], -a[1], -a[2], -a[3])

    def __mul__(self, other):
        if isinstance(other, Quat):
            a0, a1, a2, a3 = self._c
            b0, b1, b2, b3 = other._c
            return _of(
                a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
                a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
                a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
                a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0,
            )
        if isinstance(other, _SCALARS):
            a = self._c
            return Quat(a[0] * other, a[1] * other, a[2] * other, a[3] * other)
        return NotImplemented

    def __rmul__(self, other):
        # scalars commute with everything; quaternion * quaternion is handled
        # by __mul__ on the left operand
        if isinstance(other, _SCALARS):
            return self.__mul__(other)
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, _SCALARS):
            return self.__mul__(1.0 / other)
        return NotImplemented

    def __repr__(self):
        return "Quat(%r, %r, %r, %r)" % self._c

    def __eq__(self, other):
        if isinstance(other, Quat):
            return self._c == other._c
        return NotImplemented

    def __hash__(self):
        return hash(self._c)

    # -- conjugations ---------------------------------------------------

    def quat_conj(self) -> "Quat":
        a = self._c
        return _of(a[0], -a[1], -a[2], -a[3])

    def complex_conj(self) -> "Quat":
        a = self._c
        return _of(
            a[0].conjugate(), a[1].conjugate(), a[2].conjugate(), a[3].conjugate()
        )

    def herm_conj(self) -> "Quat":
        a = self._c
        return _of(
            a[0].conjugate(),
            -a[1].conjugate(),
            -a[2].conjugate(),
            -a[3].conjugate(),
        )

    # -- structure ------------------------------------------------------

    @property
    def temporal(self) -> complex:
        return self._c[0]

    @property
    def spatial(self) -> "Quat":
        a = self._c
        return _of(0j, a[1], a[2], a[3])

    def modulus(self) -> complex:
        # q.quat_conj() * q collapses to the complex sum of squared components
        a = self._c
        return a[0] * a[0] + a[1] * a[1] + a[2] * a[2] + a[3] * a[3]

    def inverse(self) -> "Quat":
        m = self.modulus()
        if abs(m) == 0.0:
            raise SingularQuaternion(
                "quaternion with zero complex modulus has no inverse: %r" % (self,)
            )
        return self.quat_conj() / m

    def max_abs(self) -> float:
        """Largest component modulus; NaN when any component is NaN."""
        return _max_abs(self._c)


def _of(a0: complex, a1: complex, a2: complex, a3: complex) -> Quat:
    """Unchecked constructor for results of quaternion arithmetic.

    The components must already be Python complex numbers; they are stored
    as given, without ``complex()`` or the finiteness check.
    """
    q = object.__new__(Quat)
    q._c = (a0, a1, a2, a3)
    return q


def _max_abs(values) -> float:
    moduli = [abs(z) for z in values]
    # max() keeps whichever of two operands comes first when one is NaN
    return math.nan if any(map(math.isnan, moduli)) else max(moduli)


ZERO = Quat()
ONE = Quat(1.0)
I1 = Quat(0.0, 1.0)
I2 = Quat(0.0, 0.0, 1.0)
I3 = Quat(0.0, 0.0, 0.0, 1.0)
BASIS = (ONE, I1, I2, I3)

def dot(a: Quat, b: Quat) -> complex:
    """Component dot product, without conjugation.

    Coincides with the temporal part of (a.quat_conj()*b + b.quat_conj()*a)/2.
    """
    x, y = a.components, b.components
    return x[0] * y[0] + x[1] * y[1] + x[2] * y[2] + x[3] * y[3]


# 2x2 complex representation: 1 -> identity, i1 -> [[0,-i],[-i,0]],
# i2 -> [[0,-1],[1,0]], i3 -> [[-i,0],[0,i]].

def to_matrix(q: Quat) -> np.ndarray:
    q0, q1, q2, q3 = q.components
    return np.array(
        [
            [q0 - 1j * q3, -q2 - 1j * q1],
            [q2 - 1j * q1, q0 + 1j * q3],
        ],
        dtype=complex,
    )


def from_matrix(m) -> Quat:
    m = np.asarray(m, dtype=complex)
    if m.shape != (2, 2):
        raise ValueError("expected a 2x2 matrix, got shape %r" % (m.shape,))
    q0 = (m[0, 0] + m[1, 1]) / 2.0
    q3 = (m[1, 1] - m[0, 0]) / 2j
    q2 = (m[1, 0] - m[0, 1]) / 2.0
    q1 = (m[0, 1] + m[1, 0]) * 1j / 2.0
    return Quat(q0, q1, q2, q3)
