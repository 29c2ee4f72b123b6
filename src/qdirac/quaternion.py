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
``to_matrix``/``from_matrix``, for a stack as (..., 2, 2) matrices.

A ``Quat`` holds either one complex number per component or one complex
NumPy array per component, all of one shape: a stack of quaternions, one
per trial, which every product, sum and conjugation handles with the same
formula as a single quaternion.  ``Quat(...)`` builds a stack when a
component is an array of one or more dimensions, and broadcasts the
components against each other; a NumPy array times a ``Quat`` is a stack
too, never an object array.  On a stack, ``max_abs`` and ``modulus``
return one value per quaternion, ``inverse`` raises when any member is
null, and ``==`` and ``hash`` raise ``TypeError``.

Finiteness is checked where a ``Quat`` is built from outside values: the
``Quat(...)`` constructor, arithmetic with a scalar or an array and
``from_matrix`` raise ``ValueError`` on a non-finite component, in any
member of a stack.  Products, sums and differences of two quaternions,
negation, the conjugations and the spatial part are built unchecked, so
an overflow there gives inf or NaN components; ``max_abs`` keeps a NaN,
per member of a stack, so a residual taken from such a result reads NaN
rather than a smaller number.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

__all__ = [
    "Quat",
    "SingularQuaternion",
    "ONE",
    "I1",
    "I2",
    "I3",
    "BASIS",
    "dot",
    "to_matrix",
    "from_matrix",
]

# the values a quaternion or block may be scaled by or shifted by; an array
# scales each member of a stack by its own entry
_SCALARS = (
    int, float, complex, np.integer, np.floating, np.complexfloating, np.ndarray
)


class SingularQuaternion(ZeroDivisionError):
    """Inversion of a quaternion whose complex modulus is zero."""


class Quat:
    """Immutable complexified quaternion."""

    __slots__ = ("_c",)
    # ndarray * Quat calls Quat.__rmul__ instead of building an object array
    __array_ufunc__ = None

    def __init__(self, q0=0.0, q1=0.0, q2=0.0, q3=0.0):
        try:
            c = (complex(q0), complex(q1), complex(q2), complex(q3))
        except TypeError:
            # complex() takes no array of one or more dimensions: a stack
            c = _stack_components(q0, q1, q2, q3)
        else:
            for z in c:
                if not cmath.isfinite(z):
                    raise ValueError(
                        "quaternion components must be finite, got %r" % (c,)
                    )
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
            _refuse_stack(self, other)
            return self._c == other._c
        return NotImplemented

    def __hash__(self):
        _refuse_stack(self)
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
        zero = np.zeros_like(a[0]) if isinstance(a[0], np.ndarray) else 0j
        return _of(zero, a[1], a[2], a[3])

    def modulus(self) -> complex:
        # q.quat_conj() * q collapses to the complex sum of squared components
        a = self._c
        return a[0] * a[0] + a[1] * a[1] + a[2] * a[2] + a[3] * a[3]

    def inverse(self) -> "Quat":
        m = self.modulus()
        null = (m == 0).any() if isinstance(m, np.ndarray) else abs(m) == 0.0
        if null:
            raise SingularQuaternion(
                "quaternion with zero complex modulus has no inverse: %r" % (self,)
            )
        return self.quat_conj() / m

    def max_abs(self):
        """Largest component modulus; NaN when any component is NaN.  A stack
        gives one value per member."""
        return _max_abs(self._c)


def _of(a0: complex, a1: complex, a2: complex, a3: complex) -> Quat:
    """Unchecked constructor for results of quaternion arithmetic.

    The components must already be Python complex numbers, or complex arrays
    of one shape; they are stored as given, without ``complex()``, copying or
    the finiteness check.
    """
    q = object.__new__(Quat)
    q._c = (a0, a1, a2, a3)
    return q


def _stack_components(*values) -> tuple[np.ndarray, ...]:
    """The components of a stack: private complex copies of ``values``,
    broadcast to one shape and checked for finiteness."""
    c = tuple(np.broadcast_arrays(*(np.array(z, dtype=complex) for z in values)))
    for k, z in enumerate(c):
        bad = ~np.isfinite(z)
        if bad.any():
            at = _first_member(bad)
            raise ValueError(
                "quaternion components must be finite, got component %d = %r of "
                "member %r" % (k, complex(z[at]), at)
            )
    return c


def _first_member(mask: np.ndarray) -> tuple[int, ...]:
    """Index of the first member of a stack where ``mask`` is true."""
    return tuple(int(i) for i in np.argwhere(mask)[0])


def _refuse_stack(*quats) -> None:
    for q in quats:
        if isinstance(q._c[0], np.ndarray):
            raise TypeError("a stack of quaternions has no == and no hash")


def _max_abs(values):
    """Largest modulus of a sequence of components; NaN when any is NaN.  For
    array components, one value per member of the stack."""
    if type(values[0]) is complex and type(values[-1]) is complex:
        moduli = list(map(abs, values))
        # max() keeps whichever of two operands comes first when one is NaN;
        # a sum of non-negative moduli is NaN exactly when one of them is
        return math.nan if math.isnan(sum(moduli)) else max(moduli)
    # np.max keeps a NaN
    return np.abs(np.stack(np.broadcast_arrays(*values))).max(axis=0)


def _last_axis(a: np.ndarray) -> tuple:
    """The entries of ``a`` along its last axis: scalars of a 1-D array, and
    arrays over the leading axes of a stack."""
    return tuple(a) if a.ndim == 1 else tuple(np.moveaxis(a, -1, 0))


ONE = Quat(1.0)
I1 = Quat(0.0, 1.0)
I2 = Quat(0.0, 0.0, 1.0)
I3 = Quat(0.0, 0.0, 0.0, 1.0)
BASIS = (ONE, I1, I2, I3)


def _mul_tables():
    """Index and sign tables of left and right multiplication, read off
    ``Quat.__mul__`` on the basis: e_a e_b = s e_i puts s*A[a] at entry
    (i, b) of the matrix of q -> A q, and s*B[b] at entry (i, a) of the
    matrix of q -> q B."""
    idx = np.empty((2, 4, 4), dtype=np.intp)
    sign = np.empty((2, 4, 4), dtype=np.int64)
    for a, x in enumerate(BASIS):
        for b, y in enumerate(BASIS):
            c = (x * y).components
            i = next(k for k, z in enumerate(c) if z != 0)
            idx[0, i, b], idx[1, i, a] = a, b
            sign[0, i, b] = sign[1, i, a] = int(c[i].real)
    return idx, sign


(_LEFT_IDX, _RIGHT_IDX), (_LEFT_SIGN, _RIGHT_SIGN) = _mul_tables()


# np.take, not a[..., idx]: the fancy index lays its result out in another
# order than C, which einsum then follows at twice the cost
def _left_matrix(a: np.ndarray) -> np.ndarray:
    """Matrices (..., 4, 4) of q -> A q for the components ``a`` (..., 4) of A."""
    return np.take(a, _LEFT_IDX, axis=-1) * _LEFT_SIGN


def _right_matrix(b: np.ndarray) -> np.ndarray:
    """Matrices (..., 4, 4) of q -> q B for the components ``b`` (..., 4) of B."""
    return np.take(b, _RIGHT_IDX, axis=-1) * _RIGHT_SIGN


def dot(a: Quat, b: Quat) -> complex:
    """Component dot product, without conjugation.

    Coincides with the temporal part of (a.quat_conj()*b + b.quat_conj()*a)/2.
    """
    x, y = a.components, b.components
    return x[0] * y[0] + x[1] * y[1] + x[2] * y[2] + x[3] * y[3]


# 2x2 complex representation: 1 -> identity, i1 -> [[0,-i],[-i,0]],
# i2 -> [[0,-1],[1,0]], i3 -> [[-i,0],[0,i]].

def to_matrix(q: Quat) -> np.ndarray:
    """The 2x2 matrix of q; (..., 2, 2) for a stack."""
    q0, q1, q2, q3 = q.components
    m = np.array(
        [q0 - 1j * q3, -q2 - 1j * q1, q2 - 1j * q1, q0 + 1j * q3], dtype=complex
    )
    return m.transpose(*range(1, m.ndim), 0).reshape(m.shape[1:] + (2, 2))


def from_matrix(m) -> Quat:
    """The quaternion of a 2x2 matrix, or the stack of a stack (..., 2, 2)."""
    m = np.asarray(m, dtype=complex)
    if m.shape[-2:] != (2, 2):
        raise ValueError("expected a 2x2 matrix, got shape %r" % (m.shape,))
    m00, m01, m10, m11 = m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1]
    q0 = (m00 + m11) / 2.0
    q3 = (m11 - m00) / 2j
    q2 = (m10 - m01) / 2.0
    q1 = (m01 + m10) * 1j / 2.0
    return Quat(q0, q1, q2, q3)
