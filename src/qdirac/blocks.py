"""Reflector and rotator block matrices over complexified quaternions.

A ``Reflector(upper, lower)`` denotes the anti-diagonal 2x2 block matrix
[[0, upper], [lower, 0]]; a ``Rotator(upper, lower)`` the diagonal one
[[upper, 0], [0, lower]].  Multiplication follows a parity rule enforced
by the types: the product of two reflectors (or two rotators) is a
rotator, while a mixed product is a reflector.  Sums of mixed shapes are
deliberately not provided.

The quaternion-valued trace of a rotator is the sum of its diagonal
blocks; the trace of any reflector is zero.  Under a similarity transform
by a rotator with unit-modulus blocks the temporal part of the trace is
invariant (the full quaternion trace is merely conjugated), which is the
statement inherited by the 4x4 scalar trace.

The constructors check that both entries are quaternions or scalars.  The
results of block arithmetic are built unchecked from the quaternions that
the arithmetic returns.
"""

from __future__ import annotations

from .quaternion import _SCALARS, ONE, Quat, _max_abs

__all__ = [
    "Reflector",
    "Rotator",
    "similarity",
    "block_power",
    "identity_rotator",
]


def _as_quat(x) -> Quat:
    if isinstance(x, Quat):
        return x
    if isinstance(x, _SCALARS):
        return Quat(x)
    raise TypeError("block entries must be quaternions or scalars, got %r" % (x,))


class _Block:
    __slots__ = ("upper", "lower")

    def __init__(self, upper, lower):
        self.upper = _as_quat(upper)
        self.lower = _as_quat(lower)

    @classmethod
    def _of(cls, upper: Quat, lower: Quat):
        """Unchecked constructor for results of block arithmetic, whose
        entries are already quaternions."""
        b = object.__new__(cls)
        b.upper = upper
        b.lower = lower
        return b

    def __repr__(self):
        return "%s(%r, %r)" % (type(self).__name__, self.upper, self.lower)

    def __eq__(self, other):
        if isinstance(other, _Block):
            return (
                type(self) is type(other)
                and self.upper == other.upper
                and self.lower == other.lower
            )
        return NotImplemented

    def __hash__(self):
        return hash((type(self).__name__, self.upper, self.lower))

    def __add__(self, other):
        if type(other) is type(self):
            return self._of(self.upper + other.upper, self.lower + other.lower)
        if isinstance(other, _Block):
            raise TypeError("cannot add blocks of different shape")
        return NotImplemented

    def __sub__(self, other):
        if type(other) is type(self):
            return self._of(self.upper - other.upper, self.lower - other.lower)
        if isinstance(other, _Block):
            raise TypeError("cannot subtract blocks of different shape")
        return NotImplemented

    def __neg__(self):
        return self._of(-self.upper, -self.lower)

    def __rmul__(self, other):
        # scalar * block; scalars multiply both blocks
        if isinstance(other, _SCALARS):
            return self._of(self.upper * other, self.lower * other)
        return NotImplemented

    def quat_conj(self):
        """Entrywise quaternion conjugation; shape is preserved."""
        return self._of(self.upper.quat_conj(), self.lower.quat_conj())

    def complex_conj(self):
        """Entrywise complex conjugation; shape is preserved."""
        return self._of(self.upper.complex_conj(), self.lower.complex_conj())

    def max_abs(self) -> float:
        """Largest component modulus of both blocks; NaN when any is NaN."""
        return _max_abs(self.upper.components + self.lower.components)


class Rotator(_Block):
    """Diagonal block matrix [[upper, 0], [0, lower]]."""

    def __mul__(self, other):
        if isinstance(other, Rotator):
            return Rotator._of(self.upper * other.upper, self.lower * other.lower)
        if isinstance(other, Reflector):
            return Reflector._of(self.upper * other.upper, self.lower * other.lower)
        if isinstance(other, _SCALARS):
            return Rotator._of(self.upper * other, self.lower * other)
        return NotImplemented

    def inverse(self) -> "Rotator":
        return Rotator._of(self.upper.inverse(), self.lower.inverse())

    def trace(self) -> Quat:
        """Sum of the diagonal quaternion blocks."""
        return self.upper + self.lower


class Reflector(_Block):
    """Anti-diagonal block matrix [[0, upper], [lower, 0]]."""

    def __mul__(self, other):
        if isinstance(other, Reflector):
            return Rotator._of(self.upper * other.lower, self.lower * other.upper)
        if isinstance(other, Rotator):
            return Reflector._of(self.upper * other.lower, self.lower * other.upper)
        if isinstance(other, _SCALARS):
            return Reflector._of(self.upper * other, self.lower * other)
        return NotImplemented

    def inverse(self) -> "Reflector":
        return Reflector._of(self.lower.inverse(), self.upper.inverse())

    def trace(self) -> Quat:
        """The trace of any reflector is zero."""
        return Quat()


def identity_rotator() -> Rotator:
    return Rotator._of(ONE, ONE)


def similarity(x: _Block, r: Rotator) -> _Block:
    """Return r * x * r.quat_conj(); r must have invertible blocks."""
    if not isinstance(r, Rotator):
        raise TypeError("similarity transforms are taken with rotators")
    # verify invertibility loudly, propagating SingularQuaternion
    r.upper.inverse()
    r.lower.inverse()
    return r * x * r.quat_conj()


def block_power(r: Rotator, n: int) -> Rotator:
    """Integer power of a rotator; negative powers use block inverses."""
    if n < 0:
        return block_power(r.inverse(), -n)
    if n == 0:
        return identity_rotator()
    out = r
    for _ in range(n - 1):
        out = out * r
    return out
