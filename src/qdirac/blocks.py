"""Reflector and rotator block matrices over complexified quaternions.

A ``Reflector(upper, lower)`` denotes the anti-diagonal 2x2 block matrix
[[0, upper], [lower, 0]]; a ``Rotator(upper, lower)`` the diagonal one
[[upper, 0], [0, lower]].  Multiplication follows a parity rule enforced
by the types, with one home in ``_block_mul``: the product of two
reflectors (or two rotators) is a rotator, while a mixed product is a
reflector.  Sums of mixed shapes are deliberately not provided.

The quaternion-valued trace of a rotator is the sum of its diagonal
blocks; the trace of any reflector is zero.  Under a similarity transform
by a rotator with unit-modulus blocks the temporal part of the trace is
invariant (the full quaternion trace is merely conjugated), which is the
statement inherited by the 4x4 scalar trace.

The constructors check that both entries are quaternions or scalars.  The
results of block arithmetic are built unchecked from the quaternions that
the arithmetic returns.

Entries may be stacks of quaternions (see ``quaternion``); a block of
stacks is then a stack of blocks, which the products, sums, conjugations,
``inverse`` and ``block_power`` handle with the same code, and whose
``max_abs`` gives one value per member.  A scalar entry broadcasts against
a stack.
"""

from __future__ import annotations

import numpy as np

from .quaternion import _SCALARS, ONE, Quat, _max_abs

__all__ = [
    "Reflector",
    "Rotator",
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
    # ndarray * block calls _Block.__rmul__ instead of building an object array
    __array_ufunc__ = None

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

    def max_abs(self):
        """Largest component modulus of both blocks; NaN when any is NaN.  A
        stack gives one value per member."""
        return _max_abs(self.upper.components + self.lower.components)


class Rotator(_Block):
    """Diagonal block matrix [[upper, 0], [0, lower]]."""

    def inverse(self) -> "Rotator":
        return Rotator._of(self.upper.inverse(), self.lower.inverse())

    def trace(self) -> Quat:
        """Sum of the diagonal quaternion blocks."""
        return self.upper + self.lower


class Reflector(_Block):
    """Anti-diagonal block matrix [[0, upper], [lower, 0]]."""

    def inverse(self) -> "Reflector":
        return Reflector._of(self.lower.inverse(), self.upper.inverse())

    def trace(self) -> Quat:
        """The trace of any reflector is zero: one zero per member of a stack."""
        shapes = np.shape(self.upper.temporal), np.shape(self.lower.temporal)
        return Quat(np.zeros(np.broadcast_shapes(*shapes)))


def _block_mul(self, other):
    """The parity rule: like shapes multiply to a rotator and mixed shapes
    to a reflector; a reflector on the left meets the other block's entries
    crossed.  A scalar multiplies both entries."""
    if isinstance(other, _Block):
        crossed = isinstance(self, Reflector)
        kind = Rotator if crossed == isinstance(other, Reflector) else Reflector
        if crossed:
            return kind._of(self.upper * other.lower, self.lower * other.upper)
        return kind._of(self.upper * other.upper, self.lower * other.lower)
    if isinstance(other, _SCALARS):
        return self._of(self.upper * other, self.lower * other)
    return NotImplemented


# one function bound on each class rather than inherited from _Block: the
# layer tracer of the benchmark counts block products under the
# class-qualified names Rotator.__mul__ and Reflector.__mul__
Rotator.__mul__ = Reflector.__mul__ = _block_mul


def identity_rotator() -> Rotator:
    return Rotator._of(ONE, ONE)


def block_power(r: Rotator, n: int) -> Rotator:
    """Integer power of a rotator, or of each member of a stack of rotators;
    negative powers use block inverses.  The zeroth power is the identity,
    of the stack's shape for a stack."""
    if n < 0:
        return block_power(r.inverse(), -n)
    if n == 0:
        one = Quat((r.upper.temporal * r.lower.temporal) ** 0)
        return Rotator._of(one, one)
    out = r
    for _ in range(n - 1):
        out = out * r
    return out
