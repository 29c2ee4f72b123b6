import numpy as np
import pytest

from qdirac.blocks import (
    Reflector,
    Rotator,
    block_power,
    identity_rotator,
    similarity,
)
from qdirac.harness import embed4
from qdirac.quaternion import I1, ONE, Quat, SingularQuaternion, to_matrix
from qdirac.transforms import rotor_blocks, rotor_boost, rotor_spatial


def rand_quat(rng):
    return Quat(*(rng.uniform(-1, 1, 4) + 1j * rng.uniform(-1, 1, 4)))


def rand_invertible(rng):
    while True:
        q = rand_quat(rng)
        if abs(q.modulus()) > 0.1:
            return q


def test_swap_product_example():
    rng = np.random.default_rng(0)
    q, u = rand_quat(rng), rand_quat(rng)
    out = Reflector(ONE, ONE) * Reflector(q, u)
    assert isinstance(out, Rotator)
    assert (out.upper - u).max_abs() == 0.0
    assert (out.lower - q).max_abs() == 0.0


def test_identity_rotator_neutral():
    rng = np.random.default_rng(1)
    for cls in (Reflector, Rotator):
        x = cls(rand_quat(rng), rand_quat(rng))
        assert (identity_rotator() * x - x).max_abs() == 0.0
        assert (x * identity_rotator() - x).max_abs() == 0.0


def test_parity_rule_types():
    rng = np.random.default_rng(2)
    refl = lambda: Reflector(rand_quat(rng), rand_quat(rng))
    rot = lambda: Rotator(rand_quat(rng), rand_quat(rng))
    assert isinstance(refl() * refl(), Rotator)
    assert isinstance(rot() * refl(), Reflector)
    assert isinstance(refl() * rot(), Reflector)
    assert isinstance(rot() * rot(), Rotator)
    assert isinstance(refl() * refl() * refl(), Reflector)
    assert isinstance(refl() * refl() * refl() * refl(), Rotator)


def test_block_conj_examples():
    x = Reflector(I1, ONE).quat_conj()
    assert isinstance(x, Reflector)
    assert (x.upper + I1).max_abs() == 0.0
    assert (x.lower - ONE).max_abs() == 0.0
    rng = np.random.default_rng(4)
    r = rand_quat(rng)
    y = Rotator(r, r.quat_conj()).quat_conj()
    assert (y.upper - r.quat_conj()).max_abs() == 0.0
    assert (y.lower - r).max_abs() == 0.0
    z = Rotator(r, I1 * 1j).complex_conj()
    assert isinstance(z, Rotator)
    assert (z.upper - r.complex_conj()).max_abs() == 0.0
    assert (z.lower + I1 * 1j).max_abs() == 0.0


def test_block_trace():
    rng = np.random.default_rng(6)
    q, u = rand_quat(rng), rand_quat(rng)
    assert (Rotator(q, u).trace() - (q + u)).max_abs() == 0.0
    assert Reflector(q, u).trace().max_abs() == 0.0
    # scalar trace of the embedding is twice the temporal part of the trace
    x = Rotator(q, u)
    assert abs(np.trace(embed4(x)) - 2 * x.trace().temporal) < 1e-13


def test_similarity_identity_and_trace_invariance():
    rng = np.random.default_rng(8)
    x = Rotator(rand_quat(rng), rand_quat(rng))
    assert (similarity(x, identity_rotator()) - x).max_abs() == 0.0
    for rotor in (rotor_spatial([0, 0, 1.0], 0.9), rotor_boost([0, 1.0, 0], 1.1)):
        r, _ = rotor_blocks(rotor)
        y = similarity(x, r)
        assert abs(y.trace().temporal - x.trace().temporal) < 1e-12
        assert abs(y.upper.temporal - x.upper.temporal) < 1e-12
        assert abs(y.lower.temporal - x.lower.temporal) < 1e-12


def test_reflector_equation_invariance():
    rng = np.random.default_rng(9)
    for _ in range(100):
        q, p = rand_invertible(rng), rand_invertible(rng)
        qq = Reflector(q, q.quat_conj())
        pp = Reflector(p, p.quat_conj())
        ww = pp.inverse() * qq * pp
        assert (qq * pp - pp * ww).max_abs() < 1e-11
        r, _ = rotor_blocks(rotor_boost([1.0, 0, 0], 0.7))
        qq2, pp2, ww2 = (similarity(x, r) for x in (qq, pp, ww))
        assert (qq2 * pp2 - pp2 * ww2).max_abs() < 1e-10


def test_block_inverse():
    rng = np.random.default_rng(10)
    for cls in (Reflector, Rotator):
        x = cls(rand_invertible(rng), rand_invertible(rng))
        ident = embed4(identity_rotator())
        assert np.max(np.abs(embed4(x.inverse() * x) - ident)) < 1e-12
        assert np.max(np.abs(embed4(x * x.inverse()) - ident)) < 1e-12


def test_similarity_requires_invertible_blocks():
    null = Quat(1, 0, 0, 1j)
    with pytest.raises(SingularQuaternion):
        similarity(Reflector(ONE, ONE), Rotator(null, ONE))
    with pytest.raises(TypeError):
        similarity(Reflector(ONE, ONE), Reflector(ONE, ONE))


def test_mixed_shape_sums_rejected():
    with pytest.raises(TypeError):
        Reflector(ONE, ONE) + Rotator(ONE, ONE)
    with pytest.raises(TypeError):
        Rotator(ONE, ONE) - Reflector(ONE, ONE)


def test_block_power():
    rng = np.random.default_rng(11)
    r, _ = rotor_blocks(rotor_boost([0, 0, 1.0], 0.8))
    ident = embed4(identity_rotator())
    two = block_power(r, 2)
    assert np.max(np.abs(embed4(two) - embed4(r) @ embed4(r))) < 1e-12
    undo = block_power(r, -1) * r
    assert np.max(np.abs(embed4(undo) - ident)) < 1e-12
    assert np.max(np.abs(embed4(block_power(r, 0)) - ident)) == 0.0


def test_embed4_matches_block_reference():
    rng = np.random.default_rng(9)
    z = np.zeros((2, 2), dtype=complex)
    for _ in range(50):
        u, l = rand_quat(rng), rand_quat(rng)
        up, lo = to_matrix(u), to_matrix(l)
        assert embed4(Rotator(u, l)).tobytes() == np.block([[up, z], [z, lo]]).tobytes()
        assert embed4(Reflector(u, l)).tobytes() == np.block([[z, up], [lo, z]]).tobytes()


def test_blocks_accept_numpy_scalars():
    # the scalars Quat accepts: Python and numpy ints, floats and complexes
    assert Reflector(np.int64(1), 1.0) == Reflector(ONE, ONE)
    assert Rotator(np.float64(2.0), np.complex128(1j)) == Rotator(Quat(2.0), Quat(1j))
    assert Reflector(ONE, I1) * np.float64(2.0) == Reflector(Quat(2.0), Quat(0, 2.0))
    with pytest.raises(TypeError):
        Reflector("1", 1.0)
