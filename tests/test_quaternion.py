import cmath
import math

import numpy as np
import pytest

from qdirac.blocks import Reflector
from qdirac.quaternion import (
    BASIS,
    I1,
    I2,
    I3,
    ONE,
    Quat,
    SingularQuaternion,
    dot,
    from_matrix,
    to_matrix,
)
from qdirac.quaternion import _left_matrix, _right_matrix
from qdirac.spinor_maps import lift_G


def rand_quat(rng):
    return Quat(*(rng.uniform(-1, 1, 4) + 1j * rng.uniform(-1, 1, 4)))


def test_basis_multiplication_table():
    assert (I1 * I2 - I3).max_abs() == 0.0
    assert (I2 * I1 + I3).max_abs() == 0.0
    assert (I2 * I3 - I1).max_abs() == 0.0
    assert (I3 * I1 - I2).max_abs() == 0.0
    for basis in (I1, I2, I3):
        assert (basis * basis + ONE).max_abs() == 0.0


def test_identity_element():
    rng = np.random.default_rng(0)
    q = rand_quat(rng)
    assert (ONE * q - q).max_abs() == 0.0
    assert (q * ONE - q).max_abs() == 0.0


def test_conjugation_examples():
    assert (Quat(1, 1).quat_conj() - Quat(1, -1)).max_abs() == 0.0
    assert (I2.complex_conj() - I2).max_abs() == 0.0
    # i*i3 is fixed by the hermitian conjugation
    q = Quat(0, 0, 0, 1j)
    assert (q.herm_conj() - q).max_abs() == 0.0


def test_conjugation_formulas_and_composition():
    rng = np.random.default_rng(2)
    q = rand_quat(rng)
    q0, q1, q2, q3 = q.components
    assert q.quat_conj() == Quat(q0, -q1, -q2, -q3)
    c = [z.conjugate() for z in q.components]
    assert q.complex_conj() == Quat(*c)
    assert q.herm_conj() == Quat(c[0], -c[1], -c[2], -c[3])
    assert (q.quat_conj().complex_conj() - q.herm_conj()).max_abs() == 0.0
    assert (q.complex_conj().quat_conj() - q.herm_conj()).max_abs() == 0.0


def test_real_components_conjugations_coincide():
    rng = np.random.default_rng(4)
    q = Quat(*rng.uniform(-1, 1, 4))
    assert (q.quat_conj() - q.herm_conj()).max_abs() == 0.0


def test_dot_examples():
    assert dot(Quat(1, 0, 1), Quat(2, 0, 3)) == 5
    assert dot(I1, I2) == 0


def test_modulus_inverse_examples():
    q = Quat(1, 1)
    assert q.modulus() == 2
    assert (q.inverse() - Quat(0.5, -0.5)).max_abs() == 0.0
    assert ONE.modulus() == 1
    assert (ONE.inverse() - ONE).max_abs() == 0.0


def test_null_element_raises():
    null = Quat(1, 0, 0, 1j)
    assert null.modulus() == 0
    with pytest.raises(SingularQuaternion):
        null.inverse()


def test_inverse_roundtrip():
    rng = np.random.default_rng(6)
    for _ in range(200):
        q = rand_quat(rng)
        if abs(q.modulus()) < 0.1:
            continue
        assert (q.inverse() * q - ONE).max_abs() < 1e-12
        assert (q * q.inverse() - ONE).max_abs() < 1e-12


def test_temporal_spatial_split():
    q = Quat(2, 3)
    assert q.temporal == 2 and (q.spatial - Quat(0, 3)).max_abs() == 0.0
    assert I2.temporal == 0 and (I2.spatial - I2).max_abs() == 0.0
    rng = np.random.default_rng(7)
    q = rand_quat(rng)
    assert (Quat(q.temporal) + q.spatial - q).max_abs() == 0.0


def test_matrix_representation_basis():
    expected_i3 = np.array([[-1j, 0], [0, 1j]])
    assert np.max(np.abs(to_matrix(I3) - expected_i3)) == 0.0
    assert np.max(np.abs(to_matrix(ONE) - np.eye(2))) == 0.0
    expected_i1 = np.array([[0, -1j], [-1j, 0]])
    expected_i2 = np.array([[0, -1.0], [1.0, 0]])
    assert np.max(np.abs(to_matrix(I1) - expected_i1)) == 0.0
    assert np.max(np.abs(to_matrix(I2) - expected_i2)) == 0.0


def test_matrix_roundtrip():
    rng = np.random.default_rng(8)
    for _ in range(1000):
        q = rand_quat(rng)
        assert (from_matrix(to_matrix(q)) - q).max_abs() < 1e-14


def test_matrix_trace_is_twice_temporal():
    rng = np.random.default_rng(9)
    q = rand_quat(rng)
    assert abs(np.trace(to_matrix(q)) - 2 * q.temporal) < 1e-14


def test_nonfinite_components_rejected():
    with pytest.raises(ValueError):
        Quat(float("nan"))
    with pytest.raises(ValueError):
        Quat(0, float("inf"))


def test_finiteness_is_checked_at_entry_only():
    # a product of two quaternions is not checked: it overflows to inf
    big = Quat(1e200)
    product = big * big
    assert not cmath.isfinite(product.temporal)
    assert not cmath.isfinite((big.quat_conj() * big - ONE).temporal)
    # values that enter from outside are
    with pytest.raises(ValueError):
        Quat(float("inf"))
    with pytest.raises(ValueError):
        big * 1e200
    with pytest.raises(ValueError):
        lift_G(np.array([np.inf, 0.0]))
    with pytest.raises(ValueError):
        from_matrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_max_abs_keeps_nan():
    # (1, nan, 0, 0): max() over the moduli would drop the NaN and read 1.0
    x = Quat(0.0, 1e200) * Quat(1e200)
    gap = (x - x) + ONE
    assert gap.components[0] == 1.0 and math.isnan(gap.components[1].real)
    assert math.isnan(gap.max_abs())
    assert math.isnan(Reflector(ONE, gap).max_abs())
    assert Quat(1, -3j, 2).max_abs() == 3.0


def test_scalar_arithmetic():
    q = Quat(1, 2, 3, 4)
    assert ((2 * q) - Quat(2, 4, 6, 8)).max_abs() == 0.0
    assert ((q / 2) - Quat(0.5, 1, 1.5, 2)).max_abs() == 0.0
    assert ((q + 1) - Quat(2, 2, 3, 4)).max_abs() == 0.0
    assert ((1 - q) - Quat(0, -2, -3, -4)).max_abs() == 0.0


def test_basis_tuple():
    assert BASIS == (ONE, I1, I2, I3)


def test_multiplication_matrices_match_the_product():
    rng = np.random.default_rng(21)
    re, im = rng.uniform(-1, 1, (2, 3, 200, 4))
    a, b, q = re + 1j * im
    left = (_left_matrix(a) @ q[..., None])[..., 0]
    right = (_right_matrix(b) @ q[..., None])[..., 0]
    for k in range(len(q)):
        x, y, u = Quat(*a[k]), Quat(*b[k]), Quat(*q[k])
        assert np.max(np.abs(left[k] - (x * u).components)) < 1e-14
        assert np.max(np.abs(right[k] - (u * y).components)) < 1e-14
        by_matrix = from_matrix(to_matrix(x) @ to_matrix(u))
        assert np.max(np.abs(left[k] - by_matrix.components)) < 1e-14
        by_matrix = from_matrix(to_matrix(u) @ to_matrix(y))
        assert np.max(np.abs(right[k] - by_matrix.components)) < 1e-14
    # leading axes are batch axes
    stacked = a.reshape(10, 20, 4)
    assert _left_matrix(stacked).shape == (10, 20, 4, 4)
    assert np.array_equal(_right_matrix(stacked).reshape(200, 4, 4), _right_matrix(a))
