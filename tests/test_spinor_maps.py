import numpy as np
import pytest

from qdirac.quaternion import BASIS, I2, I3, ONE, Quat, dot, to_matrix
from qdirac.spinor_maps import (
    SIGMA,
    ideal_factor,
    ideal_project,
    lift_G,
    lift_L,
    map_F,
    map_N,
    quat_to_vec,
    vec_to_quat,
)


def rand_quat(rng, real=False):
    c = rng.uniform(-1, 1, 4)
    if not real:
        c = c + 1j * rng.uniform(-1, 1, 4)
    return Quat(*c)


def rand_col(rng):
    return rng.uniform(-1, 1, 2) + 1j * rng.uniform(-1, 1, 2)


def test_map_F_examples():
    assert np.array_equal(map_F(ONE), np.array([1, 0], dtype=complex))
    assert np.array_equal(map_F(Quat(0, 1)), np.array([0, -1j]))


def test_map_F_left_action():
    rng = np.random.default_rng(0)
    for _ in range(200):
        q, u = rand_quat(rng), rand_quat(rng)
        lhs = map_F(q * u)
        rhs = to_matrix(q) @ map_F(u)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_map_F_scalar_shift():
    rng = np.random.default_rng(1)
    for _ in range(200):
        q = rand_quat(rng)
        assert np.max(np.abs(map_F(q * (-I3)) - 1j * map_F(q))) < 1e-13
        assert np.max(np.abs(map_F(ideal_project(q)) - 2 * map_F(q))) < 1e-13


def test_lift_G_examples():
    assert (lift_G([1, 0]) - ONE).max_abs() == 0.0
    assert (lift_G([0, 1]) - I2).max_abs() == 0.0


def test_fg_identity():
    rng = np.random.default_rng(2)
    for _ in range(1000):
        v = rand_col(rng)
        assert np.max(np.abs(map_F(lift_G(v)) - v)) < 1e-14


def test_lift_G_real_components():
    rng = np.random.default_rng(3)
    for _ in range(200):
        for lifted in (lift_G(rand_col(rng)), lift_L(rand_col(rng))):
            assert max(abs(z.imag) for z in lifted.components) <= 1e-15


def test_lift_commutation_real_components():
    rng = np.random.default_rng(4)
    for _ in range(200):
        q = rand_quat(rng, real=True)
        mu = rng.integers(4)
        basis = BASIS[mu]
        col = to_matrix(basis) @ map_F(q)
        assert (lift_G(col) - basis * q).max_abs() < 1e-13
        assert (lift_G(1j * col) - basis * q * (-I3)).max_abs() < 1e-13


def test_gf_is_not_identity_but_agrees_on_ideal():
    q = Quat(1j, 0, 0, 0)
    assert (lift_G(map_F(q)) - q).max_abs() > 0.5
    rng = np.random.default_rng(5)
    factor = ideal_factor(1)
    for _ in range(200):
        q = rand_quat(rng)
        lhs = lift_G(map_F(q)) * factor
        assert (lhs - q * factor).max_abs() < 1e-13


def test_map_N_examples():
    assert np.array_equal(map_N(ONE), np.array([0, 1], dtype=complex))
    assert np.array_equal(map_N(I3), np.array([0, 1j]))


def test_nl_identity():
    rng = np.random.default_rng(6)
    for _ in range(1000):
        v = rand_col(rng)
        assert np.max(np.abs(map_N(lift_L(v)) - v)) < 1e-14


def test_bijection_examples_and_roundtrip():
    assert (vec_to_quat([1, 0, 0, 0]) - ONE).max_abs() == 0.0
    assert (vec_to_quat([1j, 2, 0, 0]) - Quat(1j, 2)).max_abs() == 0.0
    rng = np.random.default_rng(7)
    v = rng.uniform(-1, 1, 4) + 1j * rng.uniform(-1, 1, 4)
    assert np.max(np.abs(quat_to_vec(vec_to_quat(v)) - v)) == 0.0


def test_ideal_projection():
    assert (ideal_project(ONE) - Quat(1, 0, 0, 1j)).max_abs() == 0.0
    half = ideal_factor(1) * 0.5
    assert (half * half - half).max_abs() < 1e-16
    with pytest.raises(ValueError):
        ideal_factor(0)


def test_contraction_identities_real_components():
    rng = np.random.default_rng(8)
    for _ in range(300):
        q, u = rand_quat(rng, real=True), rand_quat(rng, real=True)
        fq, fu = map_F(q), map_F(u)
        for r in range(3):
            basis = BASIS[r + 1]
            vector_form = np.vdot(fq, to_matrix(basis) @ fu).real
            assert abs(vector_form - dot(q, basis * u)) < 1e-13
            pauli_form = np.vdot(fq, SIGMA[r] @ fu).real
            assert abs(pauli_form - dot(q, basis * u * (-I3))) < 1e-13


def test_sigma_matches_basis():
    for r in range(3):
        assert np.max(np.abs(SIGMA[r] - 1j * to_matrix(BASIS[r + 1]))) == 0.0
