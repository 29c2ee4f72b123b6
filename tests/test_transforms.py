import math

import numpy as np
import pytest

from qdirac.blocks import Reflector
from qdirac.harness import (
    boost_matrix4,
    minkowski_to_quat,
    quat_to_minkowski,
    rotation_matrix4,
    temporal_rotation_matrix4,
)
from qdirac.quaternion import I1, I2, I3, ONE, Quat
from qdirac.transforms import (
    ROTATION_PATTERNS,
    TransformSpec,
    four_vector_transform,
    pattern_rotate,
    rotor_blocks,
    rotor_boost,
    rotor_spatial,
)


def rand_unit3(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def euclid_quat(rng):
    u = rng.uniform(-1, 1, 4)
    return Quat(1j * u[0], u[1], u[2], u[3])


def test_rotor_spatial_examples():
    assert (rotor_spatial([0, 0, 1.0], 0.0) - ONE).max_abs() == 0.0
    assert (rotor_spatial([0, 0, 1.0], math.pi) - I3).max_abs() < 1e-15
    with pytest.raises(ValueError):
        rotor_spatial([0, 0, 2.0], 0.3)


def test_rotor_boost_structure():
    rng = np.random.default_rng(1)
    assert (rotor_boost([1.0, 0, 0], 0.0) - ONE).max_abs() == 0.0
    for _ in range(100):
        r = rotor_boost(rand_unit3(rng), rng.uniform(-2, 2))
        assert abs(r.modulus() - 1.0) < 1e-12
        c = r.components
        assert abs(c[0].imag) == 0.0
        assert all(abs(z.real) < 1e-15 for z in c[1:])


def test_boost_unit_time_vector():
    w = 0.85
    boost = rotor_boost([1.0, 0, 0], w)
    out = quat_to_minkowski(four_vector_transform(minkowski_to_quat([1, 0, 0, 0]), boost))
    assert np.max(np.abs(out - [math.cosh(w), math.sinh(w), 0, 0])) < 1e-12


def test_pattern_examples():
    xi = 0.8
    r = rotor_spatial([0, 0, 1.0], xi)
    out = pattern_rotate("RQRc", r, I1)
    expected = I1 * math.cos(xi) + I2 * math.sin(xi)
    assert (out - expected).max_abs() < 1e-14
    out = pattern_rotate("RQR", r, ONE)
    expected = ONE * math.cos(xi) + I3 * math.sin(xi)
    assert (out - expected).max_abs() < 1e-14
    for pattern in ROTATION_PATTERNS:
        q = Quat(0.3, -0.2, 0.9, 0.1)
        assert (pattern_rotate(pattern, ONE, q) - q).max_abs() == 0.0
    with pytest.raises(ValueError):
        pattern_rotate("QQ", r, I1)


def test_four_vector_transform_matches_matrices():
    rng = np.random.default_rng(3)
    for _ in range(200):
        q = euclid_quat(rng)
        axis = rand_unit3(rng)
        angle = rng.uniform(0, math.pi)
        got = quat_to_minkowski(four_vector_transform(q, rotor_spatial(axis, angle)))
        want = rotation_matrix4(axis, angle) @ quat_to_minkowski(q)
        assert np.max(np.abs(got - want)) < 1e-12
        w = rng.uniform(-2, 2)
        got = quat_to_minkowski(four_vector_transform(q, rotor_boost(axis, w)))
        want = boost_matrix4(axis, w) @ quat_to_minkowski(q)
        assert np.max(np.abs(got - want)) < 1e-11


def test_boost_interval_and_inverse():
    rng = np.random.default_rng(4)
    for _ in range(200):
        q = euclid_quat(rng)
        v = quat_to_minkowski(q)
        axis, w = rand_unit3(rng), rng.uniform(-2, 2)
        moved = four_vector_transform(q, rotor_boost(axis, w))
        v2 = quat_to_minkowski(moved)
        assert abs((v[0] ** 2 - v[1:] @ v[1:]) - (v2[0] ** 2 - v2[1:] @ v2[1:])) < 1e-11
        back = four_vector_transform(moved, rotor_boost(axis, -w))
        assert (back - q).max_abs() < 1e-12


def test_composition_laws():
    rng = np.random.default_rng(5)
    for _ in range(100):
        q = euclid_quat(rng)
        r1 = rotor_spatial(rand_unit3(rng), rng.uniform(0, math.pi))
        r2 = rotor_spatial(rand_unit3(rng), rng.uniform(0, math.pi))
        step = four_vector_transform(four_vector_transform(q, r1), r2)
        assert (step - four_vector_transform(q, r2 * r1)).max_abs() < 1e-12
        axis = rand_unit3(rng)
        w1, w2 = rng.uniform(-2, 2, 2)
        step = four_vector_transform(
            four_vector_transform(q, rotor_boost(axis, w1)), rotor_boost(axis, w2)
        )
        combined = rotor_boost(axis, w1 + w2)
        assert (step - four_vector_transform(q, combined)).max_abs() < 1e-11


def test_rotor_blocks_shapes_and_equivalence():
    rng = np.random.default_rng(6)
    spatial = rotor_spatial([0, 1.0, 0], 1.2)
    r, rc = rotor_blocks(spatial)
    assert (r.upper - spatial).max_abs() == 0.0
    assert (r.lower - spatial).max_abs() == 0.0
    boost = rotor_boost([0, 1.0, 0], 0.7)
    rb, _ = rotor_blocks(boost)
    assert (rb.lower - boost.quat_conj()).max_abs() == 0.0
    for rotor in (spatial, boost):
        r, rc = rotor_blocks(rotor)
        q = euclid_quat(rng)
        moved = r * Reflector(q, q.quat_conj()) * rc
        direct = four_vector_transform(q, rotor)
        assert (moved.upper - direct).max_abs() < 1e-13
        assert (moved.lower - direct.quat_conj()).max_abs() < 1e-13


def test_rotation_then_boost_is_one_rotor():
    # a z-rotation followed by an x-boost is neither a rotation nor a boost
    angle, w = 0.7, 0.9
    rotor = rotor_boost([1.0, 0, 0], w) * rotor_spatial([0, 0, 1.0], angle)
    want = boost_matrix4([1.0, 0, 0], w) @ rotation_matrix4([0, 0, 1.0], angle)
    r, rc = rotor_blocks(rotor)
    for k in range(4):
        q = minkowski_to_quat(np.eye(4)[k])
        moved = four_vector_transform(q, rotor)
        assert np.max(np.abs(quat_to_minkowski(moved) - want[:, k])) < 1e-14
        blocks = r * Reflector(q, q.quat_conj()) * rc
        assert (blocks.upper - moved).max_abs() < 1e-14
        assert (blocks.lower - moved.quat_conj()).max_abs() < 1e-14


def test_temporal_rotation_matrix_sign():
    # about z by t: the temporal axis turns toward +z, and +z toward -t
    t = 0.3
    c, s = math.cos(t), math.sin(t)
    want = np.array([[c, 0, 0, -s], [0, 1, 0, 0], [0, 0, 1, 0], [s, 0, 0, c]])
    assert np.max(np.abs(temporal_rotation_matrix4([0, 0, 1.0], t) - want)) < 1e-15


def test_rotor_laws_reject_non_unit_rotors():
    for rotor in (Quat(2.0), Quat(1, 0.5, 0, 0)):
        with pytest.raises(ValueError, match="unit modulus"):
            four_vector_transform(I1, rotor)
        with pytest.raises(ValueError, match="unit modulus"):
            rotor_blocks(rotor)
    # a product of unit rotors is within the tolerance
    rotor = rotor_boost([1.0, 0, 0], 2.0) * rotor_spatial([0, 1.0, 0], 3.0)
    four_vector_transform(I1, rotor)
    rotor_blocks(rotor)


def test_transform_spec_requires_integral_n():
    rotor = rotor_spatial([0, 0, 1.0], 0.4)
    with pytest.raises(ValueError, match="integer"):
        TransformSpec(rotor, 1.5)
    spec = TransformSpec(rotor, np.int64(2))
    assert spec.n == 2 and type(spec.n) is int
