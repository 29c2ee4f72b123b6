import math

import numpy as np
import pytest

from qdirac.blocks import Reflector, Rotator
from qdirac.harness import (
    boost_matrix4,
    minkowski_to_quat,
    quat_to_minkowski,
    rotation_matrix4,
)
from qdirac.quaternion import I1, I2, I3, ONE, Quat
from qdirac.transforms import (
    ROTATION_PATTERNS,
    DegenerateProjection,
    discrete_elements,
    four_vector_transform,
    measure_plane_angles,
    pattern_rotate,
    plane_angle,
    rotor_angle,
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


def test_rotor_angle_roundtrip():
    rng = np.random.default_rng(0)
    for _ in range(200):
        angle = rng.uniform(0.01, math.pi - 0.01)
        assert abs(rotor_angle(rotor_spatial(rand_unit3(rng), angle)) - angle) < 1e-12


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


def test_measure_plane_angles_examples():
    xi = 0.6
    r = rotor_spatial([0, 0, 1.0], xi)
    moved = pattern_rotate("RQRc", r, I1)
    xs, xt = measure_plane_angles(r, I1, moved)
    assert abs(xs - xi) < 1e-12
    assert xt is None  # i1 has no temporal-plane projection
    moved = pattern_rotate("RQR", r, ONE)
    xs, xt = measure_plane_angles(r, ONE, moved)
    assert xs is None
    assert abs(xt - xi) < 1e-12
    q = Quat(0.5, 0.3, -0.4, 0.8)
    xs, xt = measure_plane_angles(r, q, q)
    assert abs(xs) < 1e-12 and abs(xt) < 1e-12


def test_plane_angle_degenerate():
    r = rotor_spatial([0, 0, 1.0], 0.5)
    with pytest.raises(DegenerateProjection):
        plane_angle(r, I1, I1, "temporal")
    with pytest.raises(DegenerateProjection):
        plane_angle(ONE, I1, I1, "spatial")


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


def test_discrete_elements():
    b, e = discrete_elements("parity")
    assert isinstance(b, Reflector) and isinstance(e, Rotator)
    assert (b.upper - ONE).max_abs() == 0.0 and (b.lower - ONE).max_abs() == 0.0
    b, e = discrete_elements("time_reversal")
    assert isinstance(b, Rotator) and isinstance(e, Reflector)
    assert (b.upper + ONE).max_abs() == 0.0 and (b.lower - ONE).max_abs() == 0.0
    t = discrete_elements("charge_conjugation")
    assert t == Rotator(I2, I2)
    with pytest.raises(ValueError):
        discrete_elements("chirality")


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


def _numpy_plane_angle(r, q, q_after, plane, tol=1e-9):
    """The numpy implementation that ``plane_angle`` replaced, as a reference."""

    def real_vec4(x):
        c = np.array(x.components)
        scale = max(1.0, float(np.max(np.abs(c))))
        if float(np.max(np.abs(c.imag))) > 1e-9 * scale:
            raise ValueError("expected a quaternion with real components")
        return c.real

    v = real_vec4(r)[1:]
    norm = np.linalg.norm(v)
    if norm < 1e-12:
        raise DegenerateProjection("rotor has no spatial direction")
    axis = v / norm
    a, b = real_vec4(q), real_vec4(q_after)
    if plane == "temporal":
        pa = np.array([a[0], a[1:] @ axis])
        pb = np.array([b[0], b[1:] @ axis])
    elif plane == "spatial":
        e = np.zeros(3)
        e[int(np.argmin(np.abs(axis)))] = 1.0
        v1 = np.cross(axis, e)
        v1 /= np.linalg.norm(v1)
        v2 = np.cross(axis, v1)
        pa = np.array([a[1:] @ v1, a[1:] @ v2])
        pb = np.array([b[1:] @ v1, b[1:] @ v2])
    else:
        raise ValueError("plane must be 'temporal' or 'spatial'")
    if np.linalg.norm(pa) < tol or np.linalg.norm(pb) < tol:
        raise DegenerateProjection("projection onto the %s plane is degenerate" % plane)
    d = math.atan2(pb[1], pb[0]) - math.atan2(pa[1], pa[0])
    return math.atan2(math.sin(d), math.cos(d))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (DegenerateProjection, ValueError) as exc:
        return type(exc)


def test_plane_angle_matches_numpy_reference():
    rng = np.random.default_rng(7)
    # axes along the basis and with tied components exercise the frame choice
    axes = [np.eye(3)[k] for k in range(3)]
    axes += [np.array(v) / 6**0.5 for v in ((1.0, 1.0, 2.0), (-2.0, 1.0, -1.0))]
    for draw in range(2000):
        axis = axes[draw] if draw < len(axes) else rand_unit3(rng)
        r = rotor_spatial(axis, rng.uniform(0.05, math.pi - 0.05))
        q = Quat(*rng.uniform(-1, 1, 4))
        q_after = pattern_rotate(ROTATION_PATTERNS[draw % 8], r, q)
        for plane in ("spatial", "temporal"):
            for tol in (1e-9, 0.05):
                want = _outcome(_numpy_plane_angle, r, q, q_after, plane, tol)
                got = _outcome(plane_angle, r, q, q_after, plane, tol)
                if isinstance(want, float):
                    assert abs(got - want) <= 1e-14
                else:
                    assert got is want


def _in_plane_quat(axis, plane, s, rng):
    """A real quaternion whose projection into ``plane`` has length s."""
    theta = rng.uniform(-math.pi, math.pi)
    frame = np.linalg.svd(axis[None, :])[2][1:]  # orthonormal pair normal to axis
    off = rng.uniform(-1, 1)
    if plane == "temporal":
        vec = s * math.sin(theta) * axis + off * frame[0]
        return Quat(s * math.cos(theta), *vec)
    vec = off * axis + s * (math.cos(theta) * frame[0] + math.sin(theta) * frame[1])
    return Quat(rng.uniform(-1, 1), *vec)


def test_plane_angle_raises_where_numpy_reference_raises():
    rng = np.random.default_rng(8)
    tol = 0.05
    for _ in range(300):
        axis = rand_unit3(rng)
        r = rotor_spatial(axis, rng.uniform(0.05, math.pi - 0.05))
        for plane in ("spatial", "temporal"):
            for factor in (1 - 1e-9, 1 + 1e-9):
                q = _in_plane_quat(axis, plane, tol * factor, rng)
                want = _outcome(_numpy_plane_angle, r, q, q, plane, tol)
                got = _outcome(plane_angle, r, q, q, plane, tol)
                degenerate = DegenerateProjection if factor < 1 else 0.0
                assert want == degenerate and got == degenerate
    r = rotor_spatial([0, 0, 1.0], 0.5)
    q = Quat(0.3, 0.2, -0.5, 0.4)
    for imag, expected in ((1e-8, ValueError), (1e-10, 0.0)):
        noisy = Quat(0.3, 0.2 + 1j * imag, -0.5, 0.4)
        for fn in (_numpy_plane_angle, plane_angle):
            assert _outcome(fn, r, noisy, q, "spatial") == expected
    boost = rotor_boost([0, 0, 1.0], 0.5)
    for fn in (_numpy_plane_angle, plane_angle):
        assert _outcome(fn, boost, q, q, "spatial") is ValueError
        assert _outcome(fn, r, q, q, "diagonal") is ValueError
        assert _outcome(fn, ONE, q, q, "diagonal") is DegenerateProjection
