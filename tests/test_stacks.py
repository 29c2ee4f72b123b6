"""Stacks of trials through the quaternion, block, transform and dirac
layers, against one call per trial."""

import math

import numpy as np
import pytest

from qdirac import dirac as dr
from qdirac import spinor_maps as sm
from qdirac.blocks import Reflector, Rotator, block_power
from qdirac.harness import SuiteConfig, run_suite
from qdirac.quaternion import ONE, Quat, SingularQuaternion, _of
from qdirac.transforms import (
    TransformSpec,
    four_vector_transform,
    rotor_blocks,
    rotor_boost,
    rotor_spatial,
)

COUNT = 12
# NumPy's complex multiply fuses a multiply and an add where Python's does
# not, so a stack and a call per trial agree to rounding, not bitwise
REL = 1e-14


def test_one_member_stack_stays_a_stack():
    # complex() refuses an array of one or more dimensions, even of one entry
    assert Quat(np.array([1.0]), 0, 0, 0).max_abs().shape == (1,)
    assert sm.lift_G(np.ones((1, 2))).max_abs().shape == (1,)
    # so a one-trial run stacks each case's trials as a one-member stack
    assert run_suite(SuiteConfig(suite="all", trials=1)).passed


def _unit3(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def _quats(quats):
    """The stack of a list of quaternions."""
    return Quat(*np.array([q.components for q in quats]).T)


def _draws(seed=0):
    """COUNT trials: fields with potentials, momenta, amplitudes, and rotors
    that alternate between rotations and boosts."""
    rng = np.random.default_rng(seed)
    fields = [
        dr.FieldData(rng.uniform(0.1, 2.0), rng.uniform(-1, 1, 4)) for _ in range(COUNT)
    ]
    momenta = rng.uniform(-2, 2, (COUNT, 3))
    psi = rng.uniform(-1, 1, (COUNT, 4)) + 1j * rng.uniform(-1, 1, (COUNT, 4))
    rotors = [
        rotor_spatial(_unit3(rng), rng.uniform(0, math.pi))
        if k % 2 == 0
        else rotor_boost(_unit3(rng), rng.uniform(-2, 2))
        for k in range(COUNT)
    ]
    stacked = dr.FieldData(
        np.array([fd.mass for fd in fields]), np.array([fd.potential for fd in fields])
    )
    return fields, stacked, momenta, psi, rotors


def _components(x) -> np.ndarray:
    """Every complex component of a quaternion, block, pair or state, along
    the last axis."""
    if isinstance(x, Quat):
        return np.stack(np.broadcast_arrays(*x.components), axis=-1)
    if isinstance(x, (Reflector, Rotator)):
        return np.concatenate([_components(x.upper), _components(x.lower)], axis=-1)
    if isinstance(x, dr.BispinorPair):
        return np.concatenate([_components(x.phi1), _components(x.phi2)], axis=-1)
    if isinstance(x, dr.DiracState):
        parts = (x.d, x.a, x.phi, x.m)
        return np.concatenate([_components(part) for part in parts], axis=-1)
    if isinstance(x, tuple):
        return np.concatenate([_components(part) for part in x], axis=-1)
    return np.asarray(x)


def _assert_matches(stack, items, scale=None):
    """The stack agrees with the per-trial results to REL of ``scale``, by
    default their size, and has their block shapes."""
    for item in items:
        assert type(item) is type(stack)
        if isinstance(item, dr.DiracState):
            assert type(item.phi) is type(stack.phi)
    want = np.stack([_components(item) for item in items])
    got = np.broadcast_to(_components(stack), want.shape)
    if scale is None:
        scale = np.max(np.abs(want))
    assert np.max(np.abs(got - want)) <= REL * scale


def _residual_scale(states) -> float:
    """The size of the terms that cancel in the residuals of ``states``:
    (|D| + |A| + |M|) |Phi|."""
    size = [max(np.max(np.abs(_components(b))) for b in bs) for bs in zip(*(
        (s.d, s.a, s.m, s.phi) for s in states))]
    return (size[0] + size[1] + size[2]) * size[3]


def test_stacked_quaternion_arithmetic_matches_per_item():
    rng = np.random.default_rng(5)
    comps = rng.uniform(-1, 1, (2, COUNT, 4)) + 1j * rng.uniform(-1, 1, (2, COUNT, 4))
    a, b = ([Quat(*c) for c in draws] for draws in comps)
    sa, sb = _quats(a), _quats(b)
    scale = rng.uniform(-2, 2, COUNT)
    for op in (
        lambda x, y: x * y,
        lambda x, y: x + y - 2.0 * x,
        lambda x, y: (-x).herm_conj() * y.complex_conj(),
        lambda x, y: x.quat_conj().spatial,
        lambda x, y: x.inverse() * y,
    ):
        _assert_matches(op(sa, sb), [op(x, y) for x, y in zip(a, b)])
    _assert_matches(scale * sa, [s * x for s, x in zip(scale, a)])
    _assert_matches(sa * scale + scale, [x * s + s for s, x in zip(scale, a)])
    _assert_matches(sa / scale, [x / s for s, x in zip(scale, a)])
    # NumPy's and Python's complex moduli may differ in the last bit
    for got, want in (
        (sa.max_abs(), [x.max_abs() for x in a]),
        ((sa * ONE).max_abs(), [x.max_abs() for x in a]),
        (sa.modulus(), [x.modulus() for x in a]),
    ):
        assert got.shape == (COUNT,)
        assert np.max(np.abs(got - want)) <= REL * np.max(np.abs(want))


def test_stacked_maps_match_per_item():
    _, _, _, psi, rotors = _draws(6)
    columns, quats = psi[:, :2], [Quat(*x) for x in psi]
    for lift, project in ((sm.lift_G, sm.map_F), (sm.lift_L, sm.map_N)):
        _assert_matches(lift(columns), [lift(x) for x in columns])
        _assert_matches(project(_quats(quats)), [project(q) for q in quats])
    _assert_matches(sm.vec_to_quat(psi), quats)
    _assert_matches(sm.quat_to_vec(_quats(quats)), psi)
    # four stacked columns are four quaternions, not the transposed stack
    _assert_matches(sm.vec_to_quat(psi[:4]), quats[:4])


def test_stacked_hamiltonian_and_modes_are_bitwise():
    fields, stacked, momenta, _, _ = _draws(1)
    h = dr.dirac_hamiltonian(momenta, stacked)
    assert h.shape == (COUNT, 4, 4)
    for k, (fd, p) in enumerate(zip(fields, momenta)):
        assert h[k].tobytes() == dr.dirac_hamiltonian(p, fd).tobytes()
    for p, fd in ((momenta, stacked), (np.zeros(3), stacked), (momenta, fields[0])):
        modes = dr.plane_wave_modes(p, fd)
        for k in range(COUNT):
            fd_k = fields[k] if fd is stacked else fd
            p_k = p[k] if p.ndim == 2 else p
            for mode, single in zip(modes, dr.plane_wave_modes(p_k, fd_k)):
                assert mode.energy[k] == single.energy
                assert mode.momentum[k].tobytes() == single.momentum.tobytes()
                assert mode.amplitude[k].tobytes() == single.amplitude.tobytes()


def test_stacked_pairs_match_per_item():
    fields, stacked, momenta, psi, _ = _draws(2)
    for lift in ("G", "L"):
        pairs = dr.spinor_to_pair(psi, lift)
        _assert_matches(pairs, [dr.spinor_to_pair(x, lift) for x in psi])
        back = dr.pair_to_spinor(pairs)
        want = [dr.pair_to_spinor(dr.spinor_to_pair(x, lift)) for x in psi]
        _assert_matches(back, want)
    energy = np.linspace(-2.0, 2.0, COUNT)
    mode = dr.PlaneWaveMode(energy, momenta, psi)
    got = dr.pair_residual(dr.spinor_to_pair(psi), mode, stacked)
    want = [
        dr.pair_residual(
            dr.spinor_to_pair(x), dr.PlaneWaveMode(e, p, x), fd
        )
        for x, e, p, fd in zip(psi, energy, momenta, fields)
    ]
    _assert_matches(got, want)


def _solution_states(fields, stacked, momenta):
    """Each trial's highest mode as a stacked state, and per trial."""
    modes = dr.plane_wave_modes(momenta, stacked)
    stack = dr.state_from_mode(modes[3], stacked)
    items = [
        dr.state_from_mode(dr.plane_wave_modes(p, fd)[3], fd)
        for p, fd in zip(momenta, fields)
    ]
    return stack, items


def test_stacked_states_match_per_item():
    fields, stacked, momenta, _, rotors = _draws(3)
    state, states = _solution_states(fields, stacked, momenta)
    _assert_matches(state, states)
    scale = _residual_scale(states)
    _assert_matches(state.residual(), [s.residual() for s in states], scale)
    rotor = _quats(rotors)
    for n in (-1, 0, 1, 2):
        moved = dr.transform_state(state, TransformSpec(rotor, n))
        specs = [TransformSpec(r, n) for r in rotors]
        want = [dr.transform_state(s, spec) for s, spec in zip(states, specs)]
        _assert_matches(moved, want)
        scale = _residual_scale(want)
        _assert_matches(moved.residual(), [s.residual() for s in want], scale)
    for kind in ("parity", "time_reversal", "charge_conjugation"):
        image = dr.apply_discrete(state, kind)
        want = [dr.apply_discrete(s, kind) for s in states]
        _assert_matches(image, want)
        scale = _residual_scale(want)
        _assert_matches(image.residual(), [s.residual() for s in want], scale)


def test_stacked_transforms_match_per_item():
    rng = np.random.default_rng(4)
    _, _, _, _, rotors = _draws(4)
    u = rng.uniform(-1, 1, (COUNT, 4))
    vectors = [Quat(1j * x[0], x[1], x[2], x[3]) for x in u]
    rotor, q = _quats(rotors), _quats(vectors)
    _assert_matches(
        four_vector_transform(q, rotor),
        [four_vector_transform(x, r) for x, r in zip(vectors, rotors)],
    )
    _assert_matches(rotor_blocks(rotor), [rotor_blocks(r) for r in rotors])
    blocks, _ = rotor_blocks(rotor)
    for n in (-1, 0, 1, 2):
        _assert_matches(
            block_power(blocks, n), [block_power(rotor_blocks(r)[0], n) for r in rotors]
        )


def test_stacked_system_matrix_matches_per_item():
    fields, stacked, momenta, _, _ = _draws(5)
    energy = np.linalg.eigvalsh(dr.dirac_hamiltonian(momenta, stacked))[:, 2]
    for lift in ("G", "L"):
        got = dr.pair_system_matrix(energy, momenta, stacked, lift)
        want = [
            dr.pair_system_matrix(float(e), p, fd, lift)
            for e, p, fd in zip(energy, momenta, fields)
        ]
        assert got.shape == (COUNT, 4, 4)
        _assert_matches(got, want)


@pytest.mark.filterwarnings(
    "ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning"
)
def test_stacked_guards():
    nan = math.nan
    column = np.ones(COUNT)
    one_nan = column.copy()
    one_nan[5] = nan
    # a NaN in one trial raises, naming the field
    with pytest.raises(ValueError, match="components must be finite"):
        Quat(column, 0.0, one_nan, 0.0)
    with pytest.raises(ValueError, match="components must be finite"):
        Quat(column) * one_nan
    potential = np.zeros((COUNT, 4))
    with pytest.raises(ValueError, match="mass"):
        dr.FieldData(one_nan, potential)
    potential[7, 2] = nan
    with pytest.raises(ValueError, match="potential"):
        dr.FieldData(column, potential)
    momenta, amplitude = np.zeros((COUNT, 3)), np.ones((COUNT, 4), dtype=complex)
    with pytest.raises(ValueError, match="energy"):
        dr.PlaneWaveMode(one_nan, momenta, amplitude)
    momenta[3, 1] = nan
    with pytest.raises(ValueError, match="momentum"):
        dr.PlaneWaveMode(column, momenta, amplitude)
    amplitude[9, 0] = complex(0.0, math.inf)
    with pytest.raises(ValueError, match="amplitude"):
        dr.PlaneWaveMode(column, np.zeros((COUNT, 3)), amplitude)
    with pytest.raises(ValueError, match="4-column"):
        dr.PlaneWaveMode(column, np.zeros((COUNT, 3)), np.ones((COUNT, 3)))
    # one non-unit member fails the whole stack
    rotors = [rotor_spatial([0, 0, 1.0], 0.1 * k) for k in range(COUNT)]
    rotors[4] = Quat(1.0, 0.5)
    with pytest.raises(ValueError, match=r"unit modulus, got modulus .* member \(4,\)"):
        rotor_blocks(_quats(rotors))
    with pytest.raises(ValueError, match="unit modulus"):
        four_vector_transform(ONE, _quats(rotors))
    # one null member fails the inverse
    quats = [Quat(1.0, 0.1 * k) for k in range(COUNT)]
    quats[2] = Quat(1.0, 0.0, 0.0, 1j)
    with pytest.raises(SingularQuaternion):
        _quats(quats).inverse()
    with pytest.raises(SingularQuaternion):
        Rotator(_quats(quats), ONE).inverse()
    # a NaN stays with its own member
    big = Quat(0.0, 1e200 * column) * Quat(1e200)
    gap = (big - big) + ONE
    got = gap.max_abs()
    assert got.shape == (COUNT,) and np.isnan(got).all()
    zero = np.zeros(COUNT, dtype=complex)
    mixed = _of(one_nan.astype(complex), column.astype(complex), zero, zero)
    got = mixed.max_abs()
    assert np.isnan(got[5]) and np.array_equal(np.delete(got, 5), np.ones(COUNT - 1))
    got = Reflector(mixed, ONE).max_abs()
    assert np.isnan(got[5]) and np.array_equal(np.delete(got, 5), np.ones(COUNT - 1))
    # ndarray * Quat is a stack, not an object array; a stack has no == or hash
    for product in (column * ONE, np.float64(2.0) * ONE, column * Reflector(ONE, ONE)):
        assert not isinstance(product, np.ndarray)
    assert isinstance(column * ONE, Quat)
    stack = column * ONE
    with pytest.raises(TypeError):
        stack == stack
    with pytest.raises(TypeError):
        hash(stack)
    with pytest.raises(TypeError):
        Reflector(stack, ONE) == Reflector(stack, ONE)
