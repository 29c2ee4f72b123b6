"""Stacks of trials through the quaternion, block, transform, dirac and
current layers, against one call per trial."""

import math
import re

import numpy as np
import pytest

from qdirac import current as cur
from qdirac import dirac as dr
from qdirac import harness as hz
from qdirac import spinor_maps as sm
from qdirac.blocks import Reflector, Rotator, block_power
from qdirac import quaternion as qt
from qdirac.harness import (
    SuiteConfig,
    embed4,
    rotation_matrix4,
    run_suite,
    temporal_rotation_matrix4,
)
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


def _bitwise(stack, items):
    """The stack holds the per-item arrays bit for bit, item after item."""
    want = np.stack(items)
    assert stack.shape == want.shape and stack.tobytes() == want.tobytes()


def test_stacked_matrix_views_are_bitwise():
    _, _, _, psi, _ = _draws(7)
    quats = [Quat(*x) for x in psi]
    _bitwise(qt.to_matrix(_quats(quats)), [qt.to_matrix(q) for q in quats])
    matrices = np.stack([qt.to_matrix(q) for q in quats])
    back = qt.from_matrix(matrices)
    _bitwise(sm.quat_to_vec(back), [sm.quat_to_vec(qt.from_matrix(m)) for m in matrices])
    # one more leading axis: a (3, 4) stack of matrices
    grid = qt.to_matrix(_quats(quats)).reshape(3, 4, 2, 2)
    _bitwise(sm.quat_to_vec(qt.from_matrix(grid)).reshape(COUNT, 4), list(psi))
    for cls in (Reflector, Rotator):
        upper, lower = quats, quats[::-1]
        blocks = cls(_quats(upper), _quats(lower))
        _bitwise(embed4(blocks), [embed4(cls(u, v)) for u, v in zip(upper, lower)])
    # a scalar entry broadcasts against a stacked one
    _bitwise(embed4(Rotator(_quats(quats), ONE)), [embed4(Rotator(q, ONE)) for q in quats])


def test_stacked_rotation_matrices_are_bitwise():
    rng = np.random.default_rng(8)
    axes = np.array([_unit3(rng) for _ in range(COUNT)])
    angles = rng.uniform(-math.pi, math.pi, COUNT)
    for matrix in (rotation_matrix4, temporal_rotation_matrix4):
        _bitwise(matrix(axes, angles), [matrix(a, t) for a, t in zip(axes, angles)])
        # one axis against a stack of angles
        _bitwise(matrix(axes[0], angles[:1]), [matrix(axes[0], angles[0])])


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_stacked_from_matrix_guards():
    for shape in ((2,), (3, 3), (COUNT, 2, 3), (COUNT, 4)):
        with pytest.raises(ValueError, match="2x2"):
            qt.from_matrix(np.zeros(shape))
    # a NaN or an infinite entry raises the ValueError, with no NumPy warning
    for bad in (math.nan, math.inf):
        matrices = np.zeros((COUNT, 2, 2), dtype=complex)
        matrices[6, 1, 0] = bad
        with pytest.raises(ValueError, match=r"finite.*member \(6,\)"):
            qt.from_matrix(matrices)


def test_stacked_reflector_trace_is_one_zero_per_member():
    _, _, _, psi, _ = _draws(9)
    # a stack of COUNT reflectors, and one of 3 x 4
    for stack in (Quat(*psi.T), Quat(*psi.T.reshape(4, 3, 4))):
        shape = np.shape(stack.temporal)
        for upper, lower in ((stack, ONE), (ONE, stack), (stack, stack)):
            trace = Reflector(upper, lower).trace()
            assert all(np.shape(c) == shape for c in trace.components)
            assert not np.any(trace.components)
    # the trace of one reflector stays the scalar zero
    assert Reflector(Quat(*psi[0]), ONE).trace() == Quat()


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


def _solution_stacks(seed=7):
    """Two zero-potential solution modes per trial, as stacks and per trial,
    with the stacked field and the fields per trial."""
    rng = np.random.default_rng(seed)
    mass = rng.uniform(0.1, 2.0, COUNT)
    stacked = dr.FieldData(mass, np.zeros((COUNT, 4)))
    stacks = []
    for pick in (3, 0):
        mode = dr.plane_wave_modes(rng.uniform(-2, 2, (COUNT, 3)), stacked)[pick]
        stacks.append((dr.spinor_to_pair(mode.amplitude), mode))
    per_trial = [
        [
            (dr.spinor_to_pair(mode.amplitude[k]),
             dr.PlaneWaveMode(mode.energy[k], mode.momentum[k], mode.amplitude[k]))
            for _, mode in stacks
        ]
        for k in range(COUNT)
    ]
    return stacks, stacked, per_trial, [dr.FieldData(m) for m in mass]


def _divergence_scale(solutions, fd, spec) -> float:
    """A bound on the terms that cancel in the divergence coefficients of one
    trial: 64 max|left| max|right| max|P|."""
    syms, phi = cur._check_solutions(solutions, fd)
    left, right = cur._current_factors(phi, spec)
    return 64 * np.max(np.abs(left)) * np.max(np.abs(right)) * np.max(np.abs(syms))


def test_stacked_currents_match_per_item():
    _, _, _, psi, _ = _draws(8)
    other = np.roll(psi, 1, axis=0)
    pairs, others = dr.spinor_to_pair(psi), dr.spinor_to_pair(other)
    items = [dr.spinor_to_pair(x) for x in psi]
    other_items = [dr.spinor_to_pair(x) for x in other]
    for got, want in (
        (cur.spinor_current(psi), [cur.spinor_current(x) for x in psi]),
        (cur.pair_current(pairs), [cur.pair_current(p) for p in items]),
        (cur.pair_current(pairs, others),
         [cur.pair_current(p, q) for p, q in zip(items, other_items)]),
        (cur.block_current(pairs), [cur.block_current(p) for p in items]),
    ):
        assert got.shape == (COUNT, 4)
        _assert_matches(got, want)


def test_stacked_divergence_matches_per_item():
    stacks, stacked, per_trial, fields = _solution_stacks()
    _, _, _, _, rotors = _draws(9)
    specs = [None] + [TransformSpec(_quats(rotors), n) for n in (-1, 0, 1, 2)]
    for spec in specs:
        got = cur.current_divergence(stacks, stacked, spec)
        assert got.shape == (COUNT,)
        for k, (solutions, fd) in enumerate(zip(per_trial, fields)):
            spec_k = None if spec is None else TransformSpec(rotors[k], spec.n)
            want = cur.current_divergence(solutions, fd, spec_k)
            assert isinstance(want, float)
            scale = _divergence_scale(solutions, fd, spec_k)
            assert abs(got[k] - want) <= REL * scale, (spec, k)
            assert got[k] < 1e-12
    # one superposition under a stack of rotors
    got = cur.current_divergence(per_trial[0], fields[0], specs[2])
    want = [
        cur.current_divergence(per_trial[0], fields[0], TransformSpec(r, 0))
        for r in rotors
    ]
    assert got.shape == (COUNT,) and np.max(np.abs(got - want)) <= 1e-14


def _radiation_stacks(seed=10):
    """Three radiation modes per trial off the light cone, as stacks and per
    trial."""
    rng = np.random.default_rng(seed)
    stacks = []
    for _ in range(3):
        k = rng.uniform(-1, 1, (COUNT, 3))
        omega = np.sqrt(np.sum(k * k, axis=-1)) + rng.choice((-1, 1), COUNT) * 0.5
        u = rng.uniform(-1, 1, (4, COUNT))
        stacks.append(cur.RadiationMode(Quat(1j * u[0], *u[1:]), omega, k))
    per_trial = [
        tuple(
            cur.RadiationMode(Quat(*(z[j] for z in m.amplitude.components)),
                              m.omega[j], m.wavevector[j])
            for m in stacks
        )
        for j in range(COUNT)
    ]
    return tuple(stacks), per_trial


def test_stacked_radiation_matches_per_item():
    source, items = _radiation_stacks()
    _, _, _, _, rotors = _draws(11)
    potential = cur.solve_potential(source)
    item_potentials = [cur.solve_potential(item) for item in items]
    for k, mode in enumerate(potential):
        _assert_matches(mode.amplitude, [p[k].amplitude for p in item_potentials])
    for rotor, rotor_k in ((None, [None] * COUNT), (_quats(rotors), rotors)):
        got = cur.radiation_residual(source, potential, rotor)
        want = [
            cur.radiation_residual(item, p, r)
            for item, p, r in zip(items, item_potentials, rotor_k)
        ]
        assert got.shape == (COUNT,) and all(isinstance(w, float) for w in want)
        # the residual's terms are of the size of the source amplitude
        scale = max(max(m.amplitude.max_abs()) for m in source)
        assert np.max(np.abs(got - want)) <= REL * scale


@pytest.mark.filterwarnings("ignore:invalid:RuntimeWarning")
def test_stacked_current_guards():
    stacks, stacked, _, _ = _solution_stacks()
    # one off-shell member names its trial and mode
    (pair, mode), second = stacks
    energy = mode.energy.copy()
    energy[5] += 0.5
    off = dr.PlaneWaveMode(energy, mode.momentum, mode.amplitude)
    message = "mode 0 of trial (5,) with energy %g " % energy[5]
    with pytest.raises(cur.NotASolution, match=re.escape(message)):
        cur.current_divergence([(pair, off), second], stacked)
    # so does a NaN in one member
    comps = [z.copy() for z in second[0].phi1.components]
    comps[2][8] = math.nan
    nan_pair = dr.BispinorPair(_of(*comps), second[0].phi2)
    with pytest.raises(cur.NotASolution, match=re.escape("mode 1 of trial (8,) ")):
        cur.current_divergence([(pair, mode), (nan_pair, second[1])], stacked)
    source, _ = _radiation_stacks()
    # one lightlike member
    k = source[1].wavevector
    omega = source[1].omega.copy()
    omega[4] = np.sqrt(k[4] @ k[4])
    lightlike = cur.RadiationMode(source[1].amplitude, omega, k)
    with pytest.raises(cur.LightlikeMode, match=r"member \(4,\)"):
        cur.solve_potential((source[0], lightlike))
    # one mismatched pair of modes
    potential = cur.solve_potential(source)
    omega = potential[2].omega.copy()
    omega[6] += 1e-3
    moved = cur.RadiationMode(potential[2].amplitude, omega, potential[2].wavevector)
    with pytest.raises(ValueError, match="share omega and wavevector"):
        cur.radiation_residual(source, potential[:2] + (moved,))
    # a NaN in one member fails that member alone
    comps = [z.copy() for z in potential[0].amplitude.components]
    comps[1][3] = math.nan
    first = potential[0]
    nan_mode = cur.RadiationMode(_of(*comps), first.omega, first.wavevector)
    got = cur.radiation_residual(source, (nan_mode,) + potential[1:])
    assert np.isnan(got[3]) and np.all(np.delete(got, 3) < 1e-12)


def test_stacked_rotors_are_bitwise():
    rng = np.random.default_rng(12)
    axes = np.array([_unit3(rng) for _ in range(COUNT)])
    angles = rng.uniform(-math.pi, math.pi, COUNT)
    for rotor in (rotor_spatial, rotor_boost):
        want = [_components(rotor(a, t)) for a, t in zip(axes, angles)]
        _bitwise(_components(rotor(axes, angles)), want)
        # one axis against a stack of angles, and a stack of axes at one angle
        want = [_components(rotor(axes[0], t)) for t in angles]
        _bitwise(_components(rotor(axes[0], angles)), want)
        want = [_components(rotor(a, angles[0])) for a in axes]
        _bitwise(_components(rotor(axes, angles[0])), want)
        # a single axis and a float give a scalar Quat
        single = rotor([0.0, 0.6, 0.8], 0.7)
        assert all(type(z) is complex for z in single.components)
        assert (single - rotor(np.array([[0.0, 0.6, 0.8]]), [0.7])).max_abs() == 0.0


def test_unit_axis_names_the_first_bad_member():
    axes = np.tile([0.0, 0.0, 1.0], (COUNT, 1))
    axes[3] *= 1.5
    axes[8] = math.nan
    for rotor in (rotor_spatial, rotor_boost):
        with pytest.raises(ValueError, match=r"unit length at member \(3,\)$"):
            rotor(axes, 0.1)
        with pytest.raises(ValueError, match=r"unit length at member \(1, 0\)$"):
            rotor(axes[:9].reshape(3, 3, 3), 0.1)
        with pytest.raises(ValueError, match="unit length$"):
            rotor([math.nan, 0.0, 0.0], 0.1)
        with pytest.raises(ValueError, match="3-vector"):
            rotor(np.zeros((COUNT, 2)), 0.1)


def test_matrix_oracle_takes_mixed_stacks_member_by_member():
    _, _, _, _, rotors = _draws(13)
    # the identity has a zero axis; it reads as a rotation
    rotors[1] = ONE
    got = hz._matrix_oracle(_quats(rotors))
    assert got.shape == (COUNT, 4, 4)
    _bitwise(got, [hz._matrix_oracle(r) for r in rotors])
    # a rotation times a boost is neither: the first such member is named
    # (the even members are rotations, the odd ones boosts)
    rotors[9], rotors[11] = rotors[2] * rotors[3], rotors[3] * rotors[4]
    with pytest.raises(ValueError, match=r"nor a boost at member \(9,\)"):
        hz._matrix_oracle(_quats(rotors))
    with pytest.raises(ValueError, match="neither a rotation nor a boost: Quat"):
        hz._matrix_oracle(rotors[9])


def test_redraw_replaces_only_the_rejected_rows():
    def draw(rng, count):
        calls.append(count)
        return rng.uniform(0.0, 1.0, (count, 2))

    def accept(rows):
        return rows[:, 0] > 0.7

    runs = []
    for _ in range(2):
        calls = []
        rows = hz._redraw(np.random.default_rng(14), COUNT, draw, accept)
        runs.append((rows, calls))
        assert rows.shape == (COUNT, 2) and accept(rows).all()
    # deterministic per seed
    _bitwise(runs[0][0], list(runs[1][0]))
    assert runs[0][1] == runs[1][1]
    # every pass draws once, for the rows still rejected, and each row keeps
    # the first value that passed
    rng = np.random.default_rng(14)
    first = rng.uniform(0.0, 1.0, (COUNT, 2))
    assert calls[0] == COUNT and calls[1] == np.sum(~accept(first))
    assert all(later <= earlier for earlier, later in zip(calls, calls[1:]))
    kept = accept(first)
    _bitwise(rows[kept], list(first[kept]))
    todo, want = np.flatnonzero(~kept), first.copy()
    for count in calls[1:]:
        fresh = rng.uniform(0.0, 1.0, (count, 2))
        want[todo] = fresh
        todo = todo[~accept(fresh)]
    assert todo.size == 0
    _bitwise(rows, list(want))
