import numpy as np
import pytest

from qdirac.blocks import Reflector, Rotator
from qdirac.dirac import (
    BETA,
    BispinorPair,
    DiracState,
    FieldData,
    IdealViolation,
    PlaneWaveMode,
    apply_discrete,
    dirac_hamiltonian,
    momentum_symbol,
    pair_residual,
    pair_system_matrix,
    pair_to_spinor,
    plane_wave_modes,
    spinor_to_pair,
    state_from_mode,
    transform_state,
)
from qdirac.quaternion import I1, I2, I3, ONE, Quat
from qdirac.spinor_maps import ideal_factor, lift_G, lift_L, map_F, map_N
from qdirac.transforms import TransformSpec, rotor_boost, rotor_spatial


def rand_psi(rng):
    return rng.uniform(-1, 1, 4) + 1j * rng.uniform(-1, 1, 4)


def rand_field(rng, with_potential=True):
    pot = rng.uniform(-1, 1, 4) if with_potential else np.zeros(4)
    return FieldData(rng.uniform(0.1, 2.0), pot)


def test_hamiltonian_rest_frame_is_beta():
    fd = FieldData(1.0)
    h = dirac_hamiltonian(np.zeros(3), fd)
    assert np.max(np.abs(h - BETA)) == 0.0


def test_hamiltonian_hermitian_and_eigenvalues():
    fd = FieldData(1.0)
    h = dirac_hamiltonian([0.0, 0.0, 0.75], fd)
    assert np.max(np.abs(h - h.conj().T)) == 0.0
    energies = np.linalg.eigvalsh(h)
    assert np.max(np.abs(np.sort(energies) - [-1.25, -1.25, 1.25, 1.25])) < 1e-12


def test_plane_wave_modes_rest_frame():
    fd = FieldData(1.0)
    modes = plane_wave_modes(np.zeros(3), fd)
    energies = [m.energy for m in modes]
    assert np.max(np.abs(np.array(energies) - [-1, -1, 1, 1])) < 1e-12
    for mode in modes:
        h = dirac_hamiltonian(mode.momentum, fd)
        assert np.max(np.abs(h @ mode.amplitude - mode.energy * mode.amplitude)) < 1e-12
    massless = plane_wave_modes(np.zeros(3), FieldData(0.0))
    assert all(abs(m.energy) < 1e-14 for m in massless)


def test_modes_satisfy_original_equation():
    rng = np.random.default_rng(0)
    for _ in range(50):
        fd = rand_field(rng)
        p = rng.uniform(-1.5, 1.5, 3)
        h = dirac_hamiltonian(p, fd)
        for mode in plane_wave_modes(p, fd):
            assert (
                np.max(np.abs(h @ mode.amplitude - mode.energy * mode.amplitude))
                < 1e-12
            )


def test_translation_rest_frame_values():
    pair = spinor_to_pair(np.array([1, 0, 0, 0], dtype=complex))
    assert (pair.phi1 - Quat(1, 0, 0, 1j)).max_abs() == 0.0
    assert (pair.phi2 - (-I3) * ideal_factor(1)).max_abs() == 0.0
    zero = spinor_to_pair(np.zeros(4, dtype=complex))
    assert zero.phi1.max_abs() == 0.0 and zero.phi2.max_abs() == 0.0


def test_translation_ideal_membership():
    rng = np.random.default_rng(1)
    for lift, sign in (("G", 1), ("L", -1)):
        factor = ideal_factor(sign)
        for _ in range(100):
            pair = spinor_to_pair(rand_psi(rng), lift)
            for phi in (pair.phi1, pair.phi2):
                assert (phi * factor - 2.0 * phi).max_abs() < 1e-13


def test_roundtrip_both_lifts():
    rng = np.random.default_rng(2)
    for _ in range(200):
        psi = rand_psi(rng)
        for lift in ("G", "L"):
            back = pair_to_spinor(spinor_to_pair(psi, lift))
            assert np.max(np.abs(back - psi)) < 1e-13


def test_pair_to_spinor_rejects_off_ideal():
    with pytest.raises(IdealViolation):
        pair_to_spinor(BispinorPair(ONE, ONE))


def test_unknown_lift_raises():
    # a pair that names no lift must not decode under one of the two, even
    # when its quaternions lie in that lift's ideal
    pair = spinor_to_pair(np.array([1.0, 0.5j, -0.25, 2.0]), lift="L")
    with pytest.raises(ValueError, match="lift must be 'G' or 'L'"):
        pair_to_spinor(BispinorPair(pair.phi1, pair.phi2, lift="X"))
    with pytest.raises(ValueError, match="lift must be 'G' or 'L'"):
        spinor_to_pair(np.ones(4), lift="X")


def test_momentum_symbol():
    mode = PlaneWaveMode(1.0, np.zeros(3), np.zeros(4))
    sym, sym_c = momentum_symbol(mode)
    assert (sym - ONE).max_abs() == 0.0
    assert (sym_c - ONE).max_abs() == 0.0
    rng = np.random.default_rng(3)
    for _ in range(50):
        e = rng.uniform(-2, 2)
        p = rng.uniform(-2, 2, 3)
        sym, sym_c = momentum_symbol(PlaneWaveMode(e, p, np.zeros(4)))
        assert abs((sym * sym_c).temporal - (e**2 - p @ p)) < 1e-12
        assert (sym * sym_c - sym_c * sym).max_abs() < 1e-14


def test_translated_modes_solve_quaternion_form():
    rng = np.random.default_rng(4)
    for _ in range(50):
        fd = rand_field(rng)
        p = rng.uniform(-1.5, 1.5, 3)
        for mode in plane_wave_modes(p, fd):
            for lift in ("G", "L"):
                pair = spinor_to_pair(mode.amplitude, lift)
                r1, r2 = pair_residual(pair, mode, fd)
                assert max(r1.max_abs(), r2.max_abs()) < 1e-12


def test_random_amplitude_is_not_a_solution():
    rng = np.random.default_rng(5)
    fd = FieldData(1.0)
    mode = PlaneWaveMode(0.3, [0.2, 0.0, 0.1], rand_psi(rng))
    pair = spinor_to_pair(mode.amplitude)
    r1, r2 = pair_residual(pair, mode, fd)
    assert max(r1.max_abs(), r2.max_abs()) > 1e-3


def test_massless_null_mode():
    fd = FieldData(0.0)
    p = np.array([0.6, -0.3, 0.2])
    energy = float(np.linalg.norm(p))
    sym = Quat(energy, 1j * p[0], 1j * p[1], 1j * p[2])
    factor = ideal_factor(1)
    pair = BispinorPair(sym * factor, sym.quat_conj() * factor)
    mode = PlaneWaveMode(energy, p, np.zeros(4))
    r1, r2 = pair_residual(pair, mode, fd)
    assert max(r1.max_abs(), r2.max_abs()) < 1e-14


def test_block_residual_matches_pair_residual():
    rng = np.random.default_rng(6)
    for _ in range(100):
        fd = rand_field(rng)
        mode = PlaneWaveMode(rng.uniform(-2, 2), rng.uniform(-1, 1, 3), rand_psi(rng))
        pair = spinor_to_pair(mode.amplitude)
        r1, r2 = pair_residual(pair, mode, fd)
        block = state_from_mode(mode, fd).residual()
        assert isinstance(block, Rotator)
        assert (block.upper - r2).max_abs() < 1e-13
        assert (block.lower - r1).max_abs() < 1e-13


def test_transform_half_angle_n0():
    rng = np.random.default_rng(8)
    fd = rand_field(rng)
    mode = plane_wave_modes(rng.uniform(-1, 1, 3), fd)[3]
    state = state_from_mode(mode, fd)
    spec = TransformSpec(rotor_spatial([0, 0, 1.0], 0.9), 0)
    moved = transform_state(state, spec)
    r = spec.rotor
    assert (moved.phi.upper - r * state.phi.upper).max_abs() < 1e-13
    assert (moved.phi.lower - r * state.phi.lower).max_abs() < 1e-13
    assert (moved.m - state.m).max_abs() == 0.0


def test_mass_becomes_four_vector_for_n1_boost():
    from qdirac.harness import boost_matrix4, quat_to_minkowski
    from qdirac.transforms import four_vector_transform

    fd = FieldData(1.0)
    state = state_from_mode(plane_wave_modes(np.zeros(3), fd)[3], fd)
    spec = TransformSpec(rotor_boost([1.0, 0, 0], 1.0), 1)
    mass_after = transform_state(state, spec).m.upper
    direct = four_vector_transform(Quat(fd.euclidean_mass), spec.rotor)
    assert (mass_after - direct).max_abs() < 1e-12
    oracle = boost_matrix4([1.0, 0, 0], 1.0) @ np.array([1.0, 0, 0, 0])
    assert np.max(np.abs(quat_to_minkowski(mass_after) - oracle)) < 1e-12
    assert mass_after.spatial.max_abs() > 1e-3


def _state_gap(a, b):
    return max(
        (a.d - b.d).max_abs(),
        (a.a - b.a).max_abs(),
        (a.phi - b.phi).max_abs(),
        (a.m - b.m).max_abs(),
    )


def test_discrete_symmetries_preserve_solutions():
    rng = np.random.default_rng(9)
    for _ in range(50):
        fd = rand_field(rng)
        mode = plane_wave_modes(rng.uniform(-1.5, 1.5, 3), fd)[rng.integers(4)]
        state = state_from_mode(mode, fd)
        for kind in ("parity", "time_reversal"):
            image = apply_discrete(state, kind)
            assert image.residual().max_abs() < 1e-12
            assert _state_gap(apply_discrete(image, kind), state) < 1e-14


def test_parity_swaps_derivative_blocks():
    rng = np.random.default_rng(10)
    fd = rand_field(rng)
    mode = plane_wave_modes(rng.uniform(-1, 1, 3), fd)[0]
    state = state_from_mode(mode, fd)
    image = apply_discrete(state, "parity")
    assert (image.d.upper - state.d.lower).max_abs() == 0.0
    assert (image.d.lower - state.d.upper).max_abs() == 0.0
    assert isinstance(image.phi, Rotator)


def test_time_reversal_example():
    # (B, E) = (Rotator(-1, 1), Reflector(1, 1)) negates the derivative and
    # potential blocks, makes the spinor block Rotator(-phi1, phi2) and
    # swaps the mass blocks
    d = Reflector(Quat(1, 2, 3, 4), Quat(5, 6, 7, 8))
    a = Reflector(I1, I2)
    phi = Reflector(Quat(0.5, -1, 0, 2), I3)
    m = Reflector(Quat(-2j), Quat(3j))
    image = apply_discrete(DiracState(d, a, phi, m), "time_reversal")
    assert image.d == Reflector(-d.upper, -d.lower)
    assert image.a == Reflector(-I1, -I2)
    assert image.phi == Rotator(-phi.upper, I3)
    assert image.m == Reflector(Quat(3j), Quat(-2j))


def test_charge_conjugation_flips_potential():
    rng = np.random.default_rng(11)
    for _ in range(50):
        fd = rand_field(rng)
        mode = plane_wave_modes(rng.uniform(-1.5, 1.5, 3), fd)[rng.integers(4)]
        state = state_from_mode(mode, fd)
        image = apply_discrete(state, "charge_conjugation")
        assert (image.a - (-state.a)).max_abs() == 0.0
        assert image.residual().max_abs() < 1e-12
        assert (image.m - state.m).max_abs() < 1e-15
        assert _state_gap(apply_discrete(image, "charge_conjugation"), state) < 1e-14
    with pytest.raises(ValueError):
        apply_discrete(state, "chirality")


def test_system_matrix_nonsingular_off_eigenvalue():
    rng = np.random.default_rng(12)
    for _ in range(30):
        fd = rand_field(rng)
        p = rng.uniform(-1.5, 1.5, 3)
        energies = np.linalg.eigvalsh(dirac_hamiltonian(p, fd))
        off = float(energies[-1]) + 1.0
        sv = np.linalg.svd(pair_system_matrix(off, p, fd), compute_uv=False)
        assert sv[-1] > 1e-3


def test_system_matrix_equals_column_build():
    # reference: lift each unit column and right-multiply by the ideal factor
    rng = np.random.default_rng(13)
    for _ in range(50):
        fd = rand_field(rng)
        p = rng.uniform(-2.0, 2.0, 3)
        energy = rng.uniform(-3.0, 3.0)
        sym = Quat(energy, 1j * p[0], 1j * p[1], 1j * p[2])
        coupled = sym - 1j * fd.euclidean_potential
        m = Quat(fd.euclidean_mass)
        for lift, lift_fn, project, sign in (("G", lift_G, map_F, 1), ("L", lift_L, map_N, -1)):
            want = np.zeros((4, 4), dtype=complex)
            for j in range(4):
                col = np.zeros(4, dtype=complex)
                col[j] = 1.0
                phi1 = lift_fn(col[:2]) * ideal_factor(sign)
                phi2 = lift_fn(col[2:]) * ideal_factor(sign)
                r1 = coupled.quat_conj() * phi1 - phi2 * m
                r2 = coupled * phi2 + phi1 * m.quat_conj()
                want[:2, j] = project(r1) / 2.0
                want[2:, j] = project(r2) / 2.0
            assert pair_system_matrix(energy, p, fd, lift).tobytes() == want.tobytes()
    with pytest.raises(ValueError):
        pair_system_matrix(1.0, p, fd, "N")


def test_field_data_euclidean_structure():
    fd = FieldData(2.0, [0.5, -0.2, 0.1, 0.7])
    assert fd.euclidean_mass == -2j
    a = fd.euclidean_potential
    assert a.components[0] == -0.5j
    assert a.components[1:] == (-0.2, 0.1, 0.7)
    with pytest.raises(ValueError):
        FieldData(1.0, [1.0, 2.0])


def test_nonfinite_physics_data_rejected():
    nan, inf = float("nan"), float("inf")
    for make, field in (
        (lambda: FieldData(nan), "mass"),
        (lambda: FieldData(1.0, [0, inf, 0, 0]), "potential"),
        (lambda: PlaneWaveMode(nan, np.zeros(3), np.zeros(4)), "energy"),
        (lambda: PlaneWaveMode(1.0, [0, nan, 0], np.zeros(4)), "momentum"),
        (lambda: PlaneWaveMode(1.0, np.zeros(3), [0, 0, 1j * inf, 0]), "amplitude"),
        (lambda: plane_wave_modes([nan, 0, 0], FieldData(1.0)), "momentum"),
    ):
        with pytest.raises(ValueError, match=field):
            make()


def test_transform_state_rejects_non_unit_rotor():
    fd = FieldData(1.0)
    state = state_from_mode(plane_wave_modes(np.zeros(3), fd)[3], fd)
    with pytest.raises(ValueError, match="unit modulus"):
        transform_state(state, TransformSpec(Quat(1, 0.5, 0, 0), 0))
