import math
import re
import tracemalloc

import numpy as np
import pytest

from qdirac.blocks import Reflector, Rotator, block_power
from qdirac import current
from qdirac.current import _K_BLOCKS, _current_factors, _max_divergence, _stack_phi
from qdirac.current import (
    LightlikeMode,
    NotASolution,
    RadiationMode,
    block_current,
    current_divergence,
    pair_current,
    radiation_residual,
    solve_potential,
    spinor_current,
)
from qdirac.dirac import (
    BispinorPair,
    FieldData,
    PlaneWaveMode,
    pair_residual,
    plane_wave_modes,
    spinor_to_pair,
)
from qdirac.quaternion import BASIS, ONE, Quat, _of
from qdirac.transforms import TransformSpec, rotor_blocks, rotor_boost, rotor_spatial


def rand_psi(rng):
    return rng.uniform(-1, 1, 4) + 1j * rng.uniform(-1, 1, 4)


def test_spinor_current_examples():
    psi = np.array([1, 0, 0, 0], dtype=complex)
    assert np.max(np.abs(spinor_current(psi) - [1, 0, 0, 0])) == 0.0
    assert np.max(np.abs(spinor_current(np.zeros(4)))) == 0.0
    rng = np.random.default_rng(0)
    psi = rand_psi(rng)
    c = 0.3 - 1.1j
    assert np.max(np.abs(spinor_current(c * psi) - abs(c) ** 2 * spinor_current(psi))) < 1e-12
    assert spinor_current(psi)[0] >= 0.0


def test_rest_frame_quaternion_current():
    pair = spinor_to_pair(np.array([1, 0, 0, 0], dtype=complex))
    j = pair_current(pair)
    assert np.max(np.abs(j - np.array([-1j, 0, 0, 0]))) < 1e-15


def test_pair_current_cross_terms():
    # the current of a superposition is the sum of the four bilinear terms
    rng = np.random.default_rng(12)
    psi_a, psi_b = rand_psi(rng), rand_psi(rng)
    a, b = spinor_to_pair(psi_a), spinor_to_pair(psi_b)
    assert np.max(np.abs(pair_current(a, a) - pair_current(a))) == 0.0
    total = pair_current(spinor_to_pair(psi_a + psi_b))
    parts = pair_current(a) + pair_current(a, b) + pair_current(b, a) + pair_current(b)
    assert np.max(np.abs(total - parts)) < 1e-12


def test_pair_current_is_imaginary_in_time_and_real_in_space():
    rng = np.random.default_rng(2)
    j = pair_current(spinor_to_pair(rand_psi(rng)))
    assert abs(j[0].real) < 1e-14
    assert np.max(np.abs(j[1:].imag)) < 1e-14


I_BLOCKS = [Reflector(e, e.quat_conj()) for e in BASIS]


def phi_blocks(pair):
    return Reflector(pair.phi1, pair.phi2)


def phi_s_blocks(pair):
    return Reflector(pair.phi1.herm_conj(), pair.phi2.herm_conj())


def solutions(rng, fd, count):
    out = []
    for _ in range(count):
        mode = plane_wave_modes(rng.uniform(-2, 2, 3), fd)[rng.integers(4)]
        out.append((spinor_to_pair(mode.amplitude), mode))
    return out


def test_block_current_structure():
    pair = spinor_to_pair(np.array([0.2 + 0.1j, -0.4, 0.9j, 1.0]))
    j = block_current(pair)
    assert j.shape == (4,)
    k = _K_BLOCKS
    # the shared coefficient is scalar, so its conjugate is itself
    assert (k.upper - k.lower).max_abs() == 0.0
    for mu in range(4):
        factors = (k, phi_s_blocks(pair), I_BLOCKS[mu], phi_blocks(pair))
        assert all(isinstance(f, Reflector) for f in factors)
        j_rot = factors[0] * factors[1] * factors[2] * factors[3]
        assert isinstance(j_rot, Rotator)
        # the contraction sums in another order than the block product
        assert abs(j_rot.trace().temporal - j[mu]) < 1e-15
    zero_pair = spinor_to_pair(np.zeros(4, dtype=complex))
    assert np.max(np.abs(block_current(zero_pair))) == 0.0


def test_block_current_is_invariant_under_every_law():
    # every factor of K PhiS I_mu Phi moved by its exponent-n law leaves the
    # four scalars as they were; the largest miss here is 6.0e-14, at n = 2
    # under the boost, whose laws amplify rounding with a power of |R|.  The
    # transformed factors are those that test_block_factor_cross_terms checks
    # against the explicit block chain
    pair = spinor_to_pair(np.array([0.2 + 0.1j, -0.4, 0.9j, 1.0]))
    j = pair_current(pair)
    rotation = rotor_spatial([0.0, 0.6, 0.8], 2.1)
    boost = rotor_boost([0.48, -0.6, 0.64], 1.7)
    for rotor in (rotation, boost, rotation * boost):
        for n in (-1, 0, 1, 2):
            spec = TransformSpec(rotor, n)
            left, right = _current_factors(_stack_phi([pair]), spec)
            assert np.max(np.abs(left[0] @ right[0] - j)) < 1e-13, spec


# n = 2 only on the three-mode draw: the n = 2 laws amplify rounding with a
# power of |R|, and on the one- and 37-mode draws the explicit chain itself
# is 1.2e-14 to 2.1e-14 from a 40-digit evaluation, so no evaluation that
# rounds differently from the chain can agree with it to 1e-14 there
CROSS_TERM_DRAWS = ((1, (-1, 0, 1)), (3, (-1, 0, 1, 2)), (37, (-1, 0, 1)))


def test_block_factor_cross_terms():
    # every coefficient of the factor arrays, a == b included, is the
    # explicit block product, with each factor transformed by its own
    # exponent-n law
    for count, exponents in CROSS_TERM_DRAWS:
        rng = np.random.default_rng(13)
        pairs = [spinor_to_pair(rand_psi(rng)) for _ in range(count)]
        v = rng.normal(size=3)
        boost = rotor_boost(v / np.linalg.norm(v), rng.uniform(-2, 2))
        v = rng.normal(size=3)
        mixed = rotor_spatial(v / np.linalg.norm(v), rng.uniform(0, np.pi)) * boost
        specs = [TransformSpec(r, n) for r in (boost, mixed) for n in exponents]
        for spec in (None, *specs):
            check_cross_terms(pairs, spec)


def check_cross_terms(pairs, spec):
    left, right = _current_factors(_stack_phi(pairs), spec)
    k, i_blocks = _K_BLOCKS, I_BLOCKS
    phis = [phi_blocks(p) for p in pairs]
    phis_s = [phi_s_blocks(p) for p in pairs]
    if spec is not None:
        r, rc = rotor_blocks(spec.rotor)
        r_n, rc_n = block_power(r, spec.n), block_power(rc, spec.n)
        k = r_n * k * rc_n
        i_blocks = [r * i_mu * rc for i_mu in i_blocks]
        phis = [r * phi * rc_n for phi in phis]
        phis_s = [r_n * phi_s * rc for phi_s in phis_s]
    for a in range(len(pairs)):
        heads = [k * phis_s[a] * i_mu for i_mu in i_blocks]
        for b in range(len(pairs)):
            got = left[a] @ right[b]
            for mu, head in enumerate(heads):
                want = (head * phis[b]).trace().temporal
                assert abs(got[mu] - want) < 1e-14


def test_divergence_single_and_two_modes():
    fd = FieldData(1.1)
    modes = plane_wave_modes(np.array([0.4, -0.2, 0.9]), fd)
    single = [(spinor_to_pair(modes[3].amplitude), modes[3])]
    assert current_divergence(single, fd) < 1e-14
    other = plane_wave_modes(np.array([-0.7, 0.3, 0.1]), fd)[1]
    two = single + [(spinor_to_pair(other.amplitude), other)]
    assert current_divergence(two, fd) < 1e-13


def crand(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


@pytest.mark.parametrize("n", [1, 37])
def test_divergence_contraction_matches_direct_einsum(n, monkeypatch):
    # random factors, on which a wrong sign or a transposed weight cannot
    # hide below rounding as it can on true solutions; 37 rows at 5 a chunk
    # end on a ragged chunk of 2
    monkeypatch.setattr(current, "_CHUNK_BYTES", 5 * 37 * 16)
    rng = np.random.default_rng(31)
    for row in sorted({0, n // 2, n - 1}):
        left, right, syms = crand(rng, (n, 4, 8)), crand(rng, (n, 8)), crand(rng, (n, 4))
        # put the largest coefficient in this row's chunk
        left[row] *= 10
        direct = np.einsum("amk,bk,abm->ab", left, right, syms[None] - syms[:, None])
        # relative to the terms' size: at N = 1 the divergence is exactly 0
        sizes = np.abs(syms)[None] + np.abs(syms)[:, None]
        scale = np.max(np.einsum("amk,bk,abm->ab", abs(left), abs(right), sizes))
        got = _max_divergence(left, right, syms)
        assert abs(got - np.max(np.abs(direct))) <= 1e-12 * scale
        for k in range(3):
            args = [left, right, syms]
            args[k] = args[k].copy()
            args[k].flat[args[k].size // 2] = math.nan
            assert math.isnan(_max_divergence(*args))


def test_divergence_guards():
    fd = FieldData(1.0)
    bad_mode = PlaneWaveMode(0.5, [1.0, 0, 0], np.array([1.0, 0, 0, 0]))
    bad = [(spinor_to_pair(bad_mode.amplitude), bad_mode)]
    with pytest.raises(NotASolution):
        current_divergence(bad, fd)
    charged = FieldData(1.0, [0.3, 0, 0, 0])
    mode = plane_wave_modes(np.zeros(3), charged)[3]
    good = [(spinor_to_pair(mode.amplitude), mode)]
    with pytest.raises(ValueError):
        current_divergence(good, charged)
    # an empty superposition checks nothing, so it must not pass
    with pytest.raises(ValueError, match="at least one mode"):
        current_divergence([], fd)


def test_divergence_names_the_off_shell_mode():
    fd = FieldData(0.8)
    sols = solutions(np.random.default_rng(21), fd, 50)
    pair, mode = sols[23]
    off = PlaneWaveMode(mode.energy + 0.5, mode.momentum, mode.amplitude)
    sols[23] = (pair, off)
    with pytest.raises(NotASolution, match=re.escape("energy %g " % off.energy)):
        current_divergence(sols, fd)


def test_divergence_fails_a_nan_mode():
    # quaternion products are unchecked, so an overflow can leave a NaN
    fd = FieldData(0.8)
    sols = solutions(np.random.default_rng(22), fd, 3)
    pair, mode = sols[1]
    sols[1] = (BispinorPair(_of(math.nan, 0j, 0j, 0j), pair.phi2), mode)
    with pytest.raises(NotASolution, match=re.escape("energy %g " % mode.energy)):
        current_divergence(sols, fd)


def test_divergence_of_1000_modes_stays_small():
    fd = FieldData(1.2)
    sols = solutions(np.random.default_rng(23), fd, 1000)
    for spec in (None, TransformSpec(rotor_boost([0.0, 0.6, 0.8], 0.9), 2)):
        tracemalloc.start()
        try:
            residual = current_divergence(sols, fd, spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert residual < 1e-10
        assert peak < 2 * 2**20


def test_radiation_solve_example():
    amp = Quat(0.4j, 1.0, -0.3, 0.2)
    source = (RadiationMode(amp, 2.0, [1.0, 0, 0]),)
    potential = solve_potential(source)
    assert (potential[0].amplitude - amp / 3.0).max_abs() < 1e-15
    assert radiation_residual(source, potential) < 1e-14


def test_radiation_zero_and_lightlike():
    zero = (RadiationMode(Quat(), 2.0, [1.0, 0, 0]),)
    assert solve_potential(zero)[0].amplitude.max_abs() == 0.0
    lightlike = (RadiationMode(ONE, 1.0, [1.0, 0, 0]),)
    with pytest.raises(LightlikeMode):
        solve_potential(lightlike)


def test_radiation_pairing_validation():
    a = (RadiationMode(ONE, 2.0, [1.0, 0, 0]),)
    b = (RadiationMode(ONE, 2.5, [1.0, 0, 0]),)
    with pytest.raises(ValueError):
        radiation_residual(a, b)
    with pytest.raises(ValueError):
        radiation_residual(a, ())
    with pytest.raises(ValueError, match="at least one mode"):
        radiation_residual((), ())


def test_radiation_rejects_nonfinite_modes_and_non_unit_rotors():
    with pytest.raises(ValueError, match="omega"):
        RadiationMode(ONE, float("nan"), [1.0, 0, 0])
    with pytest.raises(ValueError, match="wavevector"):
        RadiationMode(ONE, 2.0, [1.0, float("inf"), 0])
    a = (RadiationMode(ONE, 2.0, [1.0, 0, 0]),)
    with pytest.raises(ValueError, match="unit modulus"):
        radiation_residual(a, a, Quat(2.0))


def test_solution_check_threshold_is_the_pair_residual():
    fd = FieldData(0.8)
    mode = plane_wave_modes([0.3, -0.2, 0.5], fd)[3]
    pair = spinor_to_pair(mode.amplitude)
    # an energy shifted by d adds d*phi1 and d*phi2 to the two residuals
    scale = max(abs(z) for z in pair.phi1.components + pair.phi2.components)
    for factor in (1.01, 0.99):
        shifted = PlaneWaveMode(
            mode.energy + factor * 1e-8 / scale, mode.momentum, mode.amplitude
        )
        r1, r2 = pair_residual(pair, shifted, fd)
        residual = max(r1.max_abs(), r2.max_abs())
        assert abs(residual / 1e-8 - factor) < 1e-6
        if residual > 1e-8:
            with pytest.raises(NotASolution, match="fails its residual"):
                current_divergence([(pair, shifted)], fd)
        else:
            assert current_divergence([(pair, shifted)], fd) < 1e-12
