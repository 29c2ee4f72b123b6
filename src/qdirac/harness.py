"""Seeded verification suites, the finite-difference oracle, and reports.

Public API: ``SuiteConfig`` and ``run_suite`` run a suite (or ``"all"``)
into a ``VerificationReport`` of ``CaseResult`` lines, ``emit_report``
renders it as text or JSON, and ``list_suites`` names the suites.  The
grid oracle is ``Grid4``, ``sample_quat_mode`` and ``fd_apply_D``; the
dense oracles are ``embed4``, ``rotation_matrix4``,
``temporal_rotation_matrix4``, ``boost_matrix4`` and
``quat_to_minkowski``/``minkowski_to_quat``.

Each suite is an ordered list of cases.  A case is a generator that draws
its instances from a counter-based generator keyed by (seed, suite, case
name), so it draws the same instances under ``all`` as under its own suite,
and yields one residual per check; ``_run_case`` reduces them to the
largest.  A case passes when that residual is at most its pinned tolerance.
Cases come in three kinds: only ``residual`` tolerances scale with
``cfg.tol / 1e-10``, while ``guard`` cases (yield 0 or 1, and 1 when the
guarded quantity is NaN) and ``order`` cases (yield the gap of a
convergence ratio from 4) keep theirs.  A case fails when any residual is
NaN or infinite, whatever the tolerance, when it yields none, or when it
raises; the exception goes to stderr and the other cases still run.  Reports are deterministic for a fixed
(suite, seed, config) up to the elapsed-time fields.  The ``qdirac``
command exits 0 when every case passes, 1 when any fails and 2 on a usage
or configuration error.

Independent oracles live here rather than in the library modules: the
4x4 dense embedding for block products, rotation and boost matrices for
the four-vector laws, spatial- and temporal-plane rotation matrices for
the multiplication patterns of Table 1, and central differences on a
spacetime grid for the derivative symbol and for current conservation.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import blocks as bl
from . import current as cur
from . import dirac as dr
from . import quaternion as qt
from . import spinor_maps as sm
from . import transforms as tr
from .quaternion import Quat

__all__ = [
    "SuiteConfig",
    "CaseResult",
    "VerificationReport",
    "Grid4",
    "GridTooSmall",
    "UnknownSuite",
    "fd_apply_D",
    "sample_quat_mode",
    "run_suite",
    "emit_report",
    "list_suites",
    "embed4",
    "rotation_matrix4",
    "temporal_rotation_matrix4",
    "boost_matrix4",
    "quat_to_minkowski",
    "minkowski_to_quat",
]

_REFERENCE_TOL = 1e-10
# coarse grid spacing of the finite-difference convergence cases
_GRID_SPACING = 0.05


class UnknownSuite(ValueError):
    """Requested suite name is not registered."""


class GridTooSmall(ValueError):
    """A grid axis is too short for central differences."""


@dataclass(frozen=True)
class SuiteConfig:
    suite: str
    seed: int = 0
    trials: int = 200
    tol: float = _REFERENCE_TOL
    n_set: tuple[int, ...] = (-1, 0, 1, 2)

    def __post_init__(self):
        if not isinstance(self.seed, numbers.Integral):
            raise ValueError("seed must be an integer, got %r" % (self.seed,))
        object.__setattr__(self, "seed", int(self.seed))
        if self.seed < 0:
            raise ValueError("seed must be non-negative, got %r" % (self.seed,))
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError("tol must be positive and finite, got %r" % (self.tol,))
        object.__setattr__(self, "n_set", tuple(int(n) for n in self.n_set))
        if not self.n_set:
            raise ValueError("n_set must hold at least one exponent")


@dataclass(frozen=True)
class CaseResult:
    name: str
    max_residual: float
    passed: bool
    tol: float
    kind: str
    elapsed: float


@dataclass(frozen=True)
class VerificationReport:
    suite: str
    seed: int
    config: dict
    cases: tuple[CaseResult, ...]
    passed: bool
    elapsed: float


# ---------------------------------------------------------------------------
# grids and the finite-difference oracle

@dataclass(frozen=True)
class Grid4:
    """Uniformly spaced quaternion samples on a centered spacetime box.

    Grids fed to the difference operators need at least 5 points per axis;
    derivative grids (one point shorter on each side) may be smaller.
    """

    spacing: float
    values: np.ndarray  # shape (n0, n1, n2, n3, 4), complex

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=complex))
        if self.values.ndim != 5 or self.values.shape[-1] != 4:
            raise ValueError("grid values must have shape (n0, n1, n2, n3, 4)")
        if min(self.values.shape[:4]) < 1:
            raise GridTooSmall("grid has an empty axis")
        if not (math.isfinite(self.spacing) and self.spacing > 0):
            raise ValueError(
                "spacing must be positive and finite, got %r" % (self.spacing,)
            )


def grid_axes(shape, spacing: float) -> list[np.ndarray]:
    return [(np.arange(n) - (n - 1) / 2.0) * spacing for n in shape]


def sample_quat_mode(
    amplitude: Quat, energy: float, momentum, shape=(5, 5, 5, 5), spacing: float = 0.05
) -> Grid4:
    """Sample amplitude * exp(i(p.x - E*x0)) on a centered grid."""
    momentum = np.asarray(momentum, dtype=float)
    axes = grid_axes(shape, spacing)
    phase = (
        -energy * axes[0][:, None, None, None]
        + momentum[0] * axes[1][None, :, None, None]
        + momentum[1] * axes[2][None, None, :, None]
        + momentum[2] * axes[3][None, None, None, :]
    )
    wave = np.exp(1j * phase)
    comps = np.array(amplitude.components)
    return Grid4(spacing, wave[..., None] * comps)


def _central_diff(
    values: np.ndarray, axis: int, spacing: float, out: np.ndarray | None = None
) -> np.ndarray:
    hi = [slice(1, -1)] * 4
    lo = [slice(1, -1)] * 4
    hi[axis] = slice(2, None)
    lo[axis] = slice(None, -2)
    hi.append(slice(None))
    lo.append(slice(None))
    out = np.subtract(values[tuple(hi)], values[tuple(lo)], out=out)
    out /= 2.0 * spacing
    return out


# left multiplication by e_r: (source component, sign) of each output component
_BASIS_LEFT_MUL = {
    1: ((1, -1), (0, 1), (3, -1), (2, 1)),
    2: ((2, -1), (3, 1), (0, 1), (1, -1)),
    3: ((3, -1), (2, -1), (1, 1), (0, 1)),
}


def fd_apply_D(grid: Grid4, conjugate: bool = False) -> Grid4:
    """Central-difference application of the derivative quaternion.

    The temporal component enters as i * d/dx0; spatial derivatives are
    left-multiplied by their basis quaternion, and subtracted instead of
    added for the conjugated derivative (``conjugate=True``).  The returned
    grid shrinks by one point on each side.  Each spatial difference goes
    into one reused buffer and its signed components straight into the
    output, so a call allocates two interior-size arrays and no more.
    """
    values = grid.values
    if min(values.shape[:4]) < 5:
        raise GridTooSmall("need at least 5 points per axis")
    out = 1j * _central_diff(values, 0, grid.spacing)
    diff = np.empty(out.shape, dtype=values.dtype)
    for r in (1, 2, 3):
        _central_diff(values, r, grid.spacing, out=diff)
        for k, (j, sign) in enumerate(_BASIS_LEFT_MUL[r]):
            combine = np.add if (sign > 0) != conjugate else np.subtract
            combine(out[..., k], diff[..., j], out=out[..., k])
    return Grid4(grid.spacing, out)


# ---------------------------------------------------------------------------
# independent oracles

def embed4(x) -> np.ndarray:
    """Dense 4x4 complex embedding of a reflector or rotator."""
    out = np.zeros((4, 4), dtype=complex)
    if isinstance(x, bl.Rotator):
        out[:2, :2] = qt.to_matrix(x.upper)
        out[2:, 2:] = qt.to_matrix(x.lower)
    else:
        out[:2, 2:] = qt.to_matrix(x.upper)
        out[2:, :2] = qt.to_matrix(x.lower)
    return out


def rotation_matrix4(axis, angle: float) -> np.ndarray:
    """Rotation of the spatial coordinates by ``angle`` about a unit axis:
    I + sin(angle) K + (1 - cos(angle)) K K, with K the cross-product matrix
    [[0, -z, y], [z, 0, -x], [-y, x, 0]] of the axis."""
    x, y, z = (float(v) for v in axis)
    s, t = math.sin(angle), 1 - math.cos(angle)
    return np.array(
        [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 1.0 + t * (-z * z - y * y), -s * z + t * (y * x), s * y + t * (z * x)],
            [0.0, s * z + t * (x * y), 1.0 + t * (-z * z - x * x), -s * x + t * (z * y)],
            [0.0, -s * y + t * (x * z), s * x + t * (y * z), 1.0 + t * (-y * y - x * x)],
        ]
    )


def _time_axis_matrix4(axis, c: float, s_row: float, s_col: float) -> np.ndarray:
    """[[c, s_row a^T], [s_col a, I + (c - 1) a a^T]] for a unit axis a."""
    x, y, z = (float(v) for v in axis)
    d = c - 1.0
    return np.array(
        [
            [c, s_row * x, s_row * y, s_row * z],
            [s_col * x, 1.0 + d * (x * x), d * (x * y), d * (x * z)],
            [s_col * y, d * (y * x), 1.0 + d * (y * y), d * (y * z)],
            [s_col * z, d * (z * x), d * (z * y), 1.0 + d * (z * z)],
        ]
    )


def temporal_rotation_matrix4(axis, angle: float) -> np.ndarray:
    """Rotation of the plane of the temporal axis and (0, axis), turning the
    temporal axis toward (0, axis) for a positive angle."""
    s = math.sin(angle)
    return _time_axis_matrix4(axis, math.cos(angle), -s, s)


def boost_matrix4(axis, rapidity: float) -> np.ndarray:
    s = math.sinh(rapidity)
    return _time_axis_matrix4(axis, math.cosh(rapidity), s, s)


def quat_to_minkowski(q: Quat) -> np.ndarray:
    """Real Minkowski components of a Euclidean four-vector quaternion."""
    c0, c1, c2, c3 = q.components
    t = 1j * c0
    scale = max(1.0, abs(t), abs(c1), abs(c2), abs(c3))
    if max(abs(t.imag), abs(c1.imag), abs(c2.imag), abs(c3.imag)) > 1e-9 * scale:
        raise ValueError("quaternion is not a Euclidean four-vector")
    return np.array([t.real, c1.real, c2.real, c3.real])


def minkowski_to_quat(v) -> Quat:
    v = np.asarray(v, dtype=float)
    return Quat(-1j * v[0], v[1], v[2], v[3])


def _matrix_oracle(rotor: Quat) -> np.ndarray:
    """Rotation matrix of a rotor whose spatial part is real, boost matrix of
    one whose temporal part is real and spatial part imaginary; any other
    rotor, such as a rotation times a boost, raises ValueError."""
    c = np.array(rotor.components)
    if not c[1:].imag.any():
        direction = c[1:].real
        norm = np.linalg.norm(direction)
        angle = 2.0 * math.atan2(norm, c[0].real)
        axis = direction / norm if norm > 0 else np.array([0.0, 0.0, 1.0])
        return rotation_matrix4(axis, angle)
    if c[0].imag or c[1:].real.any():
        raise ValueError("rotor is neither a rotation nor a boost: %r" % (rotor,))
    direction = c[1:].imag
    norm = np.linalg.norm(direction)
    rapidity = 2.0 * math.asinh(norm) * (1.0 if c[0].real >= 0 else -1.0)
    axis = direction / norm if norm > 0 else np.array([1.0, 0.0, 0.0])
    return boost_matrix4(axis, rapidity)


# ---------------------------------------------------------------------------
# seeded draws

def case_rng(seed: int, suite: str, case: str) -> np.random.Generator:
    """Philox generator of one case, keyed by (seed, suite, case name)."""
    key = tuple(("%s/%s" % (suite, case)).encode())
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=key)
    return np.random.Generator(np.random.Philox(ss))


def rand_complex_quat(rng) -> Quat:
    re = rng.uniform(-1.0, 1.0, 4)
    im = rng.uniform(-1.0, 1.0, 4)
    return Quat(*(re + 1j * im))


def rand_real_quat(rng) -> Quat:
    return Quat(*rng.uniform(-1.0, 1.0, 4))


def rand_euclidean_quat(rng) -> Quat:
    u = rng.uniform(-1.0, 1.0, 4)
    return Quat(1j * u[0], u[1], u[2], u[3])


def rand_invertible_quat(rng) -> Quat:
    while True:
        q = rand_complex_quat(rng)
        if abs(q.modulus()) > 0.1:
            return q


def rand_unit3(rng) -> np.ndarray:
    while True:
        v = rng.normal(size=3)
        n = np.linalg.norm(v)
        if n > 1e-3:
            return v / n


def rand_momentum(rng) -> np.ndarray:
    while True:
        p = rng.uniform(-2.0, 2.0, 3)
        if np.linalg.norm(p) <= 2.0:
            return p


def rand_rotor(rng, kind: str | None = None) -> Quat:
    """A rotation by [0, pi) or a boost of rapidity [-2, 2) about a random
    axis; ``kind`` "spatial" or "boost" picks one, else a coin does."""
    if kind is None:
        kind = "spatial" if rng.integers(2) == 0 else "boost"
    if kind == "spatial":
        return tr.rotor_spatial(rand_unit3(rng), rng.uniform(0.0, math.pi))
    return tr.rotor_boost(rand_unit3(rng), rng.uniform(-2.0, 2.0))


def rand_field(rng, with_potential: bool = False) -> dr.FieldData:
    mass = rng.uniform(0.1, 2.0)
    potential = rng.uniform(-1.0, 1.0, 4) if with_potential else np.zeros(4)
    return dr.FieldData(mass, potential)


def rand_solution(rng, fd: dr.FieldData):
    modes = dr.plane_wave_modes(rand_momentum(rng), fd)
    mode = modes[int(rng.integers(4))]
    return mode, dr.spinor_to_pair(mode.amplitude)


def _rand_state(rng, with_potential: bool = True) -> dr.DiracState:
    fd = rand_field(rng, with_potential=with_potential)
    mode, _ = rand_solution(rng, fd)
    return dr.state_from_mode(mode, fd)


def rand_complex_vec(rng, size: int) -> np.ndarray:
    return rng.uniform(-1, 1, size) + 1j * rng.uniform(-1, 1, size)


def _n_draws(cfg) -> list[int]:
    """``cfg.trials`` exponents: those of ``cfg.n_set`` in order, in blocks
    whose sizes differ by at most one, the first blocks the larger."""
    per_n, extra = divmod(cfg.trials, len(cfg.n_set))
    return [n for k, n in enumerate(cfg.n_set) for _ in range(per_n + (k < extra))]


# ---------------------------------------------------------------------------
# residual helpers shared by the cases

def _max_abs(x) -> float:
    return float(np.abs(x).max())


def _raises(exc, fn, *args) -> float:
    """Guard residual: 0.0 when ``fn(*args)`` raises ``exc``, 1.0 when it returns."""
    try:
        fn(*args)
    except exc:
        return 0.0
    return 1.0


_NULL = Quat(1.0, 0.0, 0.0, 1j)  # nonzero, with zero complex modulus


# ---------------------------------------------------------------------------
# algebra suite

def _case_basis_products(rng, cfg):
    cyc = ((qt.I1, qt.I2, qt.I3), (qt.I2, qt.I3, qt.I1), (qt.I3, qt.I1, qt.I2))
    for a, b, c in cyc:
        yield (a * b - c).max_abs()
        yield (b * a + c).max_abs()
        yield (a * a + qt.ONE).max_abs()
    q = rand_complex_quat(rng)
    yield (qt.ONE * q - q).max_abs()
    yield (q * qt.ONE - q).max_abs()


def _case_associativity(rng, cfg):
    for _ in range(cfg.trials):
        a, b, c = (rand_complex_quat(rng) for _ in range(3))
        yield ((a * b) * c - a * (b * c)).max_abs()


def _case_conjugation_anti_homomorphism(rng, cfg):
    for _ in range(cfg.trials):
        a, b = rand_complex_quat(rng), rand_complex_quat(rng)
        ab = a * b
        yield (ab.quat_conj() - b.quat_conj() * a.quat_conj()).max_abs()
        yield (ab.herm_conj() - b.herm_conj() * a.herm_conj()).max_abs()
        yield (ab.complex_conj() - a.complex_conj() * b.complex_conj()).max_abs()
        yield (a.quat_conj().complex_conj() - a.herm_conj()).max_abs()
        yield (a.complex_conj().quat_conj() - a.herm_conj()).max_abs()


def _case_dot_two_routes(rng, cfg):
    for _ in range(cfg.trials):
        a, b = rand_complex_quat(rng), rand_complex_quat(rng)
        sandwich = (a.quat_conj() * b + b.quat_conj() * a) * 0.5
        yield abs(qt.dot(a, b) - sandwich.temporal)
        yield sandwich.spatial.max_abs()
        yield abs(qt.dot(a, a) - a.modulus())


def _case_matrix_homomorphism(rng, cfg):
    for _ in range(cfg.trials):
        a, b = rand_complex_quat(rng), rand_complex_quat(rng)
        yield _max_abs(qt.to_matrix(a * b) - qt.to_matrix(a) @ qt.to_matrix(b))


def _case_matrix_roundtrip(rng, cfg):
    for _ in range(cfg.trials):
        q = rand_complex_quat(rng)
        yield (qt.from_matrix(qt.to_matrix(q)) - q).max_abs()


def _case_matrix_trace(rng, cfg):
    for _ in range(cfg.trials):
        q = rand_complex_quat(rng)
        yield abs(np.trace(qt.to_matrix(q)) - 2.0 * q.temporal)


def _case_real_conjugations_coincide(rng, cfg):
    for _ in range(cfg.trials):
        q = rand_real_quat(rng)
        yield (q.quat_conj() - q.herm_conj()).max_abs()


def _case_modulus_inverse(rng, cfg):
    for _ in range(cfg.trials):
        q = rand_invertible_quat(rng)
        inv = q.inverse()
        yield (inv * q - qt.ONE).max_abs()
        yield (q * inv - qt.ONE).max_abs()


def _case_null_inversion_guard(rng, cfg):
    yield _raises(qt.SingularQuaternion, _NULL.inverse)


# ---------------------------------------------------------------------------
# maps suite

def _case_lift_identity_row(name, roundtrip):
    """``roundtrip(v)`` projects the lift of a 2-column v back to v.  It looks
    the maps up when called, so that a patched map reaches the case."""

    def case(rng, cfg):
        for _ in range(cfg.trials):
            v = rand_complex_vec(rng, 2)
            yield _max_abs(roundtrip(v) - v)

    case.__name__ = "_case_" + name
    return case


def _case_lift_real_components(rng, cfg):
    for _ in range(cfg.trials):
        v = rand_complex_vec(rng, 2)
        for lifted in (sm.lift_G(v), sm.lift_L(v)):
            yield _max_abs(np.imag(lifted.components))


def _case_scalar_shift(rng, cfg):
    for _ in range(cfg.trials):
        q = rand_complex_quat(rng)
        yield _max_abs(sm.map_F(q * (-qt.I3)) - 1j * sm.map_F(q))
        yield _max_abs(sm.map_N(q * qt.I3) - 1j * sm.map_N(q))


def _case_ideal_double(rng, cfg):
    for _ in range(cfg.trials):
        q = rand_complex_quat(rng)
        yield _max_abs(sm.map_F(q * sm.ideal_factor(1)) - 2.0 * sm.map_F(q))
        yield _max_abs(sm.map_N(q * sm.ideal_factor(-1)) - 2.0 * sm.map_N(q))


def _case_lift_commutation(rng, cfg):
    for _ in range(cfg.trials):
        q = rand_real_quat(rng)
        basis = qt.BASIS[int(rng.integers(4))]
        col = qt.to_matrix(basis) @ sm.map_F(q)
        yield (sm.lift_G(col) - basis * q).max_abs()
        yield (sm.lift_G(1j * col) - basis * q * (-qt.I3)).max_abs()


def _case_gf_ideal(rng, cfg):
    factor = sm.ideal_factor(1)
    for _ in range(cfg.trials):
        q = rand_complex_quat(rng)
        yield (sm.lift_G(sm.map_F(q)) * factor - q * factor).max_abs()


def _case_idempotent(rng, cfg):
    half = sm.ideal_factor(1) * 0.5
    yield (half * half - half).max_abs()


def _case_contraction_row(name, matrices, right):
    """<F q| m_k F u> against dot(q, i_k u right) for each pair (m_k, i_k)."""

    def case(rng, cfg):
        for _ in range(cfg.trials):
            q, u = rand_real_quat(rng), rand_real_quat(rng)
            fq, fu = sm.map_F(q), sm.map_F(u)
            for matrix, basis in zip(matrices, qt.BASIS[1:]):
                lhs = np.vdot(fq, matrix @ fu).real
                yield abs(lhs - qt.dot(q, basis * u * right))

    case.__name__ = "_case_" + name
    return case


def _case_bijection_roundtrip(rng, cfg):
    for _ in range(cfg.trials):
        v = rand_complex_vec(rng, 4)
        yield _max_abs(sm.quat_to_vec(sm.vec_to_quat(v)) - v)


# ---------------------------------------------------------------------------
# blocks suite

def _rand_block(rng, cls=None, draw=rand_complex_quat):
    if cls is None:
        cls = bl.Reflector if rng.integers(2) == 0 else bl.Rotator
    return cls(draw(rng), draw(rng))


def _case_product_vs_embedding(rng, cfg):
    for _ in range(cfg.trials):
        x, y = _rand_block(rng), _rand_block(rng)
        yield _max_abs(embed4(x * y) - embed4(x) @ embed4(y))


def _case_parity_rule(rng, cfg):
    for count, expected in ((2, bl.Rotator), (3, bl.Reflector), (4, bl.Rotator)):
        out = _rand_block(rng, bl.Reflector)
        for _ in range(count - 1):
            out = out * _rand_block(rng, bl.Reflector)
        yield 0.0 if isinstance(out, expected) else 1.0


def _case_rotator_conj_anti_homomorphism(rng, cfg):
    for _ in range(cfg.trials):
        x, y = _rand_block(rng, bl.Rotator), _rand_block(rng, bl.Rotator)
        lhs = embed4((x * y).quat_conj())
        yield _max_abs(lhs - embed4(y.quat_conj() * x.quat_conj()))


def _case_trace_embedding(rng, cfg):
    for _ in range(cfg.trials):
        x = _rand_block(rng, bl.Rotator)
        yield abs(np.trace(embed4(x)) - 2.0 * x.trace().temporal)
        yield _rand_block(rng, bl.Reflector).trace().max_abs()


def _case_trace_temporal_similarity(rng, cfg):
    for _ in range(cfg.trials):
        x = _rand_block(rng, bl.Rotator)
        r, rc = tr.rotor_blocks(rand_rotor(rng))
        y = r * x * rc
        yield abs(y.trace().temporal - x.trace().temporal)
        # per-block temporal components are individually preserved
        yield abs(y.upper.temporal - x.upper.temporal)
        yield abs(y.lower.temporal - x.lower.temporal)


def _case_reflector_equation_invariance(rng, cfg):
    for _ in range(cfg.trials):
        q = rand_invertible_quat(rng)
        p = rand_invertible_quat(rng)
        qq = bl.Reflector(q, q.quat_conj())
        pp = bl.Reflector(p, p.quat_conj())
        ww = pp.inverse() * qq * pp
        yield (qq * pp - pp * ww).max_abs()
        r, rc = tr.rotor_blocks(rand_rotor(rng))
        qq2, pp2, ww2 = (r * x * rc for x in (qq, pp, ww))
        yield (qq2 * pp2 - pp2 * ww2).max_abs()


def _case_block_inverse(rng, cfg):
    ident = embed4(bl.identity_rotator())
    for _ in range(cfg.trials):
        x = _rand_block(rng, draw=rand_invertible_quat)
        yield _max_abs(embed4(x.inverse() * x) - ident)


def _case_block_guards(rng, cfg):
    one = bl.Reflector(qt.ONE, qt.ONE)
    yield _raises(TypeError, lambda: one + bl.Rotator(qt.ONE, qt.ONE))
    yield _raises(qt.SingularQuaternion, bl.Rotator(_NULL, qt.ONE).inverse)


# ---------------------------------------------------------------------------
# table of multiplication patterns

# Table 1: pattern -> (c_s, c_t).  Under a rotor about axis a by angle t the
# pattern's linear map on the components (q0, q1, q2, q3) is
# temporal_rotation_matrix4(a, c_t*t) @ rotation_matrix4(a, c_s*t).
_PATTERN_COEFFS = {
    "RQ": (0.5, 0.5),
    "QR": (-0.5, 0.5),
    "RcQ": (-0.5, -0.5),
    "QRc": (0.5, -0.5),
    "RQR": (0.0, 1.0),
    "RQRc": (1.0, 0.0),
    "RcQR": (-1.0, 0.0),
    "RcQRc": (0.0, -1.0),
}


def _case_pattern_row(pattern):
    coeff_s, coeff_t = _PATTERN_COEFFS[pattern]

    def case(rng, cfg):
        for _ in range(cfg.trials):
            angle = rng.uniform(0.05, math.pi - 0.05)
            axis = rand_unit3(rng)
            rotor = tr.rotor_spatial(axis, angle)
            spatial = rotation_matrix4(axis, coeff_s * angle)
            want = temporal_rotation_matrix4(axis, coeff_t * angle) @ spatial
            # column k is the pattern applied to the basis quaternion k
            got = [tr.pattern_rotate(pattern, rotor, b).components for b in qt.BASIS]
            yield _max_abs(np.array(got).T - want)

    case.__name__ = "_case_pattern_" + pattern.lower()
    return case


def _case_identity_pattern(rng, cfg):
    for pattern in tr.ROTATION_PATTERNS:
        q = rand_real_quat(rng)
        yield (tr.pattern_rotate(pattern, qt.ONE, q) - q).max_abs()


# ---------------------------------------------------------------------------
# invariance suite (four-vector laws, boosts, exponent-n transformation)

def _case_boost_unit_time(rng, cfg):
    unit_time = minkowski_to_quat([1.0, 0, 0, 0])
    for _ in range(cfg.trials):
        axis = rand_unit3(rng)
        w = rng.uniform(-2.0, 2.0)
        moved = tr.four_vector_transform(unit_time, tr.rotor_boost(axis, w))
        out = quat_to_minkowski(moved)
        yield _max_abs(out - np.concatenate([[math.cosh(w)], math.sinh(w) * axis]))


def _case_four_vector_vs_matrix(rng, cfg):
    for _ in range(cfg.trials):
        for kind in ("spatial", "boost"):
            rotor = rand_rotor(rng, kind)
            q = rand_euclidean_quat(rng)
            got = quat_to_minkowski(tr.four_vector_transform(q, rotor))
            yield _max_abs(got - _matrix_oracle(rotor) @ quat_to_minkowski(q))


def _case_interval_preservation(rng, cfg):
    for _ in range(cfg.trials):
        q = rand_euclidean_quat(rng)
        v = quat_to_minkowski(q)
        v2 = quat_to_minkowski(tr.four_vector_transform(q, rand_rotor(rng, "boost")))
        yield abs((v[0] ** 2 - v[1:] @ v[1:]) - (v2[0] ** 2 - v2[1:] @ v2[1:]))


def _case_composition(rng, cfg):
    move = tr.four_vector_transform
    for _ in range(cfg.trials):
        q = rand_euclidean_quat(rng)
        r1, r2 = rand_rotor(rng, "spatial"), rand_rotor(rng, "spatial")
        yield (move(move(q, r1), r2) - move(q, r2 * r1)).max_abs()
        axis = rand_unit3(rng)
        w1, w2 = rng.uniform(-2, 2, 2)
        b1, b2 = tr.rotor_boost(axis, w1), tr.rotor_boost(axis, w2)
        yield (move(move(q, b1), b2) - move(q, tr.rotor_boost(axis, w1 + w2))).max_abs()
        yield (move(move(q, b1), tr.rotor_boost(axis, -w1)) - q).max_abs()
        # rotation then boost: one mixed rotor, neither a rotation nor a boost
        mixed = move(q, b1 * r1)
        yield (move(move(q, r1), b1) - mixed).max_abs()
        oracle = _matrix_oracle(b1) @ _matrix_oracle(r1) @ quat_to_minkowski(q)
        yield _max_abs(quat_to_minkowski(mixed) - oracle)


def _case_blocks_vs_vector_path(rng, cfg):
    for _ in range(cfg.trials):
        rotor = rand_rotor(rng)
        q = rand_euclidean_quat(rng)
        r, rc = tr.rotor_blocks(rotor)
        moved = r * bl.Reflector(q, q.quat_conj()) * rc
        direct = tr.four_vector_transform(q, rotor)
        yield (moved.upper - direct).max_abs()
        yield (moved.lower - direct.quat_conj()).max_abs()


def _case_n_invariance(rng, cfg):
    for n in _n_draws(cfg):
        state = _rand_state(rng)
        moved = dr.transform_state(state, tr.TransformSpec(rand_rotor(rng), n))
        yield moved.residual().max_abs()


def _case_mass_four_vector(rng, cfg):
    for _ in range(cfg.trials):
        fd = rand_field(rng)
        state = dr.state_from_mode(dr.plane_wave_modes(np.zeros(3), fd)[3], fd)
        spec = tr.TransformSpec(rand_rotor(rng, "boost"), 1)
        mass_after = dr.transform_state(state, spec).m.upper
        direct = tr.four_vector_transform(Quat(fd.euclidean_mass), spec.rotor)
        yield (mass_after - direct).max_abs()
        oracle = _matrix_oracle(spec.rotor) @ np.array([fd.mass, 0.0, 0.0, 0.0])
        yield _max_abs(quat_to_minkowski(mass_after) - oracle)
    # a unit-rapidity boost must push the mass off the temporal axis
    fd = dr.FieldData(1.0)
    state = dr.state_from_mode(dr.plane_wave_modes(np.zeros(3), fd)[3], fd)
    spec = tr.TransformSpec(tr.rotor_boost(np.array([1.0, 0, 0]), 1.0), 1)
    moved = dr.transform_state(state, spec).m.upper
    yield 0.0 if moved.spatial.max_abs() >= 1e-3 else 1.0


def _case_mass_fixed_n0(rng, cfg):
    for _ in range(cfg.trials):
        state = _rand_state(rng, with_potential=False)
        moved = dr.transform_state(state, tr.TransformSpec(rand_rotor(rng), 0))
        yield (moved.m - state.m).max_abs()


# ---------------------------------------------------------------------------
# equivalence suite

def _case_translated_residuals(rng, cfg):
    for _ in range(cfg.trials):
        fd = rand_field(rng, with_potential=True)
        for mode in dr.plane_wave_modes(rand_momentum(rng), fd):
            r1, r2 = dr.pair_residual(dr.spinor_to_pair(mode.amplitude), mode, fd)
            yield r1.max_abs()
            yield r2.max_abs()
            yield dr.state_from_mode(mode, fd).residual().max_abs()


def _case_block_equals_pair(rng, cfg):
    for _ in range(cfg.trials):
        fd = rand_field(rng, with_potential=True)
        energy, p = rng.uniform(-2, 2), rand_momentum(rng)
        mode = dr.PlaneWaveMode(energy, p, rng.normal(size=4) + 1j * rng.normal(size=4))
        r1, r2 = dr.pair_residual(dr.spinor_to_pair(mode.amplitude), mode, fd)
        block = dr.state_from_mode(mode, fd).residual()
        yield (block.upper - r2).max_abs()
        yield (block.lower - r1).max_abs()


def _case_spinor_roundtrip(rng, cfg):
    for _ in range(cfg.trials):
        psi = rand_complex_vec(rng, 4)
        for lift in ("G", "L"):
            yield _max_abs(dr.pair_to_spinor(dr.spinor_to_pair(psi, lift)) - psi)


def _case_ideal_membership(rng, cfg):
    factor = sm.ideal_factor(1)
    for _ in range(cfg.trials):
        pair = dr.spinor_to_pair(rand_complex_vec(rng, 4))
        for phi in (pair.phi1, pair.phi2):
            yield (phi * factor - 2.0 * phi).max_abs()


def _rand_spectra(rng, cfg, with_shift: bool = False):
    """Draw each trial's field, momentum and, ``with_shift``, energy shift in
    turn, then take all the Hamiltonian spectra in one stacked ``eigvalsh``."""
    draws = []
    for _ in range(cfg.trials):
        fd = rand_field(rng, with_potential=True)
        p = rand_momentum(rng)
        draws.append((fd, p, rng.uniform(0.5, 1.5) if with_shift else None))
    spectra = np.linalg.eigvalsh(
        np.stack([dr.dirac_hamiltonian(p, fd) for fd, p, _ in draws])
    )
    return draws, spectra


def _smallest_singular_values(systems) -> np.ndarray:
    return np.linalg.svd(np.stack(systems), compute_uv=False)[:, -1]


def _case_eigenvalue_match(rng, cfg):
    draws, spectra = _rand_spectra(rng, cfg)
    systems = [
        dr.pair_system_matrix(float(e), p, fd, lift)
        for (fd, p, _), energies in zip(draws, spectra)
        for lift in ("G", "L")
        for e in energies
    ]
    yield from _smallest_singular_values(systems).tolist()


def _case_off_eigenvalue_nonsingular(rng, cfg):
    draws, spectra = _rand_spectra(rng, cfg, with_shift=True)
    systems = [
        dr.pair_system_matrix(float(energies[-1]) + shift, p, fd)
        for (fd, p, shift), energies in zip(draws, spectra)
    ]
    for sigma in _smallest_singular_values(systems):
        yield 0.0 if sigma >= 1e-3 else 1.0


def _case_massless_mode(rng, cfg):
    fd = dr.FieldData(0.0)
    factor = sm.ideal_factor(1)
    for _ in range(cfg.trials):
        p = rand_momentum(rng)
        while np.linalg.norm(p) < 0.1:
            p = rand_momentum(rng)
        mode = dr.PlaneWaveMode(float(np.linalg.norm(p)), p, np.zeros(4))
        sym, sym_c = dr.momentum_symbol(mode)
        pair = dr.BispinorPair(sym * factor, sym_c * factor)
        r1, r2 = dr.pair_residual(pair, mode, fd)
        yield r1.max_abs()
        yield r2.max_abs()


def _case_rest_frame_values(rng, cfg):
    fd = dr.FieldData(1.0)
    positive = [m for m in dr.plane_wave_modes(np.zeros(3), fd) if m.energy > 0]
    # project the degenerate eigenspace onto the first basis spinor
    psi = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
    pair = dr.spinor_to_pair(psi)
    yield (pair.phi1 - Quat(1.0, 0.0, 0.0, 1j)).max_abs()
    yield (pair.phi2 - (-qt.I3) * sm.ideal_factor(1)).max_abs()
    mode = dr.PlaneWaveMode(positive[0].energy, np.zeros(3), psi)
    r1, r2 = dr.pair_residual(pair, mode, fd)
    yield r1.max_abs()
    yield r2.max_abs()


# ---------------------------------------------------------------------------
# symmetries suite

def _state_gaps(a: dr.DiracState, b: dr.DiracState):
    yield (a.d - b.d).max_abs()
    yield (a.a - b.a).max_abs()
    yield (a.phi - b.phi).max_abs()
    yield (a.m - b.m).max_abs()


def _case_preserves_row(kind):
    def case(rng, cfg):
        for _ in range(cfg.trials):
            state = _rand_state(rng)
            yield dr.apply_discrete(state, kind).residual().max_abs()

    case.__name__ = "_case_%s_preserves" % kind
    return case


def _case_involutions(rng, cfg):
    for _ in range(cfg.trials):
        state = _rand_state(rng)
        for kind in ("parity", "time_reversal", "charge_conjugation"):
            twice = dr.apply_discrete(dr.apply_discrete(state, kind), kind)
            yield from _state_gaps(twice, state)


def _case_charge_conjugation_flips_potential(rng, cfg):
    for _ in range(cfg.trials):
        state = _rand_state(rng)
        image = dr.apply_discrete(state, "charge_conjugation")
        yield image.residual().max_abs()
        yield (image.a - (-state.a)).max_abs()


# ---------------------------------------------------------------------------
# current suite

def _case_current_pipelines(rng, cfg):
    for _ in range(cfg.trials):
        psi = rand_complex_vec(rng, 4)
        pair = dr.spinor_to_pair(psi)
        from_pair = cur.pair_current(pair)
        yield _max_abs(from_pair - cur.euclidean_current(psi))
        yield _max_abs(cur.block_current(pair) - from_pair)


def _case_current_rest_frame(rng, cfg):
    pair = dr.spinor_to_pair(np.array([1.0, 0, 0, 0], dtype=complex))
    yield _max_abs(cur.pair_current(pair) - np.array([-1j, 0, 0, 0]))


def _case_current_scaling(rng, cfg):
    for _ in range(cfg.trials):
        psi = rand_complex_vec(rng, 4)
        c = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        j1 = cur.pair_current(dr.spinor_to_pair(psi))
        j2 = cur.pair_current(dr.spinor_to_pair(c * psi))
        yield _max_abs(j2 - abs(c) ** 2 * j1)
    yield _max_abs(cur.pair_current(dr.spinor_to_pair(np.zeros(4, dtype=complex))))


def _case_current_density_positive(rng, cfg):
    for _ in range(cfg.trials):
        psi = rand_complex_vec(rng, 4)
        if not cur.spinor_current(psi)[0] >= 0:  # NaN fails too
            yield 1.0
        # Euclidean temporal component is purely imaginary, spatial real
        je = cur.pair_current(dr.spinor_to_pair(psi))
        yield abs(je[0].real)
        yield _max_abs(je[1:].imag)


def _case_current_covariance(rng, cfg):
    for _ in range(cfg.trials):
        pair = dr.spinor_to_pair(rand_complex_vec(rng, 4))
        n = cfg.n_set[int(rng.integers(len(cfg.n_set)))]
        spec = tr.TransformSpec(rand_rotor(rng), n)
        report = cur.current_covariance(pair, spec)
        yield report.scalar_residual
        got = quat_to_minkowski(report.j_after)
        oracle = _matrix_oracle(spec.rotor) @ quat_to_minkowski(report.j_before)
        yield _max_abs(got - oracle)
        direct = tr.four_vector_transform(report.j_before, spec.rotor)
        yield (report.j_after - direct).max_abs()


# ---------------------------------------------------------------------------
# conservation suite

def _two_mode_solution(rng, fd):
    return [(pair, mode) for mode, pair in (rand_solution(rng, fd) for _ in range(2))]


def _case_single_mode_divergence(rng, cfg):
    for _ in range(max(1, cfg.trials // 10)):
        fd = rand_field(rng)
        mode, pair = rand_solution(rng, fd)
        yield cur.current_divergence([(pair, mode)], fd)


def _case_two_mode_divergence(rng, cfg):
    for _ in range(cfg.trials):
        fd = rand_field(rng)
        yield cur.current_divergence(_two_mode_solution(rng, fd), fd)


def _case_transformed_divergence(rng, cfg):
    for n in _n_draws(cfg):
        fd = rand_field(rng)
        spec = tr.TransformSpec(rand_rotor(rng), n)
        yield cur.current_divergence(_two_mode_solution(rng, fd), fd, spec=spec)


def _case_off_shell_guard(rng, cfg):
    fd = dr.FieldData(1.0)
    mode = dr.PlaneWaveMode(0.5, np.array([1.0, 0, 0]), np.array([1.0, 0, 0, 0]))
    pair = dr.spinor_to_pair(mode.amplitude)
    yield _raises(cur.NotASolution, cur.current_divergence, [(pair, mode)], fd)


def _current_component_grids(solutions, shape, spacing):
    axes = grid_axes(shape, spacing)
    x0 = axes[0][:, None, None, None]
    x1 = axes[1][None, :, None, None]
    x2 = axes[2][None, None, :, None]
    x3 = axes[3][None, None, None, :]
    fields = [np.zeros(shape, dtype=complex) for _ in range(4)]
    for pair_a, mode_a in solutions:
        for pair_b, mode_b in solutions:
            comps = cur.pair_current(pair_a, pair_b)
            # the cross term oscillates as the plane wave of the differences
            # of the energies and momenta
            de = mode_b.energy - mode_a.energy
            dp = mode_b.momentum - mode_a.momentum
            wave = np.exp(1j * (dp[0] * x1 + dp[1] * x2 + dp[2] * x3 - de * x0))
            for mu in range(4):
                fields[mu] += comps[mu] * wave
    return fields


def _fd_divergence_max(fields, spacing):
    div = 1j * _central_diff(fields[0][..., None], 0, spacing)[..., 0]
    for r in (1, 2, 3):
        div = div + _central_diff(fields[r][..., None], r, spacing)[..., 0]
    return float(np.max(np.abs(div)))


def _convergence_gap(error, side: int, h: float) -> float:
    """|coarse/fine - 4| for an error that is second order in the spacing.

    ``error(shape, spacing)`` is taken on ``side`` points per axis at
    spacing ``h`` and on ``2*side - 1`` points over the same box.
    """
    extent = (side - 1) * h
    coarse = error((side,) * 4, h)
    fine = error((2 * side - 1,) * 4, extent / (2 * side - 2))
    return 0.0 if fine == 0.0 else abs(coarse / fine - 4.0)


def _case_fd_divergence_convergence(rng, cfg):
    fd = rand_field(rng)
    solutions = _two_mode_solution(rng, fd)

    def error(shape, spacing):
        fields = _current_component_grids(solutions, shape, spacing)
        return _fd_divergence_max(fields, spacing)

    yield _convergence_gap(error, 9, _GRID_SPACING)


def _symbol_convergence_gap(apply, amplitude, exact, energy, momentum, side, h):
    """``_convergence_gap`` of ``apply`` on the sampled plane wave of
    ``amplitude`` against the sampled wave of ``exact``, the amplitude times
    the operator's symbol, on the points that ``apply`` leaves."""

    def error(shape, spacing):
        def sample(amp):
            return sample_quat_mode(amp, energy, momentum, shape, spacing)

        applied = apply(sample(amplitude)).values
        trim = (shape[0] - applied.shape[0]) // 2
        return _max_abs(applied - sample(exact).values[(slice(trim, -trim),) * 4])

    return _convergence_gap(error, side, h)


def _case_fd_symbol_convergence(rng, cfg):
    fd = rand_field(rng)
    mode, pair = rand_solution(rng, fd)
    sym, _ = dr.momentum_symbol(mode)
    yield _symbol_convergence_gap(
        fd_apply_D, pair.phi1, sym * pair.phi1, mode.energy, mode.momentum, 9,
        _GRID_SPACING,
    )


# ---------------------------------------------------------------------------
# radiation suite

def _rand_radiation_field(rng, count=3) -> tuple[cur.RadiationMode, ...]:
    modes = []
    for _ in range(count):
        while True:
            omega = rng.uniform(-2.0, 2.0)
            k = rand_momentum(rng)
            s = omega**2 - float(k @ k)
            if abs(s) > 0.05:
                break
        modes.append(cur.RadiationMode(rand_euclidean_quat(rng), omega, k))
    return tuple(modes)


def _case_radiation_solve(rng, cfg):
    for _ in range(cfg.trials):
        source = _rand_radiation_field(rng)
        yield cur.radiation_residual(source, cur.solve_potential(source))


def _case_radiation_example(rng, cfg):
    amp = rand_euclidean_quat(rng)
    source = (cur.RadiationMode(amp, 2.0, np.array([1.0, 0, 0])),)
    potential = cur.solve_potential(source)
    yield (potential[0].amplitude - amp / 3.0).max_abs()
    yield cur.radiation_residual(source, potential)


def _case_lightlike_guard(rng, cfg):
    x_axis = np.array([1.0, 0, 0])
    lightlike = (cur.RadiationMode(qt.ONE, 1.0, x_axis),)
    yield _raises(cur.LightlikeMode, cur.solve_potential, lightlike)
    zero = (cur.RadiationMode(Quat(), 2.0, x_axis),)
    yield cur.solve_potential(zero)[0].amplitude.max_abs()


def _case_radiation_transformed(rng, cfg):
    for _ in range(cfg.trials):
        source = _rand_radiation_field(rng)
        potential = cur.solve_potential(source)
        yield cur.radiation_residual(source, potential, rand_rotor(rng))


def _case_dalembertian_fd(rng, cfg):
    mode = _rand_radiation_field(rng, count=1)[0]
    exact = mode.wave_operator() * mode.amplitude
    yield _symbol_convergence_gap(
        lambda grid: fd_apply_D(fd_apply_D(grid, conjugate=True)),
        mode.amplitude, exact, mode.omega, mode.wavevector, 11, _GRID_SPACING,
    )


# ---------------------------------------------------------------------------
# registry

@dataclass(frozen=True)
class _Case:
    name: str
    fn: object  # generator function (rng, cfg) -> residuals
    tol: float
    kind: str  # "residual" (tol scales with --tol), "guard" or "order"


def _cases(*rows) -> list[_Case]:
    """Cases from ``(function, tol, kind)`` lines, named after the function."""
    return [
        _Case(fn.__name__.removeprefix("_case_"), fn, tol, kind)
        for fn, tol, kind in rows
    ]


SUITES: dict[str, list[_Case]] = {
    "algebra": _cases(
        (_case_basis_products, 1e-12, "residual"),
        (_case_associativity, 1e-12, "residual"),
        (_case_conjugation_anti_homomorphism, 1e-12, "residual"),
        (_case_dot_two_routes, 1e-12, "residual"),
        (_case_matrix_homomorphism, 1e-12, "residual"),
        (_case_matrix_roundtrip, 1e-12, "residual"),
        (_case_matrix_trace, 1e-12, "residual"),
        (_case_real_conjugations_coincide, 1e-12, "residual"),
        (_case_modulus_inverse, 1e-10, "residual"),
        (_case_null_inversion_guard, 0.5, "guard"),
    ),
    "maps": _cases(
        *(
            (_case_lift_identity_row(name, roundtrip), 1e-12, "residual")
            for name, roundtrip in (
                ("fg_identity", lambda v: sm.map_F(sm.lift_G(v))),
                ("nl_identity", lambda v: sm.map_N(sm.lift_L(v))),
            )
        ),
        (_case_lift_real_components, 1e-12, "residual"),
        (_case_scalar_shift, 1e-12, "residual"),
        (_case_ideal_double, 1e-12, "residual"),
        (_case_lift_commutation, 1e-12, "residual"),
        (_case_gf_ideal, 1e-12, "residual"),
        (_case_idempotent, 1e-12, "residual"),
        *(
            (_case_contraction_row(name, matrices, right), 1e-12, "residual")
            for name, matrices, right in (
                ("contraction_vector", [qt.to_matrix(b) for b in qt.BASIS[1:]], qt.ONE),
                ("contraction_pauli", sm.SIGMA, -qt.I3),
            )
        ),
        (_case_bijection_roundtrip, 1e-12, "residual"),
    ),
    "blocks": _cases(
        (_case_product_vs_embedding, 1e-12, "residual"),
        (_case_parity_rule, 0.5, "guard"),
        (_case_rotator_conj_anti_homomorphism, 1e-12, "residual"),
        (_case_trace_embedding, 1e-12, "residual"),
        (_case_trace_temporal_similarity, 1e-10, "residual"),
        (_case_reflector_equation_invariance, 1e-10, "residual"),
        (_case_block_inverse, 1e-10, "residual"),
        (_case_block_guards, 0.5, "guard"),
    ),
    "table1": _cases(
        *((_case_pattern_row(p), 1e-12, "residual") for p in tr.ROTATION_PATTERNS),
        (_case_identity_pattern, 1e-12, "residual"),
    ),
    "invariance": _cases(
        (_case_boost_unit_time, 1e-10, "residual"),
        (_case_four_vector_vs_matrix, 1e-10, "residual"),
        (_case_interval_preservation, 1e-10, "residual"),
        (_case_composition, 1e-10, "residual"),
        (_case_blocks_vs_vector_path, 1e-10, "residual"),
        (_case_n_invariance, 1e-8, "residual"),
        (_case_mass_four_vector, 1e-10, "residual"),
        (_case_mass_fixed_n0, 1e-12, "residual"),
    ),
    "equivalence": _cases(
        (_case_translated_residuals, 1e-10, "residual"),
        (_case_block_equals_pair, 1e-12, "residual"),
        (_case_spinor_roundtrip, 1e-12, "residual"),
        (_case_ideal_membership, 1e-12, "residual"),
        (_case_eigenvalue_match, 1e-10, "residual"),
        (_case_off_eigenvalue_nonsingular, 0.5, "guard"),
        (_case_massless_mode, 1e-12, "residual"),
        (_case_rest_frame_values, 1e-12, "residual"),
    ),
    "symmetries": _cases(
        (_case_preserves_row("parity"), 1e-10, "residual"),
        (_case_preserves_row("time_reversal"), 1e-10, "residual"),
        (_case_involutions, 1e-12, "residual"),
        (_case_charge_conjugation_flips_potential, 1e-10, "residual"),
    ),
    "current": _cases(
        (_case_current_pipelines, 1e-12, "residual"),
        (_case_current_rest_frame, 1e-12, "residual"),
        (_case_current_scaling, 1e-12, "residual"),
        (_case_current_density_positive, 1e-12, "residual"),
        (_case_current_covariance, 1e-10, "residual"),
    ),
    "conservation": _cases(
        (_case_single_mode_divergence, 1e-12, "residual"),
        (_case_two_mode_divergence, 1e-10, "residual"),
        (_case_transformed_divergence, 1e-10, "residual"),
        (_case_off_shell_guard, 0.5, "guard"),
        (_case_fd_divergence_convergence, 0.8, "order"),
        (_case_fd_symbol_convergence, 0.8, "order"),
    ),
    "radiation": _cases(
        (_case_radiation_solve, 1e-12, "residual"),
        (_case_radiation_example, 1e-12, "residual"),
        (_case_lightlike_guard, 0.5, "guard"),
        (_case_radiation_transformed, 1e-10, "residual"),
        (_case_dalembertian_fd, 0.8, "order"),
    ),
}


def list_suites() -> list[str]:
    return list(SUITES) + ["all"]


def _suite_cases(name: str) -> list[tuple[str, _Case]]:
    """The (suite, case) pairs that ``name`` runs, in registry order."""
    if name == "all":
        return [(suite, c) for suite, suite_cases in SUITES.items() for c in suite_cases]
    try:
        return [(name, c) for c in SUITES[name]]
    except KeyError:
        raise UnknownSuite(
            "unknown suite %r; available: %s" % (name, ", ".join(list_suites()))
        ) from None


def _run_case(case: _Case, rng: np.random.Generator, cfg: SuiteConfig) -> CaseResult:
    """Run and time one case, and reduce the residuals it yields to the largest.

    Only ``residual`` tolerances scale with ``cfg.tol``.  A NaN residual
    makes the largest NaN, which fails; so does a case that yields nothing.
    An exception inside the case fails it with residual inf and is reported
    on stderr, so that the remaining cases still run.  A residual that is
    not finite fails even when the scaled tolerance overflows to inf.
    """
    scale = cfg.tol / _REFERENCE_TOL if case.kind == "residual" else 1.0
    tol = case.tol * scale
    start = time.perf_counter()
    try:
        residuals = np.fromiter(case.fn(rng, cfg), dtype=float)
    except Exception as exc:  # a faulty case must not stop the suite
        print(
            "case %s raised %s: %s" % (case.name, type(exc).__name__, exc),
            file=sys.stderr,
        )
        worst = math.inf
    else:
        if residuals.size == 0:
            print("case %s yielded no residuals" % case.name, file=sys.stderr)
            worst = math.nan
        else:
            worst = float(np.max(residuals))
    elapsed = time.perf_counter() - start
    passed = math.isfinite(worst) and worst <= tol
    return CaseResult(case.name, worst, passed, tol, case.kind, elapsed)


def run_suite(cfg: SuiteConfig) -> VerificationReport:
    cases = _suite_cases(cfg.suite)
    start = time.perf_counter()
    results = []
    for suite, case in cases:
        rng = case_rng(cfg.seed, suite, case.name)
        if cfg.suite == "all":
            case = dataclasses.replace(case, name="%s/%s" % (suite, case.name))
        results.append(_run_case(case, rng, cfg))
    elapsed = time.perf_counter() - start
    config = {
        "trials": cfg.trials,
        "tol": cfg.tol,
        "n_set": list(cfg.n_set),
    }
    return VerificationReport(
        suite=cfg.suite,
        seed=cfg.seed,
        config=config,
        cases=tuple(results),
        passed=all(r.passed for r in results),
        elapsed=elapsed,
    )


def emit_report(report: VerificationReport, fmt: str = "text") -> str:
    if fmt == "json":
        payload = {
            "suite": report.suite,
            "seed": report.seed,
            "config": report.config,
            "cases": [
                {
                    "name": c.name,
                    "max_residual": "%.9e" % c.max_residual,
                    "pass": c.passed,
                    "tol": c.tol,
                    "kind": c.kind,
                    "elapsed": c.elapsed,
                }
                for c in report.cases
            ],
            "pass": report.passed,
            "elapsed": report.elapsed,
        }
        return json.dumps(payload, indent=2, sort_keys=True)
    if fmt != "text":
        raise ValueError("format must be 'text' or 'json'")
    width = max((len(c.name) for c in report.cases), default=4)
    lines = [
        "suite: %s    seed: %d    trials: %d"
        % (report.suite, report.seed, report.config["trials"])
    ]
    for c in report.cases:
        lines.append(
            "  [%s] %-*s  max_residual=%.3e  tol=%.1e"
            % ("PASS" if c.passed else "FAIL", width, c.name, c.max_residual, c.tol)
        )
    lines.append(
        "result: %s    elapsed: %.2fs"
        % ("PASS" if report.passed else "FAIL", report.elapsed)
    )
    return "\n".join(lines)
