"""Seeded verification suites, the finite-difference oracle, and reports.

Public API: ``SuiteConfig`` and ``run_suite`` run a suite (or ``"all"``)
into a ``VerificationReport`` of ``CaseResult`` lines, ``emit_report``
renders it as text or JSON, and ``list_suites`` names the suites.  The
grid oracle is ``Grid4``, ``sample_quat_mode`` and ``fd_apply_D``; the
dense oracles are ``embed4``, ``rotation_matrix4``,
``temporal_rotation_matrix4``, ``boost_matrix4`` and
``quat_to_minkowski``/``minkowski_to_quat``.

Each suite is an ordered list of cases.  A case is a function that draws
its instances from a counter-based generator keyed by (seed, suite, case
name), so it draws the same instances under ``all`` as under its own suite,
and returns its residuals in one float array; ``_run_case`` reduces it to
the largest.  A case that draws trials draws each variable for all of them
in one generator call (a rejection draw redraws only its rejected rows, one
call per pass, in ``_redraw``), makes one library call per check on the
stack (see ``quaternion``) and returns ``(trials,)`` or ``(trials,
checks)``, whose ravel is a loop over the trials' residuals in order;
``mass_four_vector`` and ``current_scaling`` append one fixed check.  A
case of fixed instances returns a scalar or a short list.  A case passes
when its largest residual is at most its pinned tolerance.
Cases come in three kinds: only ``residual`` tolerances scale with
``cfg.tol / 1e-10``, while ``guard`` cases (return 0 or 1, and 1 when the
guarded quantity is NaN) and ``order`` cases (return the gap of a
convergence ratio from 4) keep theirs.  A case fails when any residual is
NaN or infinite, whatever the tolerance, when it returns none, or when it
raises; the exception goes to stderr and the other cases still run.
Reports are deterministic for a fixed (suite, seed, config) up to the
elapsed-time fields.  The ``qdirac`` command exits 0 when every case
passes, 1 when any fails and 2 on a usage or configuration error.

Independent oracles live here rather than in the library modules: the
4x4 dense embedding for block products, rotation and boost matrices for
the four-vector laws, spatial- and temporal-plane rotation matrices for
the multiplication patterns of Table 1, and central differences on a
spacetime grid for the derivative symbol and for current conservation.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import math
import numbers
import operator
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
from .quaternion import Quat, _first_member, _last_axis

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

    ``values`` has shape (n0, n1, n2, n3, 4) in any layout; the grid functions
    store it component-major, so each ``values[..., k]`` is contiguous.  Grids
    fed to the difference operators need at least 5 points per axis;
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


def _plane_wave(energy, momentum, shape, spacing) -> np.ndarray:
    """exp(i(p.x - E*x0)) on a centered grid, as the outer product of one
    exponential per axis: 4n ``exp`` calls and no n**4 phase array."""
    axes = grid_axes(shape, spacing)
    waves = [np.exp(1j * (k * x)) for k, x in zip((-energy, *momentum), axes)]
    return functools.reduce(np.multiply.outer, waves)


def sample_quat_mode(
    amplitude: Quat, energy: float, momentum, shape, spacing: float
) -> Grid4:
    """Sample amplitude * exp(i(p.x - E*x0)) on a centered grid.

    The values have shape (n0, n1, n2, n3, 4), stored component-major; the
    grid functions accept any layout.  A non-finite ``energy`` or
    ``momentum``, or a ``momentum`` that is not a 3-vector, raises
    ``ValueError`` naming the field.
    """
    momentum = np.asarray(momentum, dtype=float)
    if momentum.shape != (3,):
        raise ValueError("momentum must be a 3-vector, got %r" % (momentum,))
    dr._check_finite(energy=energy, momentum=momentum)
    wave = _plane_wave(energy, momentum, shape, spacing)
    comps = np.array(amplitude.components)
    return Grid4(spacing, np.moveaxis(comps[:, None, None, None, None] * wave, 0, -1))


# left multiplication by e_r: (source component, sign) of each output component
_BASIS_LEFT_MUL = {
    1: ((1, -1), (0, 1), (3, -1), (2, 1)),
    2: ((2, -1), (3, 1), (0, 1), (1, -1)),
    3: ((3, -1), (2, -1), (1, 1), (0, 1)),
}


def _fd_stencil(comps: np.ndarray, spacing: float):
    """The plane stencil of the difference operator on the component-major
    grid ``comps``, (4, n0, n1, n2, n3), copied once if it is not
    C-contiguous: ``plane(t, k, conjugate)`` is output component ``k`` on
    interior time plane ``t``, a (n1-2, n2-2, n3-2) view into a plane buffer
    that the next call overwrites.

    On the flat (4, n0*n1*n2*n3) view each difference is one contiguous
    subtraction over a whole plane,
    ``f[c + s : c + s + s0] - f[c - s : c - s + s0]`` with ``c`` the start of
    the input plane, ``s0`` its size and ``s`` the stride of the axis, into
    one of two plane buffers.  Its boundary rows read the rows next to them
    and are never returned.  Each difference is scaled by the reciprocal
    1/(2h): NumPy divides a + bi by a float c as (a + b*0)*s + (b - a*0)*s i
    with s = 1/c, and multiplies it by s as (a*s - b*0) + (a*0 + b*s) i.  For
    finite a and b both are a*s + b*s i, so ``*= 1/(2h)`` gives the doubles
    of ``/= 2h`` up to the sign of a zero, at about a fifth of the cost of
    the complex division.
    """
    n1, n2, n3 = comps.shape[2:]
    flat = np.ascontiguousarray(comps).reshape(4, -1)
    s0 = n1 * n2 * n3
    buf, diff = np.empty((2, s0), dtype=flat.dtype)
    scale = 1.0 / (2.0 * spacing)

    def plane(t: int, k: int, conjugate: bool) -> np.ndarray:
        c = (t + 1) * s0
        np.subtract(flat[k, c + s0 : c + 2 * s0], flat[k, c - s0 : c], out=buf)
        np.multiply(buf, scale, out=buf)
        np.multiply(1j, buf, out=buf)
        for r, s in ((1, n2 * n3), (2, n3), (3, 1)):
            j, sign = _BASIS_LEFT_MUL[r][k]
            np.subtract(flat[j, c + s : c + s + s0], flat[j, c - s : c - s + s0], out=diff)
            np.multiply(diff, scale, out=diff)
            combine = np.add if (sign > 0) != conjugate else np.subtract
            combine(buf, diff, out=buf)
        return buf.reshape(n1, n2, n3)[1:-1, 1:-1, 1:-1]

    return plane


def fd_apply_D(grid: Grid4, conjugate: bool = False) -> Grid4:
    """Central-difference application of the derivative quaternion.

    The temporal component enters as i * d/dx0; spatial derivatives are
    left-multiplied by their basis quaternion, and subtracted instead of
    added for the conjugated derivative (``conjugate=True``).  The input
    values, of shape (n0, n1, n2, n3, 4), may have any layout; one that is
    not component-major is copied once.  The returned grid shrinks by one
    point on each side and is stored component-major.  The output is built
    one time plane and one component at a time (``_fd_stencil``): every
    difference is one contiguous subtraction over a whole flat input plane
    into one of two reused plane buffers, whose boundary rows are discarded,
    so a call allocates the output plus two time-plane buffers.  Each
    element sees the same subtraction, scaling by the reciprocal 1/(2h),
    factor i and additions in the same order whatever the blocking, so the
    output equals a whole-grid evaluation's bitwise.
    """
    values = grid.values
    if min(values.shape[:4]) < 5:
        raise GridTooSmall("need at least 5 points per axis")
    plane = _fd_stencil(np.moveaxis(values, -1, 0), grid.spacing)
    out = np.empty((4,) + tuple(n - 2 for n in values.shape[:4]), dtype=values.dtype)
    for t in range(out.shape[1]):
        for k in range(4):
            out[k, t] = plane(t, k, conjugate)
    return Grid4(grid.spacing, np.moveaxis(out, 0, -1))


# ---------------------------------------------------------------------------
# independent oracles

def embed4(x) -> np.ndarray:
    """Dense 4x4 complex embedding of a block; (..., 4, 4) for a stack."""
    upper, lower = qt.to_matrix(x.upper), qt.to_matrix(x.lower)
    out = np.zeros(np.broadcast_shapes(upper.shape, lower.shape)[:-2] + (4, 4), complex)
    col = 0 if isinstance(x, bl.Rotator) else 2  # the upper entry's first column
    out[..., :2, col : col + 2], out[..., 2:, 2 - col : 4 - col] = upper, lower
    return out


def _matrix4(rows) -> np.ndarray:
    """The matrix of 4x4 entries, numbers or arrays of one shape (..., 4, 4):
    the matrices below take axes (..., 3) and angles (...) as well."""
    m = np.array(rows, dtype=float)
    return m.transpose(*range(2, m.ndim), 0, 1)


def rotation_matrix4(axis, angle) -> np.ndarray:
    """Rotation of the spatial coordinates by ``angle`` about a unit axis:
    I + sin(angle) K + (1 - cos(angle)) K K, with K the cross-product matrix
    [[0, -z, y], [z, 0, -x], [-y, x, 0]] of the axis."""
    x, y, z = _last_axis(np.asarray(axis, dtype=float))
    s, t = np.sin(angle), 1 - np.cos(angle)
    o = 0.0 * t
    return _matrix4(
        [
            [o + 1.0, o, o, o],
            [o, 1.0 + t * (-z * z - y * y), -s * z + t * (y * x), s * y + t * (z * x)],
            [o, s * z + t * (x * y), 1.0 + t * (-z * z - x * x), -s * x + t * (z * y)],
            [o, -s * y + t * (x * z), s * x + t * (y * z), 1.0 + t * (-y * y - x * x)],
        ]
    )


def _time_axis_matrix4(axis, c, s_row, s_col) -> np.ndarray:
    """[[c, s_row a^T], [s_col a, I + (c - 1) a a^T]] for a unit axis a."""
    x, y, z = _last_axis(np.asarray(axis, dtype=float))
    d = c - 1.0
    return _matrix4(
        [
            [c, s_row * x, s_row * y, s_row * z],
            [s_col * x, 1.0 + d * (x * x), d * (x * y), d * (x * z)],
            [s_col * y, d * (y * x), 1.0 + d * (y * y), d * (y * z)],
            [s_col * z, d * (z * x), d * (z * y), 1.0 + d * (z * z)],
        ]
    )


def temporal_rotation_matrix4(axis, angle) -> np.ndarray:
    """Rotation of the plane of the temporal axis and (0, axis), turning the
    temporal axis toward (0, axis) for a positive angle."""
    s = np.sin(angle)
    return _time_axis_matrix4(axis, np.cos(angle), -s, s)


def boost_matrix4(axis, rapidity) -> np.ndarray:
    s = np.sinh(rapidity)
    return _time_axis_matrix4(axis, np.cosh(rapidity), s, s)


def quat_to_minkowski(q: Quat) -> np.ndarray:
    """Real Minkowski components of a Euclidean four-vector quaternion;
    (..., 4) for a stack."""
    c0, c1, c2, c3 = q.components
    t = 1j * c0
    if isinstance(t, np.ndarray):
        v = np.stack([t, c1, c2, c3], axis=-1)
        scale = np.maximum(1.0, np.abs(v).max(axis=-1))
        if (np.abs(v.imag).max(axis=-1) > 1e-9 * scale).any():
            raise ValueError("quaternion is not a Euclidean four-vector")
        return v.real.copy()
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
    rotor, such as a rotation times a boost, raises ValueError naming the
    first such member of a stack.  A stack gives (..., 4, 4), each member
    by its own formula; a zero spatial part gives a zero axis."""
    c = np.array(rotor.components)
    c = c.transpose(*range(1, c.ndim), 0)  # components last
    c0, spatial = c[..., 0], c[..., 1:]
    rotation = ~spatial.imag.any(axis=-1)
    neither = ~rotation & ((c0.imag != 0) | spatial.real.any(axis=-1))
    if neither.ndim == 0 and neither:
        raise ValueError("rotor is neither a rotation nor a boost: %r" % (rotor,))
    if neither.any():
        at = _first_member(neither)
        raise ValueError(
            "rotor is neither a rotation nor a boost at member %r: %r"
            % (at, Quat(*c[at]))
        )
    # a rotation's axis is its real spatial part, a boost's the imaginary one
    v = np.where(rotation[..., None], spatial.real, spatial.imag)
    norm = np.linalg.norm(v, axis=-1)
    axis = v / np.where(norm > 0, norm, 1.0)[..., None]
    return np.where(
        rotation[..., None, None],
        rotation_matrix4(axis, 2.0 * np.arctan2(norm, c0.real)),
        boost_matrix4(axis, np.copysign(2.0 * np.arcsinh(norm), c0.real)),
    )


# ---------------------------------------------------------------------------
# seeded draws

def case_rng(seed: int, suite: str, case: str) -> np.random.Generator:
    """Philox generator of one case, keyed by (seed, suite, case name)."""
    key = tuple(("%s/%s" % (suite, case)).encode())
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=key)
    return np.random.Generator(np.random.Philox(ss))


def rand_complex_vec(rng, *shape: int) -> np.ndarray:
    """Real and imaginary parts uniform in [-1, 1) in one call, drawn as a
    loop of ``rand_complex_vec(rng, shape[-1])`` over the leading axes."""
    u = rng.uniform(-1, 1, (*shape[:-1], 2, shape[-1]))
    return u[..., 0, :] + 1j * u[..., 1, :]


def _redraw(rng, count: int, draw, accept) -> np.ndarray:
    """``draw(rng, count)``, an array with one row per item, with each row
    that ``accept`` rejects drawn again whole: every pass makes one
    ``draw(rng, k)`` call for the k rows still rejected, until ``accept``
    holds for every row."""
    rows = draw(rng, count)
    todo = np.flatnonzero(~accept(rows))
    while todo.size:
        fresh = draw(rng, todo.size)
        rows[todo] = fresh
        todo = todo[~accept(fresh)]
    return rows


def rand_euclidean_quat(rng, count: int) -> Quat:
    u = rng.uniform(-1.0, 1.0, (count, 4))
    return Quat(1j * u[:, 0], u[:, 1], u[:, 2], u[:, 3])


def _rand_invertible(rng, count: int) -> np.ndarray:
    """``rand_complex_vec(rng, count, 4)`` with each row redrawn until the
    complex modulus of its quaternion exceeds 0.1."""
    return _redraw(
        rng, count, lambda rng, k: rand_complex_vec(rng, k, 4),
        lambda z: np.abs(Quat(*z.T).modulus()) > 0.1,
    )


def rand_unit3(rng, count: int) -> np.ndarray:
    v = _redraw(
        rng, count, lambda rng, k: rng.normal(size=(k, 3)),
        lambda v: np.linalg.norm(v, axis=-1) > 1e-3,
    )
    return v / np.linalg.norm(v, axis=-1)[:, None]


def rand_momentum(rng, count: int) -> np.ndarray:
    return _redraw(
        rng, count, lambda rng, k: rng.uniform(-2.0, 2.0, (k, 3)),
        lambda p: np.linalg.norm(p, axis=-1) <= 2.0,
    )


def rand_rotation(rng, count: int) -> Quat:
    """Rotations by [0, pi) about random axes."""
    return tr.rotor_spatial(rand_unit3(rng, count), rng.uniform(0.0, math.pi, count))


def rand_boost(rng, count: int) -> Quat:
    """Boosts of rapidity [-2, 2) along random axes."""
    return tr.rotor_boost(rand_unit3(rng, count), rng.uniform(-2.0, 2.0, count))


def rand_rotor(rng, count: int) -> Quat:
    """``rand_rotation`` or ``rand_boost`` of each member, as its coin falls."""
    coins = rng.integers(2, size=count)
    rotations, boosts = rand_rotation(rng, count), rand_boost(rng, count)
    return Quat(*np.where(coins == 0, rotations.components, boosts.components))


def rand_field(rng, count: int, with_potential: bool = False) -> dr.FieldData:
    mass = rng.uniform(0.1, 2.0, count)
    shape = (count, 4)
    potential = rng.uniform(-1.0, 1.0, shape) if with_potential else np.zeros(shape)
    return dr.FieldData(mass, potential)


def _member(x, rows):
    """Members ``rows`` of a stacked draw, or with an integer its one member:
    of a ``Quat``, a dataclass of stacked fields or an array."""
    if isinstance(x, Quat):
        return Quat(*(c[rows] for c in x.components))
    if dataclasses.is_dataclass(x):
        fields = dataclasses.fields(x)
        return type(x)(*(_member(getattr(x, f.name), rows) for f in fields))
    return x[rows]


def _quats(z) -> list[Quat]:
    """One stack of quaternions per column of the components (trials, count, 4)."""
    return [Quat(*column.T) for column in z.swapaxes(0, 1)]


def _rand_mode(rng, fd: dr.FieldData) -> dr.PlaneWaveMode:
    """One solution mode per member of ``fd``: a random momentum, and which
    of its four plane-wave modes."""
    count = len(fd.mass)
    p, pick = rand_momentum(rng, count), rng.integers(4, size=count)
    modes = dr.plane_wave_modes(p, fd)
    rows = np.arange(count)
    energy = np.stack([mode.energy for mode in modes], axis=-1)[rows, pick]
    amplitude = np.stack([mode.amplitude for mode in modes], axis=-2)[rows, pick]
    return dr.PlaneWaveMode(energy, p, amplitude)


def _solution(mode: dr.PlaneWaveMode):
    """(pair, mode), the order ``current_divergence`` takes."""
    return dr.spinor_to_pair(mode.amplitude), mode


def _rand_states(rng, count: int, with_potential: bool = True) -> dr.DiracState:
    fd = rand_field(rng, count, with_potential)
    return dr.state_from_mode(_rand_mode(rng, fd), fd)


def _n_draws(cfg) -> list[int]:
    """``cfg.trials`` exponents: those of ``cfg.n_set`` in order, in blocks
    whose sizes differ by at most one, the first blocks the larger."""
    per_n, extra = divmod(cfg.trials, len(cfg.n_set))
    return [n for k, n in enumerate(cfg.n_set) for _ in range(per_n + (k < extra))]


def _n_blocks(cfg):
    """Each exponent of ``_n_draws`` with the slice of its consecutive trials."""
    start = 0
    for n, block in itertools.groupby(_n_draws(cfg)):
        stop = start + len(list(block))
        yield n, slice(start, stop)
        start = stop


# ---------------------------------------------------------------------------
# residual helpers shared by the cases

def _max_abs(x) -> float:
    return float(np.abs(x).max())


def _trial_max(x) -> np.ndarray:
    """The largest modulus of each trial's entries of an array with the trials
    first; NaN for a trial with a NaN entry."""
    return np.abs(x).reshape(len(x), -1).max(axis=1)


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
    gaps = [g for a, b, c in cyc for g in (a * b - c, b * a + c, a * a + qt.ONE)]
    q = Quat(*rand_complex_vec(rng, 4))
    return [gap.max_abs() for gap in gaps + [qt.ONE * q - q, q * qt.ONE - q]]


def _case_associativity(rng, cfg):
    a, b, c = _quats(rand_complex_vec(rng, cfg.trials, 3, 4))
    return ((a * b) * c - a * (b * c)).max_abs()


def _case_conjugation_anti_homomorphism(rng, cfg):
    a, b = _quats(rand_complex_vec(rng, cfg.trials, 2, 4))
    ab = a * b
    gaps = [
        ab.quat_conj() - b.quat_conj() * a.quat_conj(),
        ab.herm_conj() - b.herm_conj() * a.herm_conj(),
        ab.complex_conj() - a.complex_conj() * b.complex_conj(),
        a.quat_conj().complex_conj() - a.herm_conj(),
        a.complex_conj().quat_conj() - a.herm_conj(),
    ]
    return np.stack([gap.max_abs() for gap in gaps], axis=1)


def _case_dot_two_routes(rng, cfg):
    a, b = _quats(rand_complex_vec(rng, cfg.trials, 2, 4))
    sandwich = (a.quat_conj() * b + b.quat_conj() * a) * 0.5
    spatial = sandwich.spatial.max_abs()
    gaps = [qt.dot(a, b) - sandwich.temporal, spatial, qt.dot(a, a) - a.modulus()]
    return np.abs(np.stack(gaps, axis=1))


def _case_matrix_homomorphism(rng, cfg):
    a, b = _quats(rand_complex_vec(rng, cfg.trials, 2, 4))
    gap = qt.to_matrix(a * b) - qt.to_matrix(a) @ qt.to_matrix(b)
    return _trial_max(gap)


def _case_matrix_roundtrip(rng, cfg):
    q = Quat(*rand_complex_vec(rng, cfg.trials, 4).T)
    return (qt.from_matrix(qt.to_matrix(q)) - q).max_abs()


def _case_matrix_trace(rng, cfg):
    q = Quat(*rand_complex_vec(rng, cfg.trials, 4).T)
    trace = np.trace(qt.to_matrix(q), axis1=-2, axis2=-1)
    return np.abs(trace - 2.0 * q.temporal)


def _case_real_conjugations_coincide(rng, cfg):
    q = Quat(*rng.uniform(-1.0, 1.0, (cfg.trials, 4)).T)
    return (q.quat_conj() - q.herm_conj()).max_abs()


def _case_modulus_inverse(rng, cfg):
    q = Quat(*_rand_invertible(rng, cfg.trials).T)
    inv = q.inverse()
    gaps = inv * q - qt.ONE, q * inv - qt.ONE
    return np.stack([gap.max_abs() for gap in gaps], axis=1)


def _case_null_inversion_guard(rng, cfg):
    return _raises(qt.SingularQuaternion, _NULL.inverse)


# ---------------------------------------------------------------------------
# maps suite

def _case_lift_identity_row(name, roundtrip):
    """``roundtrip(v)`` projects the lift of 2-columns v back to v.  It looks
    the maps up when called, so that a patched map reaches the case."""

    def case(rng, cfg):
        v = rand_complex_vec(rng, cfg.trials, 2)
        return _trial_max(roundtrip(v) - v)

    case.__name__ = "_case_" + name
    return case


def _case_lift_real_components(rng, cfg):
    v = rand_complex_vec(rng, cfg.trials, 2)
    lifts = (sm.lift_G(v), sm.lift_L(v))
    return np.stack([np.abs(np.imag(q.components)).max(axis=0) for q in lifts], axis=1)


def _case_scalar_shift(rng, cfg):
    q = Quat(*rand_complex_vec(rng, cfg.trials, 4).T)
    f_gap = _trial_max(sm.map_F(q * (-qt.I3)) - 1j * sm.map_F(q))
    n_gap = _trial_max(sm.map_N(q * qt.I3) - 1j * sm.map_N(q))
    return np.stack([f_gap, n_gap], axis=1)


def _case_ideal_double(rng, cfg):
    q = Quat(*rand_complex_vec(rng, cfg.trials, 4).T)
    f_gap = _trial_max(sm.map_F(q * sm.ideal_factor(1)) - 2.0 * sm.map_F(q))
    n_gap = _trial_max(sm.map_N(q * sm.ideal_factor(-1)) - 2.0 * sm.map_N(q))
    return np.stack([f_gap, n_gap], axis=1)


def _case_lift_commutation(rng, cfg):
    u, pick = rng.uniform(-1.0, 1.0, (cfg.trials, 4)), rng.integers(4, size=cfg.trials)
    q, basis = Quat(*u.T), Quat(*np.eye(4)[pick].T)
    col = (qt.to_matrix(basis) @ sm.map_F(q)[..., None])[..., 0]
    gaps = sm.lift_G(col) - basis * q, sm.lift_G(1j * col) - basis * q * (-qt.I3)
    return np.stack([gap.max_abs() for gap in gaps], axis=1)


def _case_gf_ideal(rng, cfg):
    factor = sm.ideal_factor(1)
    q = Quat(*rand_complex_vec(rng, cfg.trials, 4).T)
    return (sm.lift_G(sm.map_F(q)) * factor - q * factor).max_abs()


def _case_idempotent(rng, cfg):
    half = sm.ideal_factor(1) * 0.5
    return (half * half - half).max_abs()


def _case_contraction_row(name, matrices, right):
    """<F q| m_k F u> against dot(q, i_k u right) for each pair (m_k, i_k)."""

    def case(rng, cfg):
        q, u = _quats(rng.uniform(-1.0, 1.0, (cfg.trials, 2, 4)))
        fq, fu = sm.map_F(q), sm.map_F(u)
        gaps = []
        for matrix, basis in zip(matrices, qt.BASIS[1:]):
            lhs = (fq.conj() * (fu @ matrix.T)).sum(axis=-1).real
            gaps.append(np.abs(lhs - qt.dot(q, basis * u * right)))
        return np.stack(gaps, axis=1)

    case.__name__ = "_case_" + name
    return case


def _case_bijection_roundtrip(rng, cfg):
    v = rand_complex_vec(rng, cfg.trials, 4)
    return _trial_max(sm.quat_to_vec(sm.vec_to_quat(v)) - v)


# ---------------------------------------------------------------------------
# blocks suite

def _either_class(z) -> list:
    """The stacked reflectors and rotators of the entries (trials, 2, 4)."""
    return [cls(*_quats(z)) for cls in (bl.Reflector, bl.Rotator)]


def _case_product_vs_embedding(rng, cfg):
    # each block's class: 0 (reflector) or 1 (rotator)
    kx, ky = rng.integers(2, size=(2, cfg.trials))
    zx, zy = rand_complex_vec(rng, 2, cfg.trials, 2, 4)
    gaps = [
        [_trial_max(embed4(x * y) - embed4(x) @ embed4(y)) for y in _either_class(zy)]
        for x in _either_class(zx)
    ]
    # each trial's gap under the classes it drew
    return np.array(gaps)[kx, ky, np.arange(cfg.trials)]


def _case_parity_rule(rng, cfg):
    wrong = []
    for count, expected in ((2, bl.Rotator), (3, bl.Reflector), (4, bl.Rotator)):
        draws = rand_complex_vec(rng, count, 2, 4)
        blocks = [bl.Reflector(Quat(*upper), Quat(*lower)) for upper, lower in draws]
        wrong.append(not isinstance(functools.reduce(operator.mul, blocks), expected))
    return wrong


def _case_rotator_conj_anti_homomorphism(rng, cfg):
    xu, xl, yu, yl = _quats(rand_complex_vec(rng, cfg.trials, 4, 4))
    x, y = bl.Rotator(xu, xl), bl.Rotator(yu, yl)
    lhs = embed4((x * y).quat_conj())
    return _trial_max(lhs - embed4(y.quat_conj() * x.quat_conj()))


def _case_trace_embedding(rng, cfg):
    xu, xl, yu, yl = _quats(rand_complex_vec(rng, cfg.trials, 4, 4))
    gaps = [
        np.abs(np.trace(embed4(x), axis1=-2, axis2=-1) - 2.0 * x.trace().temporal)
        for x in (bl.Rotator(xu, xl), bl.Reflector(yu, yl))
    ]
    return np.stack(gaps, axis=1)


def _case_trace_temporal_similarity(rng, cfg):
    x = bl.Rotator(*_quats(rand_complex_vec(rng, cfg.trials, 2, 4)))
    r, rc = tr.rotor_blocks(rand_rotor(rng, cfg.trials))
    y = r * x * rc
    # per-block temporal components are individually preserved
    gaps = y.trace() - x.trace(), y.upper - x.upper, y.lower - x.lower
    return np.stack([np.abs(gap.temporal) for gap in gaps], axis=1)


def _case_reflector_equation_invariance(rng, cfg):
    q, p = (Quat(*_rand_invertible(rng, cfg.trials).T) for _ in range(2))
    qq, pp = (bl.Reflector(x, x.quat_conj()) for x in (q, p))
    ww = pp.inverse() * qq * pp
    r, rc = tr.rotor_blocks(rand_rotor(rng, cfg.trials))
    qq2, pp2, ww2 = (r * x * rc for x in (qq, pp, ww))
    gaps = qq * pp - pp * ww, qq2 * pp2 - pp2 * ww2
    return np.stack([gap.max_abs() for gap in gaps], axis=1)


def _case_block_inverse(rng, cfg):
    ident = embed4(bl.identity_rotator())
    pick = rng.integers(2, size=cfg.trials)
    z = _rand_invertible(rng, 2 * cfg.trials).reshape(cfg.trials, 2, 4)
    gaps = [_trial_max(embed4(x.inverse() * x) - ident) for x in _either_class(z)]
    return np.array(gaps)[pick, np.arange(cfg.trials)]


def _case_block_guards(rng, cfg):
    one = bl.Reflector(qt.ONE, qt.ONE)
    return [
        _raises(TypeError, lambda: one + bl.Rotator(qt.ONE, qt.ONE)),
        _raises(qt.SingularQuaternion, bl.Rotator(_NULL, qt.ONE).inverse),
    ]


# ---------------------------------------------------------------------------
# table of multiplication patterns

# Table 1: pattern -> (c_s, c_t).  Under a rotor about axis a by angle t the
# pattern's linear map on the components (q0, q1, q2, q3) is
# temporal_rotation_matrix4(a, c_t*t) @ rotation_matrix4(a, c_s*t).
_PATTERN_COEFFS = {
    "RQ": (0.5, 0.5), "QR": (-0.5, 0.5), "RcQ": (-0.5, -0.5), "QRc": (0.5, -0.5),
    "RQR": (0.0, 1.0), "RQRc": (1.0, 0.0), "RcQR": (-1.0, 0.0), "RcQRc": (0.0, -1.0),
}


def _case_pattern_row(pattern):
    coeff_s, coeff_t = _PATTERN_COEFFS[pattern]

    def case(rng, cfg):
        angle = rng.uniform(0.05, math.pi - 0.05, cfg.trials)
        axis = rand_unit3(rng, cfg.trials)
        rotor = tr.rotor_spatial(axis, angle)
        spatial = rotation_matrix4(axis, coeff_s * angle)
        want = temporal_rotation_matrix4(axis, coeff_t * angle) @ spatial
        # column k is the pattern applied to the basis quaternion k
        got = [tr.pattern_rotate(pattern, rotor, b).components for b in qt.BASIS]
        return _trial_max(np.array(got).T - want)

    case.__name__ = "_case_pattern_" + pattern.lower()
    return case


def _case_identity_pattern(rng, cfg):
    quats = map(Quat, *rng.uniform(-1.0, 1.0, (8, 4)).T)
    pairs = zip(tr.ROTATION_PATTERNS, quats)
    return [(tr.pattern_rotate(name, qt.ONE, q) - q).max_abs() for name, q in pairs]


# ---------------------------------------------------------------------------
# invariance suite (four-vector laws, boosts, exponent-n transformation)
#
# Each case draws its rotors as stacks, and ``_matrix_oracle`` runs once on
# each stack of them.

def _case_boost_unit_time(rng, cfg):
    unit_time = minkowski_to_quat([1.0, 0, 0, 0])
    axis, w = rand_unit3(rng, cfg.trials), rng.uniform(-2.0, 2.0, cfg.trials)
    want = np.concatenate([np.cosh(w)[:, None], np.sinh(w)[:, None] * axis], axis=1)
    moved = tr.four_vector_transform(unit_time, tr.rotor_boost(axis, w))
    return _trial_max(quat_to_minkowski(moved) - want)


def _case_four_vector_vs_matrix(rng, cfg):
    gaps = []
    for draw in (rand_rotation, rand_boost):
        rotor, q = draw(rng, cfg.trials), rand_euclidean_quat(rng, cfg.trials)
        got = quat_to_minkowski(tr.four_vector_transform(q, rotor))
        want = _matrix_oracle(rotor) @ quat_to_minkowski(q)[..., None]
        gaps.append(_trial_max(got - want[..., 0]))
    return np.stack(gaps, axis=1)


def _case_interval_preservation(rng, cfg):
    q, boost = rand_euclidean_quat(rng, cfg.trials), rand_boost(rng, cfg.trials)
    v = quat_to_minkowski(q)
    v2 = quat_to_minkowski(tr.four_vector_transform(q, boost))

    def interval(u):
        # a stacked matmul sums like the per-trial u[1:] @ u[1:], bitwise
        return u[:, 0] ** 2 - (u[:, None, 1:] @ u[:, 1:, None])[:, 0, 0]

    return np.abs(interval(v) - interval(v2))


def _case_composition(rng, cfg):
    move = tr.four_vector_transform
    q = rand_euclidean_quat(rng, cfg.trials)
    r1, r2 = rand_rotation(rng, cfg.trials), rand_rotation(rng, cfg.trials)
    axis = rand_unit3(rng, cfg.trials)
    w1, w2 = rng.uniform(-2, 2, (2, cfg.trials))
    b1, b2 = tr.rotor_boost(axis, w1), tr.rotor_boost(axis, w2)
    oracle = _matrix_oracle(b1) @ _matrix_oracle(r1) @ quat_to_minkowski(q)[..., None]
    # rotation then boost: one mixed rotor, neither a rotation nor a boost
    mixed = move(q, b1 * r1)
    gaps = [
        move(move(q, r1), r2) - move(q, r2 * r1),
        move(move(q, b1), b2) - move(q, tr.rotor_boost(axis, w1 + w2)),
        move(move(q, b1), tr.rotor_boost(axis, -w1)) - q,
        move(move(q, r1), b1) - mixed,
    ]
    matrix_gap = _trial_max(quat_to_minkowski(mixed) - oracle[..., 0])
    return np.stack([*(gap.max_abs() for gap in gaps), matrix_gap], axis=1)


def _case_blocks_vs_vector_path(rng, cfg):
    rotor, q = rand_rotor(rng, cfg.trials), rand_euclidean_quat(rng, cfg.trials)
    r, rc = tr.rotor_blocks(rotor)
    moved = r * bl.Reflector(q, q.quat_conj()) * rc
    direct = tr.four_vector_transform(q, rotor)
    gaps = moved.upper - direct, moved.lower - direct.quat_conj()
    return np.stack([gap.max_abs() for gap in gaps], axis=1)


def _case_n_invariance(rng, cfg):
    fd = rand_field(rng, cfg.trials, with_potential=True)
    mode, rotor = _rand_mode(rng, fd), rand_rotor(rng, cfg.trials)
    # the trials of one exponent are consecutive: one slice per exponent
    residuals = []
    for n, rows in _n_blocks(cfg):
        state = dr.state_from_mode(_member(mode, rows), _member(fd, rows))
        moved = dr.transform_state(state, tr.TransformSpec(_member(rotor, rows), n))
        residuals.append(moved.residual().max_abs())
    return np.concatenate(residuals)


def _case_mass_four_vector(rng, cfg):
    fd, boost = rand_field(rng, cfg.trials), rand_boost(rng, cfg.trials)
    # the boost matrix on (mass, 0, 0, 0): its first column times the mass
    oracle = _matrix_oracle(boost)[..., 0] * fd.mass[:, None]
    state = dr.state_from_mode(dr.plane_wave_modes(np.zeros(3), fd)[3], fd)
    spec = tr.TransformSpec(boost, 1)
    mass_after = dr.transform_state(state, spec).m.upper
    direct = tr.four_vector_transform(Quat(fd.euclidean_mass), spec.rotor)
    matrix_gap = _trial_max(quat_to_minkowski(mass_after) - oracle)
    gaps = np.stack([(mass_after - direct).max_abs(), matrix_gap], axis=1)
    # a unit-rapidity boost must push the mass off the temporal axis
    fd = dr.FieldData(1.0)
    state = dr.state_from_mode(dr.plane_wave_modes(np.zeros(3), fd)[3], fd)
    spec = tr.TransformSpec(tr.rotor_boost(np.array([1.0, 0, 0]), 1.0), 1)
    moved = dr.transform_state(state, spec).m.upper
    return np.append(gaps, 0.0 if moved.spatial.max_abs() >= 1e-3 else 1.0)


def _case_mass_fixed_n0(rng, cfg):
    state = _rand_states(rng, cfg.trials, with_potential=False)
    moved = dr.transform_state(state, tr.TransformSpec(rand_rotor(rng, cfg.trials), 0))
    return (moved.m - state.m).max_abs()


# ---------------------------------------------------------------------------
# equivalence suite

def _case_translated_residuals(rng, cfg):
    fd = rand_field(rng, cfg.trials, with_potential=True)
    p = rand_momentum(rng, cfg.trials)
    per_mode = []
    for mode in dr.plane_wave_modes(p, fd):
        r1, r2 = dr.pair_residual(dr.spinor_to_pair(mode.amplitude), mode, fd)
        block = dr.state_from_mode(mode, fd).residual()
        residuals = [r1.max_abs(), r2.max_abs(), block.max_abs()]
        per_mode.append(np.stack(residuals, axis=1))
    return np.stack(per_mode, axis=1)


def _case_block_equals_pair(rng, cfg):
    fd = rand_field(rng, cfg.trials, with_potential=True)
    energy, p = rng.uniform(-2, 2, cfg.trials), rand_momentum(rng, cfg.trials)
    amplitude = rng.normal(size=(2, cfg.trials, 4))
    mode = dr.PlaneWaveMode(energy, p, amplitude[0] + 1j * amplitude[1])
    r1, r2 = dr.pair_residual(dr.spinor_to_pair(mode.amplitude), mode, fd)
    block = dr.state_from_mode(mode, fd).residual()
    gaps = block.upper - r2, block.lower - r1
    return np.stack([gap.max_abs() for gap in gaps], axis=1)


def _case_spinor_roundtrip(rng, cfg):
    psi = rand_complex_vec(rng, cfg.trials, 4)
    pairs = [dr.spinor_to_pair(psi, lift) for lift in ("G", "L")]
    gaps = [_trial_max(dr.pair_to_spinor(pair) - psi) for pair in pairs]
    return np.stack(gaps, axis=1)


def _case_ideal_membership(rng, cfg):
    factor = sm.ideal_factor(1)
    pair = dr.spinor_to_pair(rand_complex_vec(rng, cfg.trials, 4))
    gaps = [phi * factor - 2.0 * phi for phi in (pair.phi1, pair.phi2)]
    return np.stack([gap.max_abs() for gap in gaps], axis=1)


def _rand_spectra(rng, cfg, with_shift: bool = False):
    """The stacked fields, momenta and, ``with_shift``, energy shifts of the
    trials, and the Hamiltonian spectra (trials, 4) of one stacked
    ``eigvalsh``."""
    fd = rand_field(rng, cfg.trials, with_potential=True)
    p = rand_momentum(rng, cfg.trials)
    shift = rng.uniform(0.5, 1.5, cfg.trials) if with_shift else None
    return fd, p, shift, np.linalg.eigvalsh(dr.dirac_hamiltonian(p, fd))


def _smallest_singular_values(systems) -> np.ndarray:
    return np.linalg.svd(systems, compute_uv=False)[..., -1]


def _case_eigenvalue_match(rng, cfg):
    fd, p, _, spectra = _rand_spectra(rng, cfg)
    # each trial's systems: both lifts, each at the four energies
    systems = np.stack(
        [
            dr.pair_system_matrix(spectra[:, k], p, fd, lift)
            for lift in ("G", "L")
            for k in range(4)
        ],
        axis=1,
    )
    return _smallest_singular_values(systems)


def _case_off_eigenvalue_nonsingular(rng, cfg):
    fd, p, shift, spectra = _rand_spectra(rng, cfg, with_shift=True)
    systems = dr.pair_system_matrix(spectra[:, -1] + shift, p, fd)
    # NaN >= 1e-3 is False: a NaN flags 1.0
    return np.where(_smallest_singular_values(systems) >= 1e-3, 0.0, 1.0)


def _case_massless_mode(rng, cfg):
    fd = dr.FieldData(0.0)
    factor = sm.ideal_factor(1)
    p = _redraw(
        rng, cfg.trials, rand_momentum, lambda p: np.linalg.norm(p, axis=-1) >= 0.1
    )
    mode = dr.PlaneWaveMode(np.linalg.norm(p, axis=-1), p, np.zeros(4))
    sym, sym_c = dr.momentum_symbol(mode)
    pair = dr.BispinorPair(sym * factor, sym_c * factor)
    r1, r2 = dr.pair_residual(pair, mode, fd)
    return np.stack([r1.max_abs(), r2.max_abs()], axis=1)


def _case_rest_frame_values(rng, cfg):
    fd = dr.FieldData(1.0)
    positive = [m for m in dr.plane_wave_modes(np.zeros(3), fd) if m.energy > 0]
    # project the degenerate eigenspace onto the first basis spinor
    psi = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
    pair = dr.spinor_to_pair(psi)
    mode = dr.PlaneWaveMode(positive[0].energy, np.zeros(3), psi)
    r1, r2 = dr.pair_residual(pair, mode, fd)
    phi1, phi2 = Quat(1.0, 0.0, 0.0, 1j), (-qt.I3) * sm.ideal_factor(1)
    return [gap.max_abs() for gap in (pair.phi1 - phi1, pair.phi2 - phi2, r1, r2)]


# ---------------------------------------------------------------------------
# symmetries suite

def _state_gaps(a: dr.DiracState, b: dr.DiracState) -> np.ndarray:
    """Per trial, the gaps of the derivative, potential, spinor and mass
    blocks, (trials, 4)."""
    return np.stack(
        [(a.d - b.d).max_abs(), (a.a - b.a).max_abs(), (a.phi - b.phi).max_abs(),
         (a.m - b.m).max_abs()],
        axis=1,
    )


def _case_preserves_row(kind):
    def case(rng, cfg):
        state = _rand_states(rng, cfg.trials)
        return dr.apply_discrete(state, kind).residual().max_abs()

    case.__name__ = "_case_%s_preserves" % kind
    return case


def _case_involutions(rng, cfg):
    state = _rand_states(rng, cfg.trials)
    gaps = []
    for kind in ("parity", "time_reversal", "charge_conjugation"):
        twice = dr.apply_discrete(dr.apply_discrete(state, kind), kind)
        gaps.append(_state_gaps(twice, state))
    return np.stack(gaps, axis=1)


def _case_charge_conjugation_flips_potential(rng, cfg):
    state = _rand_states(rng, cfg.trials)
    image = dr.apply_discrete(state, "charge_conjugation")
    gaps = image.residual(), image.a - (-state.a)
    return np.stack([gap.max_abs() for gap in gaps], axis=1)


# ---------------------------------------------------------------------------
# current suite

def _case_current_pipelines(rng, cfg):
    psi = rand_complex_vec(rng, cfg.trials, 4)
    pair = dr.spinor_to_pair(psi)
    from_pair = cur.pair_current(pair)
    # the column bilinears in Euclidean components
    from_psi = cur.spinor_current(psi) / [1j, 1, 1, 1]
    gaps = from_pair - from_psi, cur.block_current(pair) - from_pair
    return np.stack([_trial_max(gap) for gap in gaps], axis=1)


def _case_current_rest_frame(rng, cfg):
    pair = dr.spinor_to_pair(np.array([1.0, 0, 0, 0], dtype=complex))
    return _max_abs(cur.pair_current(pair) - np.array([-1j, 0, 0, 0]))


def _case_current_scaling(rng, cfg):
    psi, c = rand_complex_vec(rng, cfg.trials, 4), rand_complex_vec(rng, cfg.trials)
    j1 = cur.pair_current(dr.spinor_to_pair(psi))
    j2 = cur.pair_current(dr.spinor_to_pair(c[:, None] * psi))
    zero = _max_abs(cur.pair_current(dr.spinor_to_pair(np.zeros(4, dtype=complex))))
    return np.append(_trial_max(j2 - (abs(c) ** 2)[:, None] * j1), zero)


def _case_current_density_positive(rng, cfg):
    psi = rand_complex_vec(rng, cfg.trials, 4)
    # Euclidean temporal component is purely imaginary, spatial real
    je = cur.pair_current(dr.spinor_to_pair(psi))
    # a guard column: 1 where the density is negative, or NaN
    negative = np.where(cur.spinor_current(psi)[:, 0] >= 0, 0.0, 1.0)
    residuals = np.abs(je[:, 0].real), _trial_max(je[:, 1:].imag), negative
    return np.stack(residuals, axis=1)


def _case_current_covariance(rng, cfg):
    pair = dr.spinor_to_pair(rand_complex_vec(rng, cfg.trials, 4))
    rotor = rand_rotor(rng, cfg.trials)
    # the current quaternion transforms as a Euclidean four-vector by
    # similarity of its reflector
    j = Quat(*cur.pair_current(pair).T)
    r, rc = tr.rotor_blocks(rotor)
    j_after = (r * bl.Reflector(j, j.quat_conj()) * rc).upper
    oracle = _matrix_oracle(rotor) @ quat_to_minkowski(j)[..., None]
    gap = j_after - tr.four_vector_transform(j, rotor)
    matrix_gap = _trial_max(quat_to_minkowski(j_after) - oracle[..., 0])
    return np.stack([matrix_gap, gap.max_abs()], axis=1)


# ---------------------------------------------------------------------------
# conservation suite

def _mode_divergence(rng, trials: int, count: int):
    """``current_divergence`` of a field and ``count`` modes per trial."""
    fd = rand_field(rng, trials)
    solutions = [_solution(_rand_mode(rng, fd)) for _ in range(count)]
    return cur.current_divergence(solutions, fd)


def _case_single_mode_divergence(rng, cfg):
    return _mode_divergence(rng, max(1, cfg.trials // 10), 1)


def _case_two_mode_divergence(rng, cfg):
    return _mode_divergence(rng, cfg.trials, 2)


def _case_transformed_divergence(rng, cfg):
    fd, rotor = rand_field(rng, cfg.trials), rand_rotor(rng, cfg.trials)
    modes = [_rand_mode(rng, fd) for _ in range(2)]
    # the trials of one exponent are consecutive: one slice per exponent
    residuals = []
    for n, rows in _n_blocks(cfg):
        solutions = [_solution(_member(mode, rows)) for mode in modes]
        spec = tr.TransformSpec(_member(rotor, rows), n)
        residuals.append(cur.current_divergence(solutions, _member(fd, rows), spec))
    return np.concatenate(residuals)


def _case_off_shell_guard(rng, cfg):
    fd = dr.FieldData(1.0)
    mode = dr.PlaneWaveMode(0.5, np.array([1.0, 0, 0]), np.array([1.0, 0, 0, 0]))
    pair = dr.spinor_to_pair(mode.amplitude)
    return _raises(cur.NotASolution, cur.current_divergence, [(pair, mode)], fd)


def _current_grid(solutions, shape, spacing) -> np.ndarray:
    """The current of a superposition of (pair, mode) solutions on a grid,
    (4, n0, n1, n2, n3); the cross term of modes a and b oscillates as the
    plane wave of the differences of their energies and momenta."""
    fields = np.zeros((4, *shape), dtype=complex)
    for pair_a, mode_a in solutions:
        for pair_b, mode_b in solutions:
            amplitude = Quat(*cur.pair_current(pair_a, pair_b))
            de, dp = mode_b.energy - mode_a.energy, mode_b.momentum - mode_a.momentum
            term = sample_quat_mode(amplitude, de, dp, shape, spacing)
            # component-major, so each component sums contiguously
            fields += np.moveaxis(term.values, -1, 0)
    return fields


# the largest |temporal component| of fd_apply_D(J, conjugate=True), bitwise,
# with J the (4, n0, n1, n2, n3) current grids: the plane stencil forms
# component 0 alone, where fd_apply_D forms all four
def _fd_divergence_max(fields, spacing):
    plane = _fd_stencil(fields, spacing)
    plane_max = [np.max(np.abs(plane(t, 0, True))) for t in range(fields.shape[1] - 2)]
    return float(np.max(plane_max))


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
    fd = rand_field(rng, 1)
    solutions = [_solution(_member(_rand_mode(rng, fd), 0)) for _ in range(2)]

    def error(shape, spacing):
        return _fd_divergence_max(_current_grid(solutions, shape, spacing), spacing)

    return _convergence_gap(error, 9, _GRID_SPACING)


def _symbol_convergence_gap(apply, amplitude, exact, energy, momentum, side, h):
    """``_convergence_gap`` of ``apply`` on the sampled plane wave of
    ``amplitude`` against the sampled wave of ``exact``, the amplitude times
    the operator's symbol, on the points that ``apply`` leaves."""

    def error(shape, spacing):
        applied = apply(sample_quat_mode(amplitude, energy, momentum, shape, spacing))
        # the grids are centred, so the exact wave sampled on the smaller grid
        # is bitwise the full grid's interior
        inner = applied.values.shape[:4]
        wanted = sample_quat_mode(exact, energy, momentum, inner, spacing)
        return _max_abs(applied.values - wanted.values)

    return _convergence_gap(error, side, h)


def _case_fd_symbol_convergence(rng, cfg):
    pair, mode = _solution(_member(_rand_mode(rng, rand_field(rng, 1)), 0))
    sym, _ = dr.momentum_symbol(mode)
    return _symbol_convergence_gap(
        fd_apply_D, pair.phi1, sym * pair.phi1, mode.energy, mode.momentum, 9,
        _GRID_SPACING,
    )


# ---------------------------------------------------------------------------
# radiation suite

def _rand_radiation_mode(rng, count: int) -> cur.RadiationMode:
    """``count`` radiation modes, each (omega, k) redrawn until
    |omega**2 - k.k| > 0.05."""

    def draw(rng, k):
        return np.column_stack([rng.uniform(-2.0, 2.0, k), rand_momentum(rng, k)])

    def accept(rows):
        return np.abs(rows[:, 0] ** 2 - np.vecdot(rows[:, 1:], rows[:, 1:])) > 0.05

    rows = _redraw(rng, count, draw, accept)
    return cur.RadiationMode(rand_euclidean_quat(rng, count), rows[:, 0], rows[:, 1:])


def _rand_radiation_field(rng, count: int) -> tuple[cur.RadiationMode, ...]:
    """Three radiation modes per trial."""
    return tuple(_rand_radiation_mode(rng, count) for _ in range(3))


def _case_radiation_solve(rng, cfg):
    source = _rand_radiation_field(rng, cfg.trials)
    return cur.radiation_residual(source, cur.solve_potential(source))


def _case_radiation_example(rng, cfg):
    amp = _member(rand_euclidean_quat(rng, 1), 0)
    source = (cur.RadiationMode(amp, 2.0, np.array([1.0, 0, 0])),)
    potential = cur.solve_potential(source)
    gap = potential[0].amplitude - amp / 3.0
    return [gap.max_abs(), cur.radiation_residual(source, potential)]


def _case_lightlike_guard(rng, cfg):
    x_axis = np.array([1.0, 0, 0])
    lightlike = (cur.RadiationMode(qt.ONE, 1.0, x_axis),)
    zero = (cur.RadiationMode(Quat(), 2.0, x_axis),)
    return [
        _raises(cur.LightlikeMode, cur.solve_potential, lightlike),
        cur.solve_potential(zero)[0].amplitude.max_abs(),
    ]


def _case_radiation_transformed(rng, cfg):
    source, rotor = _rand_radiation_field(rng, cfg.trials), rand_rotor(rng, cfg.trials)
    potential = cur.solve_potential(source)
    return cur.radiation_residual(source, potential, rotor)


def _case_dalembertian_fd(rng, cfg):
    mode = _member(_rand_radiation_mode(rng, 1), 0)
    exact = mode.wave_operator() * mode.amplitude
    return _symbol_convergence_gap(
        lambda grid: fd_apply_D(fd_apply_D(grid, conjugate=True)),
        mode.amplitude, exact, mode.omega, mode.wavevector, 11, _GRID_SPACING,
    )


# ---------------------------------------------------------------------------
# registry

@dataclass(frozen=True)
class _Case:
    name: str
    fn: object  # (rng, cfg) -> residuals, an array or a list of floats
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
    """Run and time one case, and reduce the residuals it returns to the largest.

    Only ``residual`` tolerances scale with ``cfg.tol``.  A NaN residual
    makes the largest NaN, which fails; so does a case that returns none.
    An exception inside the case fails it with residual inf and is reported
    on stderr, so that the remaining cases still run.  A residual that is
    not finite fails even when the scaled tolerance overflows to inf.
    Stacked arithmetic that overflows is as quiet as scalar arithmetic: its
    inf or NaN reaches the residual and fails the case, with no NumPy
    warning.
    """
    scale = cfg.tol / _REFERENCE_TOL if case.kind == "residual" else 1.0
    tol = case.tol * scale
    start = time.perf_counter()
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            residuals = np.asarray(case.fn(rng, cfg), dtype=float)
    except Exception as exc:  # a faulty case must not stop the suite
        print(
            "case %s raised %s: %s" % (case.name, type(exc).__name__, exc),
            file=sys.stderr,
        )
        worst = math.inf
    else:
        if residuals.size == 0:
            print("case %s returned no residuals" % case.name, file=sys.stderr)
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
