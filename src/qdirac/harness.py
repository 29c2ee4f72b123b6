"""Seeded verification suites, the finite-difference oracle, and reports.

Public API: ``SuiteConfig`` and ``run_suite`` run a suite (or ``"all"``)
into a ``VerificationReport`` of ``CaseResult`` lines, ``emit_report``
renders it as text or JSON, and ``list_suites`` names the suites.  The
grid oracle is ``Grid4``, ``sample_quat_mode`` and ``fd_apply_D``; the
dense oracles are ``embed4``, ``rotation_matrix4``,
``temporal_rotation_matrix4``, ``boost_matrix4`` and
``quat_to_minkowski``/``minkowski_to_quat``.

Each suite is an ordered list of cases, and each case is a draw and a
check with a pinned tolerance.  The draw makes all of the case's generator
calls, from a generator keyed by (seed, suite, case name), and returns a
dict of stacks, the instances first; a case that runs over ``cfg.n_set``
holds each trial's exponent in the column ``n``.  ``tests/draw_digests.json``
pins the values every draw takes from its generator.  The check makes one
library call per identity on the stacks and returns one row of residuals
per instance.  ``_run_case`` checks a draw of more than ``_SLICE`` instances
in contiguous slices, so that a check's memory stays bounded, and passes
the case when the largest residual is at most the tolerance.  Only
``residual`` tolerances scale with ``cfg.tol / 1e-10``; ``guard`` (0 or 1,
and 1 when the guarded quantity is NaN) and ``order`` cases (the gap of a
convergence ratio from 4) keep theirs.  A NaN or infinite residual, a
check that returns none, or an exception (printed on stderr) fails the
case, and the other cases still run.  ``qdirac`` exits 0 when every case
passes, 1 when any fails and 2 on a usage or configuration error.

Independent oracles live here rather than in the library modules: the
4x4 dense embedding for block products, rotation and boost matrices for
the four-vector laws, spatial- and temporal-plane rotation matrices for
the multiplication patterns of Table 1, and central differences on a
spacetime grid for the derivative symbol and for current conservation.
"""

from __future__ import annotations

import contextvars
import dataclasses
import functools
import json
import math
import numbers
import operator
import os
import sys
import threading
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
        for field in ("seed", "trials"):
            value = getattr(self, field)
            if not isinstance(value, numbers.Integral):
                raise ValueError("%s must be an integer, got %r" % (field, value))
            object.__setattr__(self, field, int(value))
        if self.seed < 0:
            raise ValueError("seed must be non-negative, got %r" % (self.seed,))
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError("tol must be positive and finite, got %r" % (self.tol,))
        if not all(isinstance(n, numbers.Integral) for n in self.n_set):
            raise ValueError("n_set must hold integers, got %r" % (self.n_set,))
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


def _axis_waves(energy, momentum, shape, spacing) -> list[np.ndarray]:
    """exp(i k x) along each axis, k = -E on the time axis and p elsewhere."""
    axes = grid_axes(shape, spacing)
    return [np.exp(1j * (k * x)) for k, x in zip((-energy, *momentum), axes)]


def _plane_wave(energy, momentum, shape, spacing) -> np.ndarray:
    """exp(i(p.x - E*x0)) on a centered grid, as the outer product of one
    exponential per axis: 4n ``exp`` calls and no n**4 phase array.
    ``sample_quat_mode`` forms the same product by blocks of axis-1 rows."""
    return functools.reduce(
        np.multiply.outer, _axis_waves(energy, momentum, shape, spacing)
    )


_WORKER_FLOOR = 8_000  # points of a time plane per worker, see _split_rows


def _cpu_count() -> int:
    """The CPUs this process may run on, or all of them where the platform
    has no affinity."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _split_rows(work, rows: int, row_points: int) -> None:
    """``work(a, b)`` over the rows [0, rows) of a grid plane of ``row_points``
    points per row, in contiguous blocks, one per worker.

    There are as many workers as CPUs in this process's affinity, but no more
    than leave each at least ``_WORKER_FLOOR`` points of a plane; one worker
    is a plain call.  The caller runs the first block and one thread per
    other block runs in a copy of the caller's context, so ``np.errstate``
    holds in it; the threads start on each call, are joined before it
    returns, and the first exception a thread raised is raised again here.
    ``work`` must write disjoint outputs for disjoint blocks.

    The floor: a worker makes the kernel's ufunc calls on its own rows and
    hands the GIL over on each, which pays only when every call is long.
    One ``sample_quat_mode`` + ``fd_apply_D`` op, median ms, one thread ->
    two (2-core x86-64, NumPy 2.4), with each worker's share of an
    ``fd_apply_D`` plane in brackets: 9^4 [283] 1.2 -> 2.7, 13^4 [929]
    3.3 -> 9.9, 17^4 [2,167] 7.0 -> 17.3, 21^4 [4,189] 13.0 -> 21.9, 25^4
    [7,187] 25.9-29.7 -> 29.9-33.4, 27^4 [9,112] 38.2-54.3 -> 34.5-46.5,
    29^4 [11,353] 78.2 -> 57.5, 33^4 [16,879] 127.6 -> 78.8.
    """
    workers = min(_cpu_count(), rows, rows * row_points // _WORKER_FLOOR)
    if workers < 2:
        work(0, rows)
        return
    bounds = [rows * i // workers for i in range(workers + 1)]
    errors = []

    def run(context, a, b):
        try:
            context.run(work, a, b)
        except BaseException as exc:  # raised again in the caller
            errors.append(exc)

    threads = []
    try:
        for a, b in zip(bounds[1:-1], bounds[2:]):
            thread = threading.Thread(target=run, args=(contextvars.copy_context(), a, b))
            thread.start()
            threads.append(thread)
        work(bounds[0], bounds[1])
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]


def sample_quat_mode(
    amplitude: Quat, energy: float, momentum, shape, spacing: float
) -> Grid4:
    """Sample amplitude * exp(i(p.x - E*x0)) on a centered grid.

    The values have shape (n0, n1, n2, n3, 4), stored component-major; the
    grid functions accept any layout.  A non-finite ``energy`` or
    ``momentum``, or a ``momentum`` that is not a 3-vector, raises
    ``ValueError`` naming the field.

    The plane wave is the outer product of one exponential per axis, and
    each component is the amplitude's component times it.  ``_split_rows``
    splits the axis-1 rows between worker threads, one per CPU, when each
    gets at least ``_WORKER_FLOOR`` points of a time plane (from 27^4 on two
    CPUs; smaller grids and a 1-CPU affinity run as one block in the
    caller).  Each worker forms the outer product on its rows,
    ``reduce(multiply.outer, (w0, w1[a:b], w2, w3))``, and multiplies it
    into its rows of the output, so a call allocates the output plus one
    wave-sized array over all workers.  Every element is the same products
    in the same order however the rows are split, so the values are bitwise
    those of a single whole-grid product.
    """
    momentum = np.asarray(momentum, dtype=float)
    if momentum.shape != (3,):
        raise ValueError("momentum must be a 3-vector, got %r" % (momentum,))
    dr._check_finite(energy=energy, momentum=momentum)
    w0, w1, w2, w3 = _axis_waves(energy, momentum, shape, spacing)
    comps = np.array(amplitude.components)[:, None, None, None, None]
    out = np.empty((4, *shape), dtype=complex)

    def rows(a, b):
        wave = functools.reduce(np.multiply.outer, (w0, w1[a:b], w2, w3))
        np.multiply(comps, wave, out=out[:, :, a:b])

    _split_rows(rows, shape[1], shape[2] * shape[3])
    return Grid4(spacing, np.moveaxis(out, 0, -1))


# left multiplication by e_r: (source component, sign) of each output component
_BASIS_LEFT_MUL = {
    1: ((1, -1), (0, 1), (3, -1), (2, 1)),
    2: ((2, -1), (3, 1), (0, 1), (1, -1)),
    3: ((3, -1), (2, -1), (1, 1), (0, 1)),
}


def _fd_stencil(comps: np.ndarray, spacing: float):
    """The difference operator on the component-major grid ``comps``,
    (4, n0, n1, n2, n3), copied once if it is not C-contiguous, over any
    contiguous range of its flat positions: ``block(k, conjugate, lo, buf,
    diff)`` writes output component ``k`` at the flat positions
    [lo, lo + buf.size) into ``buf`` and returns it, with ``diff`` a scratch
    buffer of the same size.  The range must lie in the interior time
    planes; its positions on a boundary row or column of a plane read the
    points next to them and are to be discarded.  ``fd_apply_D`` takes one
    block of axis-1 rows of one time plane per call, ``_fd_divergence_max``
    a run of whole time planes.

    On the flat (4, n0*n1*n2*n3) view each difference is one contiguous
    subtraction, ``f[lo + s : lo + s + m] - f[lo - s : lo - s + m]`` with
    ``s`` the stride of the axis and ``m`` the size of the range.  Each
    difference is scaled by the reciprocal 1/(2h): NumPy divides a + bi by a
    float c as (a + b*0)*s + (b - a*0)*s i with s = 1/c, and multiplies it
    by s as (a*s - b*0) + (a*0 + b*s) i.  For finite a and b both are
    a*s + b*s i, so ``*= 1/(2h)`` gives the doubles of ``/= 2h`` up to the
    sign of a zero, at about a fifth of the cost of the complex division.
    Each position sees the same subtraction, scaling, factor i and additions
    in the same order whatever the range, so any split of the positions
    gives bitwise the same values.
    """
    n1, n2, n3 = comps.shape[2:]
    flat = np.ascontiguousarray(comps).reshape(4, -1)
    strides = (n1 * n2 * n3, n2 * n3, n3, 1)
    scale = 1.0 / (2.0 * spacing)

    def block(k: int, conjugate: bool, lo: int, buf, diff) -> np.ndarray:
        m, s = buf.size, strides[0]
        np.subtract(flat[k, lo + s : lo + s + m], flat[k, lo - s : lo - s + m], out=buf)
        np.multiply(buf, scale, out=buf)
        np.multiply(1j, buf, out=buf)
        for r, s in zip((1, 2, 3), strides[1:]):
            j, sign = _BASIS_LEFT_MUL[r][k]
            np.subtract(flat[j, lo + s : lo + s + m], flat[j, lo - s : lo - s + m], out=diff)
            np.multiply(diff, scale, out=diff)
            combine = np.add if (sign > 0) != conjugate else np.subtract
            combine(buf, diff, out=buf)
        return buf

    return block


def fd_apply_D(grid: Grid4, conjugate: bool = False) -> Grid4:
    """Central-difference application of the derivative quaternion.

    The temporal component enters as i * d/dx0; spatial derivatives are
    left-multiplied by their basis quaternion, and subtracted instead of
    added for the conjugated derivative (``conjugate=True``).  The input
    values, of shape (n0, n1, n2, n3, 4), may have any layout; one that is
    not component-major is copied once.  The returned grid shrinks by one
    point on each side and is stored component-major.

    ``_split_rows`` splits the interior axis-1 rows between worker threads,
    one per CPU, when each gets at least ``_WORKER_FLOOR`` points of a time
    plane (from 27^4 on two CPUs; smaller grids and a 1-CPU affinity run as
    one block in the caller).  Each worker builds its rows one interior time
    plane and one component at a time (``_fd_stencil``): every difference is
    one contiguous subtraction over the worker's rows of a flat input plane,
    into one of two buffers of that size, whose boundary rows of axes 2 and
    3 are discarded.  The buffers of all workers together come to two time
    planes, so a call allocates the output plus two time-plane buffers.
    Every element sees the same subtraction, scaling by the reciprocal
    1/(2h), factor i and additions in the same order whatever the split, so
    the output equals a whole-grid evaluation's bitwise.
    """
    values = grid.values
    if min(values.shape[:4]) < 5:
        raise GridTooSmall("need at least 5 points per axis")
    n0, n1, n2, n3 = values.shape[:4]
    block = _fd_stencil(np.moveaxis(values, -1, 0), grid.spacing)
    out = np.empty((4, n0 - 2, n1 - 2, n2 - 2, n3 - 2), dtype=values.dtype)
    row = n2 * n3

    def rows(a, b):
        buf, diff = np.empty((2, (b - a) * row), dtype=values.dtype)
        for t in range(n0 - 2):
            lo = ((t + 1) * n1 + a + 1) * row
            for k in range(4):
                block(k, conjugate, lo, buf, diff)
                out[k, t, a:b] = buf.reshape(b - a, n2, n3)[:, 1:-1, 1:-1]

    _split_rows(rows, n1 - 2, row)
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
    v = np.stack([1j * c0, c1, c2, c3], axis=-1)
    scale = np.maximum(1.0, np.abs(v).max(axis=-1))
    if (np.abs(v.imag).max(axis=-1) > 1e-9 * scale).any():
        raise ValueError("quaternion is not a Euclidean four-vector")
    return v.real.copy()


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
# seeded draws: samplers (rng, k) -> a stack of k instances, and the draws
# of the cases made of them

def case_rng(seed: int, suite: str, case: str) -> np.random.Generator:
    """Philox generator of one case, keyed by (seed, suite, case name)."""
    key = tuple(("%s/%s" % (suite, case)).encode())
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=key)
    return np.random.Generator(np.random.Philox(ss))


def rand_complex_vec(rng, *shape: int) -> np.ndarray:
    """Real and imaginary parts uniform in [-1, 1) in one call, drawn as a
    loop of ``rand_complex_vec(rng, shape[-1])`` over the leading axes."""
    u = rng.uniform(-1, 1, (*shape[:-1], 2, shape[-1]))
    # written into the parts of one array, with no complex temporaries: the
    # same values as u0 + 1j*u1, since a uniform part is never -0.0
    out = np.empty(shape, dtype=complex)
    out.real, out.imag = u[..., 0, :], u[..., 1, :]
    return out


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


_potential_field = functools.partial(rand_field, with_potential=True)


@functools.cache
def _complex(*shape: int):
    """Sampler of complex entries (k, *shape), see ``rand_complex_vec``."""
    return lambda rng, k: rand_complex_vec(rng, k, *shape)


@functools.cache
def _uniform(low: float, high: float, *shape: int):
    return lambda rng, k: rng.uniform(low, high, (k, *shape))


@functools.cache
def _integers(high: int):
    return lambda rng, k: rng.integers(high, size=k)


@functools.cache
def _mode_draws(count: int):
    """Sampler of ``count`` solution modes per instance, one after the other:
    momenta (k, count, 3), and picks (k, count) among their plane-wave modes."""

    def sample(rng, k):
        draws = [(rand_momentum(rng, k), rng.integers(4, size=k)) for _ in range(count)]
        return tuple(np.stack(x, axis=1) for x in zip(*draws))

    return sample


def _n_draws(cfg) -> list[int]:
    """``cfg.trials`` exponents: those of ``cfg.n_set`` in order, in blocks
    whose sizes differ by at most one, the first blocks the larger."""
    per_n, extra = divmod(cfg.trials, len(cfg.n_set))
    return [n for k, n in enumerate(cfg.n_set) for _ in range(per_n + (k < extra))]


@functools.cache
def _draw(instances=None, exponents: bool = False, **samplers):
    """A case's draw: one ``sampler(rng, k)`` call per variable, in order, for
    k = ``cfg.trials`` instances, or ``instances`` if it is a number and
    ``instances(cfg.trials)`` if it is a function, and with ``exponents``
    each trial's exponent of ``_n_draws`` as the column ``n``.  A draw of no
    variable has one instance."""

    def draw(rng, cfg):
        k = instances(cfg.trials) if callable(instances) else instances or cfg.trials
        draws = {name: sample(rng, k) for name, sample in samplers.items()}
        if exponents:
            draws["n"] = np.array(_n_draws(cfg))
        return draws

    return draw


def _member(x, rows):
    """Members ``rows`` of a stacked draw, or with an integer its one member:
    of a dict or tuple of draws, a ``Quat``, a dataclass of stacked fields or
    an array."""
    if isinstance(x, dict):
        return {key: _member(value, rows) for key, value in x.items()}
    if isinstance(x, tuple):
        return tuple(_member(value, rows) for value in x)
    if isinstance(x, Quat):
        return Quat(*(c[rows] for c in x.components))
    if dataclasses.is_dataclass(x):
        fields = dataclasses.fields(x)
        return type(x)(*(_member(getattr(x, f.name), rows) for f in fields))
    return x[rows]


def _instances(draws: dict) -> int:
    """The number of instances of a case's draws, one for a draw of nothing."""
    x = next(iter(draws.values()), np.zeros(1))
    while not isinstance(x, np.ndarray):
        if isinstance(x, tuple):
            x = x[0]
        elif isinstance(x, Quat):
            x = x.components[0]
        else:
            x = getattr(x, dataclasses.fields(x)[0].name)
    return len(x)


def _by_n(draws, check) -> np.ndarray:
    """``check(members, n)`` once on the members of each exponent of the
    column ``draws["n"]``, its rows put back in the members' order: the
    members of one exponent need not be sorted or contiguous."""
    n = draws["n"]
    out = np.empty(len(n))
    for value in np.unique(n):
        rows = np.flatnonzero(n == value)
        out[rows] = check(_member(draws, rows), int(value))
    return out


def _quats(z) -> list[Quat]:
    """One stack of quaternions per column of the components (trials, count, 4)."""
    return [Quat(*column.T) for column in z.swapaxes(0, 1)]


def _modes(draws) -> list[dr.PlaneWaveMode]:
    """The solution modes of the draws ``fd`` and ``modes``, one stack per mode."""
    fd, (momenta, picks) = draws["fd"], draws["modes"]
    rows = np.arange(len(picks))
    out = []
    for p, pick in zip(momenta.swapaxes(0, 1), picks.T):
        modes = dr.plane_wave_modes(p, fd)
        energy = np.stack([mode.energy for mode in modes], axis=-1)[rows, pick]
        amplitude = np.stack([mode.amplitude for mode in modes], axis=-2)[rows, pick]
        out.append(dr.PlaneWaveMode(energy, p, amplitude))
    return out


def _solution(mode: dr.PlaneWaveMode):
    """(pair, mode), the order ``current_divergence`` takes."""
    return dr.spinor_to_pair(mode.amplitude), mode


def _solutions(draws) -> list:
    return [_solution(mode) for mode in _modes(draws)]


def _state(draws) -> dr.DiracState:
    """The state of the first of ``_modes``."""
    return dr.state_from_mode(_modes(draws)[0], draws["fd"])


# ---------------------------------------------------------------------------
# cases, and residual helpers shared by their checks

@dataclass(frozen=True)
class _Case:
    name: str
    draw: object  # (rng, cfg) -> dict of stacks, the instances first
    check: object  # (draws) -> residuals, one row per instance
    tol: float
    kind: str  # "residual" (tol scales with --tol), "guard" or "order"


# each suite's cases, in the order of their definitions below
SUITES: dict[str, list[_Case]] = {}


def _case(suite: str, tol: float, kind: str = "residual", name: str = "", **draw):
    """Add the decorated check to ``SUITES[suite]`` as a case named ``name``
    (by default after the check) with its pinned tolerance, its kind and the
    draw ``_draw(**draw)``, which cases that draw the same variables share."""

    def add(check):
        name_ = name or check.__name__.removeprefix("_check_")
        case = _Case(name_, _draw(**draw), check, tol, kind)
        SUITES.setdefault(suite, []).append(case)
        return check

    return add


def _trial_max(x) -> np.ndarray:
    """The largest modulus of each trial's entries of an array with the trials
    first; NaN for a trial with a NaN entry."""
    return np.abs(x).reshape(len(x), -1).max(axis=1)


def _columns(*gaps) -> np.ndarray:
    """One column per gap, (trials, gaps): each trial's largest modulus of a
    stacked quaternion, block or state (its ``max_abs``) or of an array."""
    maxima = [_trial_max(g) if isinstance(g, np.ndarray) else g.max_abs() for g in gaps]
    return np.stack(maxima, axis=1)


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

@_case("algebra", 1e-12, instances=1, z=_complex(4))
def _check_basis_products(draws):
    cyc = ((qt.I1, qt.I2, qt.I3), (qt.I2, qt.I3, qt.I1), (qt.I3, qt.I1, qt.I2))
    gaps = [g for a, b, c in cyc for g in (a * b - c, b * a + c, a * a + qt.ONE)]
    q = Quat(*draws["z"][0])
    return [[gap.max_abs() for gap in gaps + [qt.ONE * q - q, q * qt.ONE - q]]]


@_case("algebra", 1e-12, z=_complex(3, 4))
def _check_associativity(draws):
    a, b, c = _quats(draws["z"])
    return ((a * b) * c - a * (b * c)).max_abs()


@_case("algebra", 1e-12, z=_complex(2, 4))
def _check_conjugation_anti_homomorphism(draws):
    a, b = _quats(draws["z"])
    ab = a * b
    return _columns(
        ab.quat_conj() - b.quat_conj() * a.quat_conj(),
        ab.herm_conj() - b.herm_conj() * a.herm_conj(),
        ab.complex_conj() - a.complex_conj() * b.complex_conj(),
        a.quat_conj().complex_conj() - a.herm_conj(),
        a.complex_conj().quat_conj() - a.herm_conj(),
    )


@_case("algebra", 1e-12, z=_complex(2, 4))
def _check_dot_two_routes(draws):
    a, b = _quats(draws["z"])
    sandwich = (a.quat_conj() * b + b.quat_conj() * a) * 0.5
    gaps = qt.dot(a, b) - sandwich.temporal, sandwich.spatial, qt.dot(a, a) - a.modulus()
    return _columns(*gaps)


@_case("algebra", 1e-12, z=_complex(2, 4))
def _check_matrix_homomorphism(draws):
    a, b = _quats(draws["z"])
    return _trial_max(qt.to_matrix(a * b) - qt.to_matrix(a) @ qt.to_matrix(b))


@_case("algebra", 1e-12, z=_complex(4))
def _check_matrix_roundtrip(draws):
    q = Quat(*draws["z"].T)
    return (qt.from_matrix(qt.to_matrix(q)) - q).max_abs()


@_case("algebra", 1e-12, z=_complex(4))
def _check_matrix_trace(draws):
    q = Quat(*draws["z"].T)
    trace = np.trace(qt.to_matrix(q), axis1=-2, axis2=-1)
    return np.abs(trace - 2.0 * q.temporal)


@_case("algebra", 1e-12, u=_uniform(-1.0, 1.0, 4))
def _check_real_conjugations_coincide(draws):
    q = Quat(*draws["u"].T)
    return (q.quat_conj() - q.herm_conj()).max_abs()


@_case("algebra", 1e-10, z=_rand_invertible)
def _check_modulus_inverse(draws):
    q = Quat(*draws["z"].T)
    inv = q.inverse()
    return _columns(inv * q - qt.ONE, q * inv - qt.ONE)


@_case("algebra", 0.5, "guard")
def _check_null_inversion_guard(draws):
    return [_raises(qt.SingularQuaternion, _NULL.inverse)]


# ---------------------------------------------------------------------------
# maps suite

# each map projects its lift of 2-columns back to them
@_case("maps", 1e-12, z=_complex(2))
def _check_fg_identity(draws):
    return _trial_max(sm.map_F(sm.lift_G(draws["z"])) - draws["z"])


@_case("maps", 1e-12, z=_complex(2))
def _check_nl_identity(draws):
    return _trial_max(sm.map_N(sm.lift_L(draws["z"])) - draws["z"])


@_case("maps", 1e-12, z=_complex(2))
def _check_lift_real_components(draws):
    lifts = (sm.lift_G(draws["z"]), sm.lift_L(draws["z"]))
    return np.stack([np.abs(np.imag(q.components)).max(axis=0) for q in lifts], axis=1)


@_case("maps", 1e-12, z=_complex(4))
def _check_scalar_shift(draws):
    q = Quat(*draws["z"].T)
    f_gap = sm.map_F(q * (-qt.I3)) - 1j * sm.map_F(q)
    return _columns(f_gap, sm.map_N(q * qt.I3) - 1j * sm.map_N(q))


@_case("maps", 1e-12, z=_complex(4))
def _check_ideal_double(draws):
    q = Quat(*draws["z"].T)
    f_gap = sm.map_F(q * sm.ideal_factor(1)) - 2.0 * sm.map_F(q)
    return _columns(f_gap, sm.map_N(q * sm.ideal_factor(-1)) - 2.0 * sm.map_N(q))


@_case("maps", 1e-12, u=_uniform(-1.0, 1.0, 4), pick=_integers(4))
def _check_lift_commutation(draws):
    q, basis = Quat(*draws["u"].T), Quat(*np.eye(4)[draws["pick"]].T)
    col = (qt.to_matrix(basis) @ sm.map_F(q)[..., None])[..., 0]
    gaps = sm.lift_G(col) - basis * q, sm.lift_G(1j * col) - basis * q * (-qt.I3)
    return _columns(*gaps)


@_case("maps", 1e-12, z=_complex(4))
def _check_gf_ideal(draws):
    factor = sm.ideal_factor(1)
    q = Quat(*draws["z"].T)
    return (sm.lift_G(sm.map_F(q)) * factor - q * factor).max_abs()


@_case("maps", 1e-12)
def _check_idempotent(draws):
    half = sm.ideal_factor(1) * 0.5
    return [(half * half - half).max_abs()]


def _contraction_case(name, matrices, right):
    """<F q| m_k F u> against dot(q, i_k u right) for each pair (m_k, i_k)."""

    @_case("maps", 1e-12, name=name, u=_uniform(-1.0, 1.0, 2, 4))
    def check(draws):
        q, u = _quats(draws["u"])
        fq, fu = sm.map_F(q), sm.map_F(u)
        gaps = []
        for matrix, basis in zip(matrices, qt.BASIS[1:]):
            lhs = (fq.conj() * (fu @ matrix.T)).sum(axis=-1).real
            gaps.append(lhs - qt.dot(q, basis * u * right))
        return _columns(*gaps)


_contraction_case("contraction_vector", [qt.to_matrix(b) for b in qt.BASIS[1:]], qt.ONE)
_contraction_case("contraction_pauli", sm.SIGMA, -qt.I3)


@_case("maps", 1e-12, z=_complex(4))
def _check_bijection_roundtrip(draws):
    v = draws["z"]
    return _trial_max(sm.quat_to_vec(sm.vec_to_quat(v)) - v)


# ---------------------------------------------------------------------------
# blocks suite

def _either_class(z) -> list:
    """The stacked reflectors and rotators of the entries (trials, 2, 4)."""
    return [cls(*_quats(z)) for cls in (bl.Reflector, bl.Rotator)]


# each block's class: 0 (reflector) or 1 (rotator)
@_case(
    "blocks", 1e-12, kx=_integers(2), ky=_integers(2), zx=_complex(2, 4), zy=_complex(2, 4)
)
def _check_product_vs_embedding(draws):
    xs, ys = _either_class(draws["zx"]), _either_class(draws["zy"])
    gaps = [[_trial_max(embed4(x * y) - embed4(x) @ embed4(y)) for y in ys] for x in xs]
    # each trial's gap under the classes it drew
    return np.array(gaps)[draws["kx"], draws["ky"], np.arange(len(draws["kx"]))]


@_case(
    "blocks", 0.5, "guard", instances=1,
    chain2=_complex(2, 2, 4), chain3=_complex(3, 2, 4), chain4=_complex(4, 2, 4),
)
def _check_parity_rule(draws):
    wrong = []
    for count, expected in ((2, bl.Rotator), (3, bl.Reflector), (4, bl.Rotator)):
        chain = draws["chain%d" % count][0]
        blocks = [bl.Reflector(Quat(*upper), Quat(*lower)) for upper, lower in chain]
        wrong.append(not isinstance(functools.reduce(operator.mul, blocks), expected))
    return [wrong]


@_case("blocks", 1e-12, z=_complex(4, 4))
def _check_rotator_conj_anti_homomorphism(draws):
    xu, xl, yu, yl = _quats(draws["z"])
    x, y = bl.Rotator(xu, xl), bl.Rotator(yu, yl)
    return _trial_max(embed4((x * y).quat_conj()) - embed4(y.quat_conj() * x.quat_conj()))


@_case("blocks", 1e-12, z=_complex(4, 4))
def _check_trace_embedding(draws):
    xu, xl, yu, yl = _quats(draws["z"])
    return _columns(*(
        np.trace(embed4(x), axis1=-2, axis2=-1) - 2.0 * x.trace().temporal
        for x in (bl.Rotator(xu, xl), bl.Reflector(yu, yl))
    ))


@_case("blocks", 1e-10, z=_complex(2, 4), rotor=rand_rotor)
def _check_trace_temporal_similarity(draws):
    x = bl.Rotator(*_quats(draws["z"]))
    r, rc = tr.rotor_blocks(draws["rotor"])
    y = r * x * rc
    # per-block temporal components are individually preserved
    gaps = y.trace() - x.trace(), y.upper - x.upper, y.lower - x.lower
    return _columns(*(gap.temporal for gap in gaps))


@_case("blocks", 1e-10, q=_rand_invertible, p=_rand_invertible, rotor=rand_rotor)
def _check_reflector_equation_invariance(draws):
    q, p = Quat(*draws["q"].T), Quat(*draws["p"].T)
    qq, pp = (bl.Reflector(x, x.quat_conj()) for x in (q, p))
    ww = pp.inverse() * qq * pp
    r, rc = tr.rotor_blocks(draws["rotor"])
    qq2, pp2, ww2 = (r * x * rc for x in (qq, pp, ww))
    return _columns(qq * pp - pp * ww, qq2 * pp2 - pp2 * ww2)


def _invertible_entries(rng, count: int) -> np.ndarray:
    """Invertible entries (count, 2, 4) of one block each."""
    return _rand_invertible(rng, 2 * count).reshape(count, 2, 4)


@_case("blocks", 1e-10, pick=_integers(2), z=_invertible_entries)
def _check_block_inverse(draws):
    ident = embed4(bl.identity_rotator())
    xs = _either_class(draws["z"])
    gaps = [_trial_max(embed4(x.inverse() * x) - ident) for x in xs]
    return np.array(gaps)[draws["pick"], np.arange(len(draws["pick"]))]


@_case("blocks", 0.5, "guard")
def _check_block_guards(draws):
    one = bl.Reflector(qt.ONE, qt.ONE)
    return [[
        _raises(TypeError, lambda: one + bl.Rotator(qt.ONE, qt.ONE)),
        _raises(qt.SingularQuaternion, bl.Rotator(_NULL, qt.ONE).inverse),
    ]]


# ---------------------------------------------------------------------------
# table of multiplication patterns

# Table 1: pattern -> (c_s, c_t).  Under a rotor about axis a by angle t the
# pattern's linear map on the components (q0, q1, q2, q3) is
# temporal_rotation_matrix4(a, c_t*t) @ rotation_matrix4(a, c_s*t).
_PATTERN_COEFFS = {
    "RQ": (0.5, 0.5), "QR": (-0.5, 0.5), "RcQ": (-0.5, -0.5), "QRc": (0.5, -0.5),
    "RQR": (0.0, 1.0), "RQRc": (1.0, 0.0), "RcQR": (-1.0, 0.0), "RcQRc": (0.0, -1.0),
}


def _pattern_case(pattern):
    coeff_s, coeff_t = _PATTERN_COEFFS[pattern]

    @_case(
        "table1", 1e-12, name="pattern_" + pattern.lower(),
        angle=_uniform(0.05, math.pi - 0.05), axis=rand_unit3,
    )
    def check(draws):
        axis, angle = draws["axis"], draws["angle"]
        rotor = tr.rotor_spatial(axis, angle)
        spatial = rotation_matrix4(axis, coeff_s * angle)
        want = temporal_rotation_matrix4(axis, coeff_t * angle) @ spatial
        # column k is the pattern applied to the basis quaternion k
        got = [tr.pattern_rotate(pattern, rotor, b).components for b in qt.BASIS]
        return _trial_max(np.array(got).T - want)


for _pattern in tr.ROTATION_PATTERNS:
    _pattern_case(_pattern)


@_case("table1", 1e-12, instances=1, u=_uniform(-1.0, 1.0, 8, 4))
def _check_identity_pattern(draws):
    pairs = zip(tr.ROTATION_PATTERNS, map(Quat, *draws["u"][0].T))
    return [[(tr.pattern_rotate(name, qt.ONE, q) - q).max_abs() for name, q in pairs]]


# ---------------------------------------------------------------------------
# invariance suite (four-vector laws, boosts, exponent-n transformation)

@_case("invariance", 1e-10, axis=rand_unit3, w=_uniform(-2.0, 2.0))
def _check_boost_unit_time(draws):
    unit_time = minkowski_to_quat([1.0, 0, 0, 0])
    axis, w = draws["axis"], draws["w"]
    want = np.concatenate([np.cosh(w)[:, None], np.sinh(w)[:, None] * axis], axis=1)
    moved = tr.four_vector_transform(unit_time, tr.rotor_boost(axis, w))
    return _trial_max(quat_to_minkowski(moved) - want)


@_case(
    "invariance", 1e-10, rotation=rand_rotation, q1=rand_euclidean_quat,
    boost=rand_boost, q2=rand_euclidean_quat,
)
def _check_four_vector_vs_matrix(draws):
    gaps = []
    for rotor, q in ((draws["rotation"], draws["q1"]), (draws["boost"], draws["q2"])):
        got = quat_to_minkowski(tr.four_vector_transform(q, rotor))
        want = _matrix_oracle(rotor) @ quat_to_minkowski(q)[..., None]
        gaps.append(got - want[..., 0])
    return _columns(*gaps)


@_case("invariance", 1e-10, q=rand_euclidean_quat, boost=rand_boost)
def _check_interval_preservation(draws):
    v = quat_to_minkowski(draws["q"])
    v2 = quat_to_minkowski(tr.four_vector_transform(draws["q"], draws["boost"]))

    def interval(u):
        # a stacked matmul sums like the per-trial u[1:] @ u[1:], bitwise
        return u[:, 0] ** 2 - (u[:, None, 1:] @ u[:, 1:, None])[:, 0, 0]

    return np.abs(interval(v) - interval(v2))


@_case(
    "invariance", 1e-10, q=rand_euclidean_quat, r1=rand_rotation, r2=rand_rotation,
    axis=rand_unit3, w1=_uniform(-2.0, 2.0), w2=_uniform(-2.0, 2.0),
)
def _check_composition(draws):
    move = tr.four_vector_transform
    q, r1, r2, axis = draws["q"], draws["r1"], draws["r2"], draws["axis"]
    w1, w2 = draws["w1"], draws["w2"]
    b1, b2 = tr.rotor_boost(axis, w1), tr.rotor_boost(axis, w2)
    oracle = _matrix_oracle(b1) @ _matrix_oracle(r1) @ quat_to_minkowski(q)[..., None]
    # rotation then boost: one mixed rotor, neither a rotation nor a boost
    mixed = move(q, b1 * r1)
    return _columns(
        move(move(q, r1), r2) - move(q, r2 * r1),
        move(move(q, b1), b2) - move(q, tr.rotor_boost(axis, w1 + w2)),
        move(move(q, b1), tr.rotor_boost(axis, -w1)) - q,
        move(move(q, r1), b1) - mixed,
        quat_to_minkowski(mixed) - oracle[..., 0],
    )


@_case("invariance", 1e-10, rotor=rand_rotor, q=rand_euclidean_quat)
def _check_blocks_vs_vector_path(draws):
    rotor, q = draws["rotor"], draws["q"]
    r, rc = tr.rotor_blocks(rotor)
    moved = r * bl.Reflector(q, q.quat_conj()) * rc
    direct = tr.four_vector_transform(q, rotor)
    return _columns(moved.upper - direct, moved.lower - direct.quat_conj())


@_case(
    "invariance", 1e-8,
    exponents=True, fd=_potential_field, modes=_mode_draws(1), rotor=rand_rotor,
)
def _check_n_invariance(draws):
    def residual(draws, n):
        moved = dr.transform_state(_state(draws), tr.TransformSpec(draws["rotor"], n))
        return moved.residual().max_abs()

    return _by_n(draws, residual)


@_case("invariance", 1e-10, fd=rand_field, boost=rand_boost)
def _check_mass_four_vector(draws):
    fd, boost = draws["fd"], draws["boost"]
    # the boost matrix on (mass, 0, 0, 0): its first column times the mass
    oracle = _matrix_oracle(boost)[..., 0] * fd.mass[:, None]
    state = dr.state_from_mode(dr.plane_wave_modes(np.zeros(3), fd)[3], fd)
    mass_after = dr.transform_state(state, tr.TransformSpec(boost, 1)).m.upper
    direct = tr.four_vector_transform(Quat(fd.euclidean_mass), boost)
    return _columns(mass_after - direct, quat_to_minkowski(mass_after) - oracle)


@_case("invariance", 0.5, "guard")
def _check_unit_boost_moves_mass(draws):
    # a unit-rapidity boost must push the mass off the temporal axis
    fd = dr.FieldData(1.0)
    state = dr.state_from_mode(dr.plane_wave_modes(np.zeros(3), fd)[3], fd)
    spec = tr.TransformSpec(tr.rotor_boost(np.array([1.0, 0, 0]), 1.0), 1)
    moved = dr.transform_state(state, spec).m.upper
    return [0.0 if moved.spatial.max_abs() >= 1e-3 else 1.0]


@_case("invariance", 1e-12, fd=rand_field, modes=_mode_draws(1), rotor=rand_rotor)
def _check_mass_fixed_n0(draws):
    state = _state(draws)
    moved = dr.transform_state(state, tr.TransformSpec(draws["rotor"], 0))
    return (moved.m - state.m).max_abs()


# ---------------------------------------------------------------------------
# equivalence suite

@_case("equivalence", 1e-10, fd=_potential_field, p=rand_momentum)
def _check_translated_residuals(draws):
    fd = draws["fd"]
    per_mode = []
    for mode in dr.plane_wave_modes(draws["p"], fd):
        r1, r2 = dr.pair_residual(dr.spinor_to_pair(mode.amplitude), mode, fd)
        per_mode.append(_columns(r1, r2, dr.state_from_mode(mode, fd).residual()))
    return np.stack(per_mode, axis=1)


# the amplitudes' real and imaginary parts (k, 2, 4) from one normal draw
@_case(
    "equivalence", 1e-12, fd=_potential_field, energy=_uniform(-2.0, 2.0),
    p=rand_momentum, parts=lambda rng, k: rng.normal(size=(2, k, 4)).swapaxes(0, 1),
)
def _check_block_equals_pair(draws):
    fd, parts = draws["fd"], draws["parts"]
    # an arbitrary mode, not a solution
    mode = dr.PlaneWaveMode(draws["energy"], draws["p"], parts[:, 0] + 1j * parts[:, 1])
    r1, r2 = dr.pair_residual(dr.spinor_to_pair(mode.amplitude), mode, fd)
    block = dr.state_from_mode(mode, fd).residual()
    return _columns(block.upper - r2, block.lower - r1)


@_case("equivalence", 1e-12, z=_complex(4))
def _check_spinor_roundtrip(draws):
    psi = draws["z"]
    pairs = [dr.spinor_to_pair(psi, lift) for lift in ("G", "L")]
    return _columns(*(dr.pair_to_spinor(pair) - psi for pair in pairs))


@_case("equivalence", 1e-12, z=_complex(4))
def _check_ideal_membership(draws):
    factor = sm.ideal_factor(1)
    pair = dr.spinor_to_pair(draws["z"])
    return _columns(*(phi * factor - 2.0 * phi for phi in (pair.phi1, pair.phi2)))


def _spectra(draws) -> np.ndarray:
    """The Hamiltonian spectra (trials, 4) of one stacked ``eigvalsh``."""
    return np.linalg.eigvalsh(dr.dirac_hamiltonian(draws["p"], draws["fd"]))


def _smallest_singular_values(systems) -> np.ndarray:
    return np.linalg.svd(systems, compute_uv=False)[..., -1]


@_case("equivalence", 1e-10, fd=_potential_field, p=rand_momentum)
def _check_eigenvalue_match(draws):
    fd, p, spectra = draws["fd"], draws["p"], _spectra(draws)
    # each trial's systems: both lifts, each at the four energies
    energies = [(lift, spectra[:, k]) for lift in ("G", "L") for k in range(4)]
    systems = [dr.pair_system_matrix(energy, p, fd, lift) for lift, energy in energies]
    return _smallest_singular_values(np.stack(systems, axis=1))


@_case(
    "equivalence", 0.5, "guard",
    fd=_potential_field, p=rand_momentum, shift=_uniform(0.5, 1.5),
)
def _check_off_eigenvalue_nonsingular(draws):
    energy = _spectra(draws)[:, -1] + draws["shift"]
    systems = dr.pair_system_matrix(energy, draws["p"], draws["fd"])
    # NaN >= 1e-3 is False: a NaN flags 1.0
    return np.where(_smallest_singular_values(systems) >= 1e-3, 0.0, 1.0)


def _fast_momentum(rng, count: int) -> np.ndarray:
    """``rand_momentum`` redrawn until |p| >= 0.1."""
    return _redraw(rng, count, rand_momentum, lambda p: np.linalg.norm(p, axis=-1) >= 0.1)


@_case("equivalence", 1e-12, p=_fast_momentum)
def _check_massless_mode(draws):
    fd, p = dr.FieldData(0.0), draws["p"]
    factor = sm.ideal_factor(1)
    mode = dr.PlaneWaveMode(np.linalg.norm(p, axis=-1), p, np.zeros(4))
    sym, sym_c = dr.momentum_symbol(mode)
    pair = dr.BispinorPair(sym * factor, sym_c * factor)
    return _columns(*dr.pair_residual(pair, mode, fd))


@_case("equivalence", 1e-12)
def _check_rest_frame_values(draws):
    fd = dr.FieldData(1.0)
    positive = [m for m in dr.plane_wave_modes(np.zeros(3), fd) if m.energy > 0]
    # project the degenerate eigenspace onto the first basis spinor
    psi = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
    pair = dr.spinor_to_pair(psi)
    mode = dr.PlaneWaveMode(positive[0].energy, np.zeros(3), psi)
    r1, r2 = dr.pair_residual(pair, mode, fd)
    phi1, phi2 = Quat(1.0, 0.0, 0.0, 1j), (-qt.I3) * sm.ideal_factor(1)
    return [[gap.max_abs() for gap in (pair.phi1 - phi1, pair.phi2 - phi2, r1, r2)]]


# ---------------------------------------------------------------------------
# symmetries suite

def _preserves_case(kind):
    @_case(
        "symmetries", 1e-10, name=kind + "_preserves",
        fd=_potential_field, modes=_mode_draws(1),
    )
    def check(draws):
        return dr.apply_discrete(_state(draws), kind).residual().max_abs()


_preserves_case("parity")
_preserves_case("time_reversal")


@_case("symmetries", 1e-12, fd=_potential_field, modes=_mode_draws(1))
def _check_involutions(draws):
    state = _state(draws)
    gaps = []
    for kind in ("parity", "time_reversal", "charge_conjugation"):
        twice = dr.apply_discrete(dr.apply_discrete(state, kind), kind)
        for block in ("d", "a", "phi", "m"):  # derivative, potential, spinor, mass
            gaps.append(getattr(twice, block) - getattr(state, block))
    return _columns(*gaps)


@_case("symmetries", 1e-10, fd=_potential_field, modes=_mode_draws(1))
def _check_charge_conjugation_flips_potential(draws):
    state = _state(draws)
    image = dr.apply_discrete(state, "charge_conjugation")
    return _columns(image.residual(), image.a - (-state.a))


# ---------------------------------------------------------------------------
# current suite

@_case("current", 1e-12, z=_complex(4))
def _check_current_pipelines(draws):
    psi = draws["z"]
    pair = dr.spinor_to_pair(psi)
    from_pair = cur.pair_current(pair)
    # the column bilinears in Euclidean components
    from_psi = cur.spinor_current(psi) / [1j, 1, 1, 1]
    return _columns(from_pair - from_psi, cur.block_current(pair) - from_pair)


@_case("current", 1e-12)
def _check_current_rest_frame(draws):
    pair = dr.spinor_to_pair(np.array([1.0, 0, 0, 0], dtype=complex))
    return [np.abs(cur.pair_current(pair) - np.array([-1j, 0, 0, 0])).max()]


@_case("current", 1e-12, psi=_complex(4), c=_complex())
def _check_current_scaling(draws):
    psi, c = draws["psi"], draws["c"]
    j1 = cur.pair_current(dr.spinor_to_pair(psi))
    j2 = cur.pair_current(dr.spinor_to_pair(c[:, None] * psi))
    return _trial_max(j2 - (abs(c) ** 2)[:, None] * j1)


@_case("current", 1e-12)
def _check_zero_spinor_current(draws):
    return [np.abs(cur.pair_current(dr.spinor_to_pair(np.zeros(4, dtype=complex)))).max()]


@_case("current", 1e-12, z=_complex(4))
def _check_current_density_positive(draws):
    psi = draws["z"]
    # Euclidean temporal component is purely imaginary, spatial real
    je = cur.pair_current(dr.spinor_to_pair(psi))
    # a guard column: 1 where the density is negative, or NaN
    negative = np.where(cur.spinor_current(psi)[:, 0] >= 0, 0.0, 1.0)
    return _columns(je[:, 0].real, je[:, 1:].imag, negative)


@_case("current", 1e-10, z=_complex(4), rotor=rand_rotor)
def _check_current_covariance(draws):
    pair, rotor = dr.spinor_to_pair(draws["z"]), draws["rotor"]
    # the current quaternion transforms as a Euclidean four-vector by
    # similarity of its reflector
    j = Quat(*cur.pair_current(pair).T)
    r, rc = tr.rotor_blocks(rotor)
    j_after = (r * bl.Reflector(j, j.quat_conj()) * rc).upper
    oracle = _matrix_oracle(rotor) @ quat_to_minkowski(j)[..., None]
    matrix_gap = quat_to_minkowski(j_after) - oracle[..., 0]
    return _columns(matrix_gap, j_after - tr.four_vector_transform(j, rotor))


# ---------------------------------------------------------------------------
# conservation suite

# one check on a tenth of --trials single modes, then on pairs of modes
@_case(
    "conservation", 1e-10, name="two_mode_divergence", fd=rand_field, modes=_mode_draws(2)
)
@_case(
    "conservation", 1e-12, name="single_mode_divergence",
    instances=lambda trials: max(1, trials // 10), fd=rand_field, modes=_mode_draws(1),
)
def _check_mode_divergence(draws):
    return cur.current_divergence(_solutions(draws), draws["fd"])


@_case(
    "conservation", 1e-10,
    exponents=True, fd=rand_field, rotor=rand_rotor, modes=_mode_draws(2),
)
def _check_transformed_divergence(draws):
    def divergence(draws, n):
        spec = tr.TransformSpec(draws["rotor"], n)
        return cur.current_divergence(_solutions(draws), draws["fd"], spec)

    return _by_n(draws, divergence)


@_case("conservation", 0.5, "guard")
def _check_off_shell_guard(draws):
    fd = dr.FieldData(1.0)
    mode = dr.PlaneWaveMode(0.5, np.array([1.0, 0, 0]), np.array([1.0, 0, 0, 0]))
    pair = dr.spinor_to_pair(mode.amplitude)
    return [_raises(cur.NotASolution, cur.current_divergence, [(pair, mode)], fd)]


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


# the most points that one stencil call of _fd_divergence_max covers, 256 KiB
# of buffer: the fastest of 2^13-2^16 at 13^4 and 17^4 (2-core x86-64)
_FD_RUN = 1 << 14


# the largest |temporal component| of fd_apply_D(J, conjugate=True), bitwise,
# with J the (4, n0, n1, n2, n3) current grids: the stencil forms component 0
# alone, where fd_apply_D forms all four, over runs of consecutive interior
# time planes of at most _FD_RUN points (or one plane), one range per run
def _fd_divergence_max(fields, spacing):
    n0, n1, n2, n3 = fields.shape[1:]
    plane = n1 * n2 * n3
    run = min(n0 - 2, max(1, _FD_RUN // plane))
    block = _fd_stencil(fields, spacing)
    buf, diff = np.empty((2, run * plane), dtype=fields.dtype)
    worst = []
    for t in range(0, n0 - 2, run):
        m = min(run, n0 - 2 - t) * plane
        planes = block(0, True, (t + 1) * plane, buf[:m], diff[:m])
        worst.append(np.max(np.abs(planes.reshape(-1, n1, n2, n3)[:, 1:-1, 1:-1, 1:-1])))
    return float(np.max(worst))


def _convergence_gap(error, side: int, h: float) -> float:
    """|coarse/fine - 4| for an error that is second order in the spacing.

    ``error(shape, spacing)`` is taken on ``side`` points per axis at
    spacing ``h`` and on ``2*side - 1`` points over the same box.
    """
    extent = (side - 1) * h
    coarse = error((side,) * 4, h)
    fine = error((2 * side - 1,) * 4, extent / (2 * side - 2))
    return 0.0 if fine == 0.0 else abs(coarse / fine - 4.0)


@_case("conservation", 0.8, "order", instances=1, fd=rand_field, modes=_mode_draws(2))
def _check_fd_divergence_convergence(draws):
    solutions = [_solution(_member(mode, 0)) for mode in _modes(draws)]

    def error(shape, spacing):
        return _fd_divergence_max(_current_grid(solutions, shape, spacing), spacing)

    return [_convergence_gap(error, 9, _GRID_SPACING)]


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
        return np.abs(applied.values - wanted.values).max()

    return _convergence_gap(error, side, h)


@_case("conservation", 0.8, "order", instances=1, fd=rand_field, modes=_mode_draws(1))
def _check_fd_symbol_convergence(draws):
    pair, mode = _solution(_member(_modes(draws)[0], 0))
    sym, _ = dr.momentum_symbol(mode)
    return [_symbol_convergence_gap(
        fd_apply_D, pair.phi1, sym * pair.phi1, mode.energy, mode.momentum, 9,
        _GRID_SPACING,
    )]


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


@_case("radiation", 1e-12, source=_rand_radiation_field)
def _check_radiation_solve(draws):
    source = draws["source"]
    return cur.radiation_residual(source, cur.solve_potential(source))


@_case("radiation", 1e-12, instances=1, q=rand_euclidean_quat)
def _check_radiation_example(draws):
    amp = _member(draws["q"], 0)
    source = (cur.RadiationMode(amp, 2.0, np.array([1.0, 0, 0])),)
    potential = cur.solve_potential(source)
    gap = potential[0].amplitude - amp / 3.0
    return [[gap.max_abs(), cur.radiation_residual(source, potential)]]


@_case("radiation", 0.5, "guard")
def _check_lightlike_guard(draws):
    x_axis = np.array([1.0, 0, 0])
    lightlike = (cur.RadiationMode(qt.ONE, 1.0, x_axis),)
    zero = (cur.RadiationMode(Quat(), 2.0, x_axis),)
    return [[
        _raises(cur.LightlikeMode, cur.solve_potential, lightlike),
        cur.solve_potential(zero)[0].amplitude.max_abs(),
    ]]


@_case("radiation", 1e-10, source=_rand_radiation_field, rotor=rand_rotor)
def _check_radiation_transformed(draws):
    source = draws["source"]
    return cur.radiation_residual(source, cur.solve_potential(source), draws["rotor"])


@_case("radiation", 0.8, "order", instances=1, mode=_rand_radiation_mode)
def _check_dalembertian_fd(draws):
    mode = _member(draws["mode"], 0)
    exact = mode.wave_operator() * mode.amplitude
    return [_symbol_convergence_gap(
        lambda grid: fd_apply_D(fd_apply_D(grid, conjugate=True)),
        mode.amplitude, exact, mode.omega, mode.wavevector, 11, _GRID_SPACING,
    )]


# ---------------------------------------------------------------------------
# running the cases

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


_SLICE = 4096  # the most instances that one check takes, see ``_check_max``


def _check_max(case: _Case, draws: dict) -> float:
    """The largest residual of ``case.check`` on ``draws``, checked in slices
    of at most ``_SLICE`` instances; NaN when a slice returns no residual."""
    count = _instances(draws)
    worst = []
    for start in range(0, count, _SLICE):
        part = draws if count <= _SLICE else _member(draws, slice(start, start + _SLICE))
        residuals = np.asarray(case.check(part), dtype=float)
        if residuals.size == 0:
            print("case %s returned no residuals" % case.name, file=sys.stderr)
            return math.nan
        worst.append(np.max(residuals))
    return float(np.max(worst))


def _run_case(case: _Case, rng: np.random.Generator, cfg: SuiteConfig) -> CaseResult:
    """Draw, check and time one case, and reduce its residuals to the largest.

    Only ``residual`` tolerances scale with ``cfg.tol``; a residual that is
    not finite fails even when the scaled tolerance overflows to inf, and an
    exception fails the case with residual inf.  Stacked arithmetic
    overflows as quietly as scalar arithmetic, with no NumPy warning.
    """
    scale = cfg.tol / _REFERENCE_TOL if case.kind == "residual" else 1.0
    tol = case.tol * scale
    start = time.perf_counter()
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            worst = _check_max(case, case.draw(rng, cfg))
    except Exception as exc:  # a faulty case must not stop the suite
        print(
            "case %s raised %s: %s" % (case.name, type(exc).__name__, exc),
            file=sys.stderr,
        )
        worst = math.inf
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
    config = {"trials": cfg.trials, "tol": cfg.tol, "n_set": list(cfg.n_set)}
    passed = all(r.passed for r in results)
    return VerificationReport(cfg.suite, cfg.seed, config, tuple(results), passed, elapsed)


def emit_report(report: VerificationReport, fmt: str = "text") -> str:
    if fmt == "json":
        # the report's and its cases' fields, "passed" as "pass"
        payload = dataclasses.asdict(report)
        for fields in (payload, *payload["cases"]):
            fields["pass"] = fields.pop("passed")
        for case in payload["cases"]:
            case["max_residual"] = "%.9e" % case["max_residual"]
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
