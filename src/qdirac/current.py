"""The conserved Dirac current in its three equivalent forms, its
covariance, symbolic conservation, and the radiation equation.

The current of a 4-column amplitude is the familiar bilinear
(psi^H psi, psi^H alpha_r psi).  After translation, the same four scalars
(temporal one divided by i) arise from the quaternion bispinors as
temporal parts, and once more as the temporal part of the trace of the
rotator K PhiS I_mu Phi built from reflector factors.  All three
pipelines are kept separate so they can check each other.

The block-trace factors K PhiS_a I_mu and Phi_b of all modes come from
``_current_factors`` at once.  The fixed blocks, K, I_mu and a transform's
rotor blocks, fold into 4x4 left- and right-multiplication maps, built once
per call with a transform and once per process without one, and one
contraction applies them to the stacked components of herm_conj(phi) and
of phi.  For reflectors L and Phi, temporal(trace(L Phi))
= dot(L.upper, Phi.lower.quat_conj()) + dot(L.lower, Phi.upper.quat_conj()),
so the last product, its trace and its temporal part are one contraction.
``current_divergence`` checks the equations of all modes on their stacked
components and contracts the factors a chunk of rows at a time, with at
most 64 KB of currents in a chunk.

Conservation is evaluated exactly at the symbol level: for a
superposition of zero-potential solution modes with a common scalar mass,
every mode-pair coefficient of the four-divergence cancels identically,
and the cancellation survives the exponent-n transformation of all
participating blocks.

The radiation equation is solved per plane-wave mode by dividing by the
wave-operator symbol omega**2 - |k|**2, which is singular on the light
cone.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .blocks import Reflector, block_power, identity_rotator
from .dirac import BispinorPair, FieldData, PlaneWaveMode
from .dirac import _check_finite
from .quaternion import BASIS, Quat
from .spinor_maps import SIGMA
from .transforms import TransformSpec, rotor_blocks

__all__ = [
    "NotASolution",
    "LightlikeMode",
    "RadiationMode",
    "CovarianceReport",
    "spinor_current",
    "euclidean_current",
    "pair_current",
    "block_current",
    "current_divergence",
    "current_covariance",
    "solve_potential",
    "radiation_residual",
]

_K_COEFF = -0.25j  # shared coefficient of every current component
# each mode offered to current_divergence must solve its equation to this
_SOLUTION_TOL = 1e-8
# solve_potential rejects a wave-operator symbol below this times its scale
_LIGHTLIKE_TOL = 1e-9


class NotASolution(ValueError):
    """A mode offered to the conservation check fails its residual."""


class LightlikeMode(ZeroDivisionError):
    """The wave-operator symbol vanishes for this mode."""


def spinor_current(psi) -> np.ndarray:
    """(psi^H psi, psi^H alpha_r psi) for a 4-column amplitude; real output."""
    psi = np.asarray(psi, dtype=complex)
    psi1, psi2 = psi[:2], psi[2:]
    j = np.empty(4)
    j[0] = float(np.real(np.vdot(psi, psi)))
    for r in range(3):
        # alpha_r swaps the bispinors through sigma_r
        j[r + 1] = float(
            np.real(np.vdot(psi1, SIGMA[r] @ psi2) + np.vdot(psi2, SIGMA[r] @ psi1))
        )
    return j


def pair_current(pair: BispinorPair, other: BispinorPair | None = None) -> np.ndarray:
    """Current components from the quaternion bispinors directly.

    With ``other`` given, the same bilinear with ``pair`` on the daggered
    side and ``other`` on the plain side: the coefficient of the cross term
    between two modes in the current of their superposition.
    """
    other = pair if other is None else other
    h1, h2 = pair.phi1.herm_conj(), pair.phi2.herm_conj()
    out = np.empty(4, dtype=complex)
    for mu, basis in enumerate(BASIS):
        term = h1 * basis.quat_conj() * other.phi1 + h2 * basis * other.phi2
        out[mu] = (_K_COEFF * term).temporal
    return out


def euclidean_current(psi) -> np.ndarray:
    """``spinor_current`` in Euclidean components: the temporal one divided by i."""
    j = spinor_current(psi)
    return np.array([j[0] / 1j, j[1], j[2], j[3]], dtype=complex)


# the coefficient block K of the block-trace form
_K_BLOCKS = Reflector(Quat(_K_COEFF), Quat(_K_COEFF).quat_conj())


# (A * q)[i] = sum_j _LSIGN[i, j] * A[_IDX[i, j]] * q[j], and (q * B)[i]
# likewise with _RSIGN: the 4x4 matrices of left and right multiplication
_IDX = np.array([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]])
_LSIGN = np.array([[1, -1, -1, -1], [1, 1, -1, 1], [1, 1, 1, -1], [1, -1, 1, 1]])
_RSIGN = np.array([[1, -1, -1, -1], [1, 1, 1, -1], [1, -1, 1, 1], [1, 1, -1, 1]])
_QCONJ = np.array([1, -1, -1, -1])
# _factor_maps lists 14 quaternions and flattens their components.  Its map
# (m, s) is q -> a q b, with a the 1st or 2nd (m < 4) or the 3rd or 4th
# (m = 4) quaternion by side s, and b the (5 + 2m + s)th.  These index the
# flat components for the entries of the matrices of q -> a q and q -> q b.
_LEFT_AT = 4 * np.array([[0, 1]] * 4 + [[2, 3]])[..., None, None] + _IDX
_RIGHT_AT = 4 * np.arange(4, 14).reshape(5, 2)[..., None, None] + _IDX
# row chunks of current_divergence hold at most this many bytes of currents
_CHUNK_BYTES = 1 << 16


def _factor_maps(spec: TransformSpec | None):
    """The fixed blocks of the current folded into 4x4 maps, four of them
    per side of a mode for the left factor and one for the right.

    Side 0 of a mode is its phi2 and side 1 its phi1.  Under the laws
    r Phi rc_n, r_n PhiS rc, r_n K rc_n and r I_mu rc, the upper block of
    K PhiS I_mu is K.u r_n.l h2 rc.u r.u e_mu rc.l and its lower block
    K.l r_n.u h1 rc.l r.l e_mu^c rc.u (K transformed, h = herm_conj(phi),
    I_mu = Reflector(e_mu, e_mu^c)); Phi.lower and Phi.upper are
    r.l phi2 rc_n.u and r.u phi1 rc_n.l.
    """
    k = _K_BLOCKS
    if spec is None:
        r = rc = r_n = rc_n = identity_rotator()
    else:
        r, rc = rotor_blocks(spec.rotor)
        r_n, rc_n = block_power(r, spec.n), block_power(rc, spec.n)
        k = r_n * k * rc_n
    quats = [k.upper * r_n.lower, k.lower * r_n.upper, r.lower, r.upper]
    w_u, w_l = rc.upper * r.upper, rc.lower * r.lower
    for e in BASIS:
        quats += (w_u * e * rc.lower, w_l * e.quat_conj() * rc.upper)
    quats += (rc_n.upper, rc_n.lower)
    c = np.array([q.components for q in quats]).ravel()
    maps = np.einsum("msij,msjk->msik", c[_LEFT_AT] * _LSIGN, c[_RIGHT_AT] * _RSIGN)
    # the left factor's maps act on conj(phi), with herm_conj's signs folded
    # in; the right factor is the quaternion conjugate of the transformed block
    return maps[:4] * _QCONJ, maps[4] * _QCONJ[:, None]


# The no-transform maps and the equation table are built once, on first use.
# Built during the package import, they raised the peak RSS of a process that
# imports the package afresh many times, as bench/run.py does, by 0.25 MB.
@functools.cache
def _plain_maps():
    return _factor_maps(None)


def _current_factors(pairs: list[BispinorPair], spec: TransformSpec | None = None):
    """Components of K PhiS_a I_mu (``left[a, mu]``, upper then lower block)
    and of Phi_b.lower.quat_conj() then Phi_b.upper.quat_conj() (``right[b]``),
    so ``left[a] @ right[b]`` is the current bilinear of pairs a and b.  A spec
    applies the laws r Phi rc_n, r_n PhiS rc, r_n K rc_n and r I_mu rc.

    The fixed blocks fold into the maps of ``_factor_maps``, so all modes
    take one contraction per factor."""
    left_maps, right_maps = _plain_maps() if spec is None else _factor_maps(spec)
    phi = np.array(
        [pair.phi2.components + pair.phi1.components for pair in pairs],
        dtype=complex,
    ).reshape(len(pairs), 2, 4)
    left = np.einsum("msij,asj->amsi", left_maps, phi.conj())
    right = np.einsum("sij,asj->asi", right_maps, phi)
    return left.reshape(len(pairs), 4, 8), right.reshape(len(pairs), 8)


def block_current(pair: BispinorPair) -> np.ndarray:
    """Current components as temporal trace of K PhiS I_mu Phi, one
    contraction of the pair's factors with themselves."""
    left, right = _current_factors([pair])
    return left[0] @ right[0]


# P = (E, i p1, i p2, i p3) from (E, p1, p2, p3)
_SYMBOL = np.array([1, 1j, 1j, 1j])


@functools.cache
def _equation_table() -> np.ndarray:
    """The equations P^c phi1 - phi2 m and P phi2 + phi1 m^c of a zero-potential
    mode, m = -i mass, as a matrix acting on the products of (E, p1, p2, p3,
    mass) with the components of (phi1, phi2)."""
    # coefficient of P[p] in entry (i, j) of the matrix of q -> P q
    at = (_IDX == np.arange(4)[:, None, None]) * _LSIGN
    table = np.zeros((2, 4, 5, 2, 4), dtype=complex)
    table[0, :, :4, 0] = np.einsum("pij,p->ipj", at, _SYMBOL * _QCONJ)
    table[1, :, :4, 1] = np.einsum("pij,p->ipj", at, _SYMBOL)
    table[0, :, 4, 1] = 1j * np.eye(4)
    table[1, :, 4, 0] = -1j * np.eye(4)
    return table.reshape(8, 40)


def _check_solutions(solutions, fd: FieldData) -> np.ndarray:
    """Momentum symbols of the modes, (N, 4); NotASolution names the first
    mode whose quaternion equations miss zero by more than 1e-8."""
    coeffs = np.array(
        [(mode.energy, *mode.momentum.tolist(), fd.mass) for _, mode in solutions]
    )
    phi = np.array([pair.phi1.components + pair.phi2.components for pair, _ in solutions])
    products = (coeffs[:, :, None] * phi[:, None, :]).reshape(len(solutions), 40)
    residuals = np.einsum("ik,ak->ai", _equation_table(), products)
    # NaN fails too
    if not np.max(np.abs(residuals)) <= _SOLUTION_TOL:
        ok = np.abs(residuals).max(axis=1) <= _SOLUTION_TOL
        _, mode = solutions[int(np.argmin(ok))]
        raise NotASolution("mode with energy %g fails its residual" % mode.energy)
    return coeffs[:, :4] * _SYMBOL


def current_divergence(
    solutions: list[tuple[BispinorPair, PlaneWaveMode]],
    fd: FieldData,
    spec: TransformSpec | None = None,
) -> float:
    """Largest mode-pair coefficient of the symbolic four-divergence.

    Every mode must solve the zero-potential equation to 1e-8; a
    transform spec, when given, transforms the spinor, dagger-spinor,
    coefficient and basis blocks by their respective laws while the phase
    factors (and hence the difference symbols) stay put.  The once-built
    factors are contracted a chunk of rows at a time: row ``a`` with all
    modes b, weighted by P_b - P_a.
    """
    if not solutions:
        raise ValueError("the conservation check needs at least one mode")
    if np.any(fd.potential != 0.0):
        raise ValueError("the conservation identity assumes zero potential")
    syms = _check_solutions(solutions, fd)
    left, right = _current_factors([pair for pair, _ in solutions], spec)
    n = len(solutions)
    rows = max(1, _CHUNK_BYTES // (4 * n * 16))
    worst = []
    for a in range(0, n, rows):
        # einsum, not @: a first BLAS call costs about 0.2 MB of peak RSS
        currents = np.einsum("amk,bk->amb", left[a : a + rows], right)
        # weighted in place, so a chunk holds two arrays of its size, not three
        currents *= syms.T - syms[a : a + rows, :, None]
        worst.append(np.max(np.abs(currents.sum(axis=1))))
    return float(np.max(worst))  # keeps a NaN, which max() may drop


@dataclass(frozen=True)
class CovarianceReport:
    scalar_residual: float
    j_before: Quat
    j_after: Quat


def current_covariance(pair: BispinorPair, spec: TransformSpec) -> CovarianceReport:
    """Check the two covariance statements for one bispinor pair.

    The four current scalars are invariant when every block factor
    transforms by its law; the assembled current quaternion transforms as
    a Euclidean four-vector by similarity of its reflector.
    """
    j = pair_current(pair)
    left, right = _current_factors([pair], spec)
    worst = float(np.max(np.abs(left[0] @ right[0] - j)))
    r, rc = rotor_blocks(spec.rotor)
    j_quat = Quat(*j)
    j_blocks = Reflector(j_quat, j_quat.quat_conj())
    j_after = (r * j_blocks * rc).upper
    return CovarianceReport(worst, j_quat, j_after)


@dataclass(frozen=True)
class RadiationMode:
    """Quaternion amplitude times exp(i(k.x - omega*x0))."""

    amplitude: Quat
    omega: float
    wavevector: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "wavevector", np.asarray(self.wavevector, dtype=float)
        )
        if self.wavevector.shape != (3,):
            raise ValueError("wavevector must be a 3-vector")
        _check_finite(omega=self.omega, wavevector=self.wavevector)

    def symbol(self) -> Quat:
        k = self.wavevector
        return Quat(self.omega, 1j * k[0], 1j * k[1], 1j * k[2])

    def wave_operator(self) -> complex:
        return complex(self.omega**2 - float(self.wavevector @ self.wavevector))


def solve_potential(source) -> tuple[RadiationMode, ...]:
    """Divide each ``RadiationMode`` of ``source`` by its wave-operator symbol."""
    out = []
    for mode in source:
        s = mode.wave_operator()
        scale = max(
            1.0, mode.omega**2, float(mode.wavevector @ mode.wavevector)
        )
        if abs(s) <= _LIGHTLIKE_TOL * scale:
            raise LightlikeMode(
                "mode (omega=%g, |k|=%g) is on the light cone"
                % (mode.omega, float(np.linalg.norm(mode.wavevector)))
            )
        out.append(RadiationMode(mode.amplitude / s, mode.omega, mode.wavevector))
    return tuple(out)


def radiation_residual(source, potential, rotor: Quat | None = None) -> float:
    """Largest block residual of D D A = J over the paired modes.

    ``source`` and ``potential`` are sequences of ``RadiationMode``, paired
    by position; paired modes must share their four-momentum.  When a
    rotor is given, the derivative, potential and current reflectors are
    all moved by its ``rotor_blocks`` similarity before evaluating.
    """
    if len(source) != len(potential):
        raise ValueError("source and potential fields must pair their modes")
    if not source:
        raise ValueError("the radiation check needs at least one mode")
    transform = None if rotor is None else rotor_blocks(rotor)
    residuals = []
    for j_mode, a_mode in zip(source, potential):
        if j_mode.omega != a_mode.omega or np.any(
            j_mode.wavevector != a_mode.wavevector
        ):
            raise ValueError("paired modes must share omega and wavevector")
        sym = j_mode.symbol()
        d = Reflector(sym, sym.quat_conj())
        a = Reflector(a_mode.amplitude, a_mode.amplitude.quat_conj())
        j = Reflector(j_mode.amplitude, j_mode.amplitude.quat_conj())
        if transform is not None:
            r, rc = transform
            d, a, j = r * d * rc, r * a * rc, r * j * rc
        residuals.append((d * d * a - j).max_abs())
    return float(np.max(residuals))  # keeps a NaN, which max() may drop
