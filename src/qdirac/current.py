"""The conserved Dirac current in its three equivalent forms, its
covariance, symbolic conservation, and the radiation equation.

The current of a 4-column amplitude is the familiar bilinear
(psi^H psi, psi^H alpha_r psi).  After translation, the same four scalars
(temporal one divided by i) arise from the quaternion bispinors as
temporal parts, and once more as the temporal part of the trace of the
rotator K PhiS I_mu Phi built from reflector factors.  All three
pipelines are kept separate so they can check each other.

The block-trace factors K PhiS_a I_mu and Phi_b are built once per pair,
by ``_current_factors``.  For reflectors L and Phi, temporal(trace(L Phi))
= dot(L.upper, Phi.lower.quat_conj()) + dot(L.lower, Phi.upper.quat_conj()),
so the last product, its trace and its temporal part are one contraction.

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

from dataclasses import dataclass

import numpy as np

from .blocks import Reflector, block_power
from .dirac import BispinorPair, FieldData, PlaneWaveMode, momentum_symbol, pair_residual
from .quaternion import BASIS, Quat
from .spinor_maps import SIGMA
from .transforms import TransformSpec, rotor_blocks

__all__ = [
    "NotASolution",
    "LightlikeMode",
    "CurrentSample",
    "RadiationMode",
    "PlaneWaveField",
    "CovarianceReport",
    "spinor_current",
    "current_sample",
    "pair_current",
    "current_quaternion",
    "block_current",
    "current_divergence",
    "current_covariance",
    "solve_potential",
    "radiation_residual",
]

_K_COEFF = -0.25j  # shared coefficient of every current component


class NotASolution(ValueError):
    """A mode offered to the conservation check fails its residual."""


class LightlikeMode(ZeroDivisionError):
    """The wave-operator symbol vanishes for this mode."""


@dataclass(frozen=True)
class CurrentSample:
    """One amplitude's current in all bookkeeping conventions."""

    minkowski: np.ndarray  # 4 real components
    euclidean: np.ndarray  # 4 complex components, temporal divided by i
    quat: Quat             # components assembled on the quaternion basis


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


def current_quaternion(j) -> Quat:
    return Quat(j[0], j[1], j[2], j[3])


def current_sample(psi, pair: BispinorPair) -> CurrentSample:
    j_mink = spinor_current(psi)
    j_eucl = np.array(
        [j_mink[0] / 1j, j_mink[1], j_mink[2], j_mink[3]], dtype=complex
    )
    return CurrentSample(j_mink, j_eucl, current_quaternion(pair_current(pair)))


def _phi_blocks(pair: BispinorPair) -> Reflector:
    return Reflector(pair.phi1, pair.phi2)


def _phi_s_blocks(pair: BispinorPair) -> Reflector:
    return Reflector(pair.phi1.herm_conj(), pair.phi2.herm_conj())


def _k_blocks() -> Reflector:
    k = Quat(_K_COEFF)
    return Reflector(k, k.quat_conj())


def _i_blocks(mu: int) -> Reflector:
    return Reflector(BASIS[mu], BASIS[mu].quat_conj())


def _current_factors(pairs: list[BispinorPair], spec: TransformSpec | None = None):
    """Components of K PhiS_a I_mu (``left[a, mu]``, upper then lower block)
    and of Phi_b.lower.quat_conj() then Phi_b.upper.quat_conj() (``right[b]``),
    so ``left[a] @ right[b]`` is the current bilinear of pairs a and b.  A spec
    applies the laws r Phi rc_n, r_n PhiS rc, r_n K rc_n and r I_mu rc."""
    k = _k_blocks()
    i_blocks = [_i_blocks(mu) for mu in range(4)]
    if spec is not None:
        r, rc = rotor_blocks(spec)
        r_n, rc_n = block_power(r, spec.n), block_power(rc, spec.n)
        k = r_n * k * rc_n
        i_blocks = [r * b * rc for b in i_blocks]
    left = np.empty((len(pairs), 4, 2, 4), dtype=complex)
    right = np.empty((len(pairs), 2, 4), dtype=complex)
    for a, pair in enumerate(pairs):
        phi, phi_s = _phi_blocks(pair), _phi_s_blocks(pair)
        if spec is not None:
            phi = r * phi * rc_n
            phi_s = r_n * phi_s * rc
        k_phi_s = k * phi_s
        for mu, i_mu in enumerate(i_blocks):
            factor = k_phi_s * i_mu
            left[a, mu] = factor.upper.components, factor.lower.components
        right[a] = phi.lower.quat_conj().components, phi.upper.quat_conj().components
    return left.reshape(len(pairs), 4, 8), right.reshape(len(pairs), 8)


def block_current(pair: BispinorPair) -> np.ndarray:
    """Current components as temporal trace of K PhiS I_mu Phi, one
    contraction of the pair's factors with themselves."""
    left, right = _current_factors([pair])
    return left[0] @ right[0]


def current_divergence(
    solutions: list[tuple[BispinorPair, PlaneWaveMode]],
    fd: FieldData,
    spec: TransformSpec | None = None,
    tol: float = 1e-8,
) -> float:
    """Largest mode-pair coefficient of the symbolic four-divergence.

    Every mode must solve the zero-potential equation to ``tol``; a
    transform spec, when given, transforms the spinor, dagger-spinor,
    coefficient and basis blocks by their respective laws while the phase
    factors (and hence the difference symbols) stay put.  Row ``a`` of the
    once-built factors is contracted with all modes b, weighted by P_b - P_a.
    """
    if not solutions:
        raise ValueError("the conservation check needs at least one mode")
    if np.any(fd.potential != 0.0):
        raise ValueError("the conservation identity assumes zero potential")
    syms = np.empty((len(solutions), 4), dtype=complex)
    for a, (pair, mode) in enumerate(solutions):
        r1, r2 = pair_residual(pair, mode, fd)
        if not (r1.max_abs() <= tol and r2.max_abs() <= tol):  # NaN fails too
            raise NotASolution(
                "mode with energy %g fails its residual" % mode.energy
            )
        syms[a] = momentum_symbol(mode)[0].components

    left, right = _current_factors([pair for pair, _ in solutions], spec)
    worst = np.empty(len(solutions))
    for a in range(len(solutions)):
        # einsum, not @: a first BLAS call costs about 0.2 MB of peak RSS
        currents = np.einsum("mk,bk->mb", left[a], right)
        coeffs = ((syms - syms[a]).T * currents).sum(axis=0)
        worst[a] = np.max(np.abs(coeffs))
    return float(np.max(worst))


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
    r, rc = rotor_blocks(spec)
    j_quat = current_quaternion(j)
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

    def symbol(self) -> Quat:
        k = self.wavevector
        return Quat(self.omega, 1j * k[0], 1j * k[1], 1j * k[2])

    def wave_operator(self) -> complex:
        return complex(self.omega**2 - float(self.wavevector @ self.wavevector))


@dataclass(frozen=True)
class PlaneWaveField:
    modes: tuple[RadiationMode, ...]

    def __post_init__(self):
        object.__setattr__(self, "modes", tuple(self.modes))


def solve_potential(
    source: PlaneWaveField, lightlike_tol: float = 1e-9
) -> PlaneWaveField:
    """Divide each source mode by its wave-operator symbol."""
    out = []
    for mode in source.modes:
        s = mode.wave_operator()
        scale = max(
            1.0, mode.omega**2, float(mode.wavevector @ mode.wavevector)
        )
        if abs(s) <= lightlike_tol * scale:
            raise LightlikeMode(
                "mode (omega=%g, |k|=%g) is on the light cone"
                % (mode.omega, float(np.linalg.norm(mode.wavevector)))
            )
        out.append(RadiationMode(mode.amplitude / s, mode.omega, mode.wavevector))
    return PlaneWaveField(tuple(out))


def radiation_residual(
    source: PlaneWaveField,
    potential: PlaneWaveField,
    spec: TransformSpec | None = None,
) -> float:
    """Largest block residual of D D A = J over the paired modes.

    Modes are paired by position and must share their four-momentum.  When
    a spec is given, the derivative, potential and current reflectors are
    all transformed by the same similarity before evaluating.
    """
    if len(source.modes) != len(potential.modes):
        raise ValueError("source and potential fields must pair their modes")
    if not source.modes:
        raise ValueError("the radiation check needs at least one mode")
    transform = None
    if spec is not None:
        transform = rotor_blocks(spec)
    residuals = []
    for j_mode, a_mode in zip(source.modes, potential.modes):
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
