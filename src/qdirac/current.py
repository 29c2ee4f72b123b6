"""The conserved Dirac current in its three equivalent forms, its
covariance, symbolic conservation, and the radiation equation.

The current of a 4-column amplitude is the familiar bilinear
(psi^H psi, psi^H alpha_r psi).  After translation, the same four scalars
(temporal one divided by i) arise from the quaternion bispinors as
temporal parts, and once more as the temporal part of the trace of the
rotator K PhiS I_mu Phi built from reflector factors.  All three
pipelines are kept separate so they can check each other.

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


def block_current(pair: BispinorPair) -> np.ndarray:
    """Current components as temporal trace of K PhiS I_mu Phi."""
    phi = _phi_blocks(pair)
    phi_s = _phi_s_blocks(pair)
    k = _k_blocks()
    values = np.empty(4, dtype=complex)
    for mu in range(4):
        values[mu] = (k * phi_s * _i_blocks(mu) * phi).trace().temporal
    return values


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
    factors (and hence the difference symbols) stay put.
    """
    if np.any(fd.potential != 0.0):
        raise ValueError("the conservation identity assumes zero potential")
    for pair, mode in solutions:
        r1, r2 = pair_residual(pair, mode, fd)
        if max(r1.max_abs(), r2.max_abs()) > tol:
            raise NotASolution(
                "mode with energy %g fails its residual" % mode.energy
            )

    if spec is None:
        left = right = left_n = right_n = None
    else:
        r, rc = rotor_blocks(spec)
        left, right = r, rc
        left_n, right_n = block_power(r, spec.n), block_power(rc, spec.n)

    phis = []
    phis_dag = []
    syms = []
    for pair, mode in solutions:
        phi = _phi_blocks(pair)
        phi_s = _phi_s_blocks(pair)
        if spec is not None:
            phi = left * phi * right_n
            phi_s = left_n * phi_s * right
        phis.append(phi)
        phis_dag.append(phi_s)
        syms.append(momentum_symbol(mode)[0])

    k = _k_blocks()
    i_blocks = [_i_blocks(mu) for mu in range(4)]
    if spec is not None:
        k = left_n * k * right_n
        i_blocks = [left * b * right for b in i_blocks]

    worst = 0.0
    n = len(solutions)
    for a in range(n):
        for b in range(n):
            delta = (syms[b] - syms[a]).components
            coeff = 0.0 + 0.0j
            for mu in range(4):
                j_rot = k * phis_dag[a] * i_blocks[mu] * phis[b]
                coeff += delta[mu] * j_rot.trace().temporal
            worst = max(worst, abs(coeff))
    return worst


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
    r, rc = rotor_blocks(spec)
    r_n = block_power(r, spec.n)
    rc_n = block_power(rc, spec.n)
    phi = r * _phi_blocks(pair) * rc_n
    phi_s = r_n * _phi_s_blocks(pair) * rc
    k = r_n * _k_blocks() * rc_n
    worst = 0.0
    for mu in range(4):
        i_mu = r * _i_blocks(mu) * rc
        j_rot = k * phi_s * i_mu * phi
        worst = max(worst, abs(j_rot.trace().temporal - j[mu]))
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
    transform = None
    if spec is not None:
        transform = rotor_blocks(spec)
    worst = 0.0
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
        worst = max(worst, (d * d * a - j).max_abs())
    return worst
