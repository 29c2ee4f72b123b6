"""The conserved Dirac current in its three equivalent forms, symbolic
conservation, and the radiation equation.

The current of a 4-column amplitude is the familiar bilinear
(psi^H psi, psi^H alpha_r psi).  After translation, the same four scalars
(temporal one divided by i) arise from the quaternion bispinors as
temporal parts, and once more as the temporal part of the trace of the
rotator K PhiS I_mu Phi built from reflector factors, with or without a
transform of every factor by its law.  All three pipelines are kept
separate so they can check each other; the harness compares them.

The block-trace factors K PhiS_a I_mu and Phi_b of all modes come from
``_current_factors`` at once.  The fixed blocks, K, I_mu and a transform's
rotor blocks, fold into 4x4 left- and right-multiplication maps, built once
per call with a transform and once per process without one, and one
contraction applies them to the stacked components of herm_conj(phi) and
of phi.  The maps are products of the left- and right-multiplication
matrices of ``quaternion``, the one home of the product's index and sign
tables.  For reflectors L and Phi, temporal(trace(L Phi))
= dot(L.upper, Phi.lower.quat_conj()) + dot(L.lower, Phi.upper.quat_conj()),
so the last product, its trace and its temporal part are one contraction.
``current_divergence`` checks the equations of ``pair_residual`` for all
modes at once, through the left-multiplication matrices of their momentum
symbols.  The weight P_b - P_a of the pair (a, b) folds into the factors,
P_b into the right one and P_a into a summed left one, so the divergence
coefficients of a chunk of rows are two matrix products, with at most
64 KB of coefficients in a chunk.

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
from .dirac import _SYMBOL, _check_finite, _symbol
from .quaternion import BASIS, Quat, _left_matrix, _right_matrix
from .spinor_maps import SIGMA
from .transforms import TransformSpec, rotor_blocks

__all__ = [
    "NotASolution",
    "LightlikeMode",
    "RadiationMode",
    "spinor_current",
    "pair_current",
    "block_current",
    "current_divergence",
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


# the coefficient block K of the block-trace form
_K_BLOCKS = Reflector(Quat(_K_COEFF), Quat(_K_COEFF).quat_conj())


# the component signs of the quaternion conjugate
_QCONJ = np.array([1, -1, -1, -1])
# the signs of the mass terms phi1 m^c and -phi2 m of the two equations
_MASS_SIGNS = np.array([[1], [-1]])
# row chunks of current_divergence hold at most this many bytes of
# divergence coefficients
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
    # map (m, s) is q -> a q b, with a the (2m + s)th quaternion, or the
    # (8 + s)th for m = 4, and b the (10 + 2m + s)th
    quats = [k.upper * r_n.lower, k.lower * r_n.upper] * 4 + [r.lower, r.upper]
    w_u, w_l = rc.upper * r.upper, rc.lower * r.lower
    for e in BASIS:
        quats += (w_u * e * rc.lower, w_l * e.quat_conj() * rc.upper)
    quats += (rc_n.upper, rc_n.lower)
    c = np.array([q.components for q in quats]).reshape(2, 5, 2, 4)
    maps = np.einsum("msij,msjk->msik", _left_matrix(c[0]), _right_matrix(c[1]))
    # the left factor's maps act on conj(phi), with herm_conj's signs folded
    # in; the right factor is the quaternion conjugate of the transformed block
    return maps[:4] * _QCONJ, maps[4] * _QCONJ[:, None]


# The no-transform maps are built once, on first use.
# Built during the package import, they raised the peak RSS of a process that
# imports the package afresh many times, as bench/run.py does, by 0.25 MB.
@functools.cache
def _plain_maps():
    return _factor_maps(None)


def _stack_phi(pairs) -> np.ndarray:
    """Components of phi2 then phi1 of each pair, (N, 2, 4): side 0 and
    side 1 of ``_factor_maps``."""
    phi = [pair.phi2.components + pair.phi1.components for pair in pairs]
    return np.array(phi, dtype=complex).reshape(len(phi), 2, 4)


def _current_factors(phi: np.ndarray, spec: TransformSpec | None = None):
    """Components of K PhiS_a I_mu (``left[a, mu]``, upper then lower block)
    and of Phi_b.lower.quat_conj() then Phi_b.upper.quat_conj() (``right[b]``),
    so ``left[a] @ right[b]`` is the current bilinear of pairs a and b, given
    their ``_stack_phi`` components.  A spec applies the laws r Phi rc_n,
    r_n PhiS rc, r_n K rc_n and r I_mu rc.

    The fixed blocks fold into the maps of ``_factor_maps``, so all modes
    take one contraction per factor."""
    left_maps, right_maps = _plain_maps() if spec is None else _factor_maps(spec)
    left = np.einsum("msij,asj->amsi", left_maps, phi.conj())
    right = np.einsum("sij,asj->asi", right_maps, phi)
    return left.reshape(len(phi), 4, 8), right.reshape(len(phi), 8)


def block_current(
    pair: BispinorPair, spec: TransformSpec | None = None
) -> np.ndarray:
    """Current components as temporal trace of K PhiS I_mu Phi, one
    contraction of the pair's factors with themselves.  A spec transforms
    every factor by its law; the four scalars do not change."""
    left, right = _current_factors(_stack_phi([pair]), spec)
    return left[0] @ right[0]


def _check_solutions(solutions, fd: FieldData):
    """Momentum symbols P of the modes, (N, 4), and their ``_stack_phi``
    components; NotASolution names the first mode whose equations
    P phi2 + phi1 m^c and P^c phi1 - phi2 m, those of ``pair_residual`` at
    zero potential, miss zero by more than 1e-8."""
    syms = np.array([(mode.energy, *mode.momentum.tolist()) for _, mode in solutions])
    syms = syms * _SYMBOL
    phi = _stack_phi(pair for pair, _ in solutions)
    # P and P^c act on phi2 and phi1; the mass m is a scalar, so m^c = m
    eqs = _left_matrix(np.stack((syms, syms * _QCONJ), axis=1))
    residuals = np.einsum("asij,asj->asi", eqs, phi)
    residuals += phi[:, ::-1] * (fd.euclidean_mass * _MASS_SIGNS)
    # NaN fails too
    ok = np.abs(residuals).reshape(len(phi), 8).max(axis=1) <= _SOLUTION_TOL
    if not ok.all():
        _, mode = solutions[int(np.argmin(ok))]
        raise NotASolution("mode with energy %g fails its residual" % mode.energy)
    return syms, phi


def _max_divergence(left: np.ndarray, right: np.ndarray, syms: np.ndarray) -> float:
    """Largest |sum_mu left[a, mu] @ right[b] (P_b - P_a)_mu| over all a, b,
    with P = ``syms``; NaN when any entry of the inputs is NaN.

    The weight splits as left[a] @ (P_b outer right[b]) minus
    (sum_mu P_a,mu left[a, mu]) @ right[b], two matrix products per chunk
    of rows."""
    n = len(syms)
    weighted = (syms[:, :, None] * right[:, None, :]).reshape(n, 32)
    folded = np.einsum("am,amk->ak", syms, left)
    left = left.reshape(n, 32)
    rows = max(1, _CHUNK_BYTES // (n * 16))
    worst = []
    for a in range(0, n, rows):
        # the first zgemm of a process raises its peak RSS once, by
        # 0.4-0.6 MB in a bare process
        div = left[a : a + rows] @ weighted.T
        div -= folded[a : a + rows] @ right.T
        worst.append(np.max(np.abs(div)))
    return float(np.max(worst))  # keeps a NaN, which max() may drop


def current_divergence(
    solutions: list[tuple[BispinorPair, PlaneWaveMode]],
    fd: FieldData,
    spec: TransformSpec | None = None,
) -> float:
    """Largest mode-pair coefficient of the symbolic four-divergence.

    Every mode must solve the zero-potential equation to 1e-8; a
    transform spec, when given, transforms the spinor, dagger-spinor,
    coefficient and basis blocks by their respective laws while the phase
    factors (and hence the difference symbols) stay put.  The weight
    P_b - P_a of the pair (a, b) is folded into the once-built factors,
    and the coefficients of a chunk of rows ``a`` with all modes b are two
    matrix products.
    """
    if not solutions:
        raise ValueError("the conservation check needs at least one mode")
    if np.any(fd.potential != 0.0):
        raise ValueError("the conservation identity assumes zero potential")
    syms, phi = _check_solutions(solutions, fd)
    left, right = _current_factors(phi, spec)
    return _max_divergence(left, right, syms)


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
        return _symbol(self.omega, self.wavevector)

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
