"""Plane-wave Dirac modes and their quaternion (reflector) form.

The original equation is solved in momentum space: for constant potentials
the 4x4 operator ``dirac_hamiltonian`` is Hermitian and its eigenpairs are
exact plane-wave modes under the phase convention exp(i(p.x - E*x0)).

Translation to the quaternion form proceeds by mixing the two-component
bispinors with [[1, 1], [i, -i]], lifting each C^2 column to a
real-component quaternion and right-multiplying by the ideal factor
(1 + i*i3) (or (1 - i*i3) for the second lift).  The derivative operator
acts on a mode amplitude as left multiplication by the momentum symbol
P = E + i*(i1 p1 + i2 p2 + i3 p3), whose sign is pinned by the
finite-difference oracle in the harness.

On amplitudes the equation pair is

    (P - iA).quat_conj() * phi1 = phi2 * M
    (P - iA) * phi2 = -phi1 * M.quat_conj()

and packs into blocks as (D - iA) Phi = Phi M with D = Reflector(P, Pc),
A = Reflector(A, Ac), Phi = Reflector(phi1, phi2), M = Reflector(M, -Mc).
``transform_state`` applies the exponent-n transformation law, and
``apply_discrete`` the parity, time-reversal and charge-conjugation
elements.

Every entry point takes a stack of trials as well as a single one: a
``FieldData`` with masses (...,) and potentials (..., 4), momenta (..., 3),
``PlaneWaveMode`` energies (...,) and amplitudes (..., 4), energies (...,)
for ``pair_system_matrix``, and bispinor pairs, states and rotors whose
quaternions are stacks (see ``quaternion``).  ``dirac_hamiltonian`` then
returns (..., 4, 4) and ``plane_wave_modes`` takes all the spectra in one
stacked ``eigh``, whose output is bitwise that of one ``eigh`` per matrix.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field

import numpy as np

from .blocks import Reflector, Rotator, block_power
from .quaternion import Quat, _last_axis
from .spinor_maps import SIGMA, ideal_factor, lift_G, lift_L, map_F, map_N
from .transforms import TransformSpec, rotor_blocks

__all__ = [
    "IdealViolation",
    "FieldData",
    "PlaneWaveMode",
    "BispinorPair",
    "DiracState",
    "ALPHA",
    "BETA",
    "dirac_hamiltonian",
    "plane_wave_modes",
    "spinor_to_pair",
    "pair_to_spinor",
    "momentum_symbol",
    "pair_residual",
    "state_from_mode",
    "transform_state",
    "apply_discrete",
    "pair_system_matrix",
]


class IdealViolation(ValueError):
    """A quaternion pair does not lie in the expected ideal."""


_Z2 = np.zeros((2, 2), dtype=complex)
ALPHA = tuple(np.block([[_Z2, s], [s, _Z2]]) for s in SIGMA)
BETA = np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex)


def _check_finite(**fields) -> None:
    """ValueError naming the first field, a scalar or an array, with an inf
    or NaN entry."""
    # a loop over a few Python scalars is cheaper than a ufunc and a reduction
    for name, value in fields.items():
        entries = value.ravel().tolist() if isinstance(value, np.ndarray) else (value,)
        if not all(map(cmath.isfinite, entries)):
            raise ValueError("%s must be finite, got %r" % (name, value))


@dataclass(frozen=True)
class FieldData:
    """Rest mass and constant potential, stored in Minkowski components; a
    stack holds masses (...,) and potentials (..., 4)."""

    mass: float | np.ndarray
    potential: np.ndarray = field(default_factory=lambda: np.zeros(4))

    def __post_init__(self):
        object.__setattr__(self, "potential", np.asarray(self.potential, dtype=float))
        if self.potential.shape[-1:] != (4,):
            raise ValueError("potential must be a real 4-vector")
        _check_finite(mass=self.mass, potential=self.potential)

    @property
    def euclidean_mass(self) -> complex:
        # imaginary-time convention divides temporal quantities by i
        return -1j * self.mass

    @property
    def euclidean_potential(self) -> Quat:
        a0, a1, a2, a3 = _last_axis(self.potential)
        return Quat(-1j * a0, a1, a2, a3)


@dataclass(frozen=True)
class PlaneWaveMode:
    """One exact mode: amplitude times exp(i(p.x - E*x0)); a stack holds
    energies (...,), momenta (..., 3) and amplitudes (..., 4)."""

    energy: float | np.ndarray
    momentum: np.ndarray
    amplitude: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "momentum", np.asarray(self.momentum, dtype=float))
        object.__setattr__(self, "amplitude", np.asarray(self.amplitude, dtype=complex))
        if self.momentum.shape[-1:] != (3,) or self.amplitude.shape[-1:] != (4,):
            raise ValueError("momentum must be a 3-vector and amplitude a 4-column")
        _check_finite(
            energy=self.energy, momentum=self.momentum, amplitude=self.amplitude
        )


@dataclass(frozen=True)
class BispinorPair:
    """The two quaternion bispinors of one mode, members of an ideal."""

    phi1: Quat
    phi2: Quat
    lift: str = "G"


def dirac_hamiltonian(p, fd: FieldData) -> np.ndarray:
    """Momentum-space operator sum_r alpha_r (p_r - A_r) + A0 + m*beta;
    (..., 4, 4) for momenta (..., 3) or a stacked ``fd``."""
    p = np.asarray(p, dtype=float)
    _check_finite(momentum=p.ravel())
    a, mass = fd.potential, fd.mass
    if p.ndim > 1 or a.ndim > 1 or isinstance(mass, np.ndarray):
        # entries first, and a trailing (1, 1) to meet each trial's matrices
        p = np.moveaxis(p, -1, 0)[..., None, None]
        a = np.moveaxis(a, -1, 0)[..., None, None]
        mass = np.asarray(mass)[..., None, None]
    h = a[0] * np.eye(4, dtype=complex) + mass * BETA
    for r in range(3):
        h = h + (p[r] - a[r + 1]) * ALPHA[r]
    return h


def plane_wave_modes(p, fd: FieldData) -> list[PlaneWaveMode]:
    """Four orthonormal plane-wave modes at momentum p, by energy ascending.

    Degenerate eigenspaces are returned with whatever orthonormal basis the
    eigensolver produces.  For stacked momenta or fields each mode is a
    stack, from one stacked ``eigh``.
    """
    p = np.asarray(p, dtype=float)
    h = dirac_hamiltonian(p, fd)
    energies, vectors = np.linalg.eigh(h)
    if h.ndim == 2:
        return [
            PlaneWaveMode(float(energies[k]), p, vectors[:, k]) for k in range(4)
        ]
    p = np.broadcast_to(p, energies.shape[:-1] + (3,))
    return [
        PlaneWaveMode(energies[..., k], p, vectors[..., :, k]) for k in range(4)
    ]


# each lift convention: the column lift, its inverse map, and the sign s of
# the ideal factor (1 + s*i*i3) that the lifted columns are multiplied by
_LIFTS = {"G": (lift_G, map_F, 1), "L": (lift_L, map_N, -1)}
# the ideal factor of each sign, built once
_FACTORS = {sign: ideal_factor(sign) for sign in (1, -1)}

# relative tolerance of the ideal-membership check in pair_to_spinor
_IDEAL_TOL = 1e-9


def _lift_convention(lift: str):
    try:
        return _LIFTS[lift]
    except KeyError:
        raise ValueError("lift must be 'G' or 'L', got %r" % (lift,)) from None


def spinor_to_pair(amplitude, lift: str = "G") -> BispinorPair:
    """Translate a 4-column amplitude into its quaternion bispinor pair."""
    lift_col, _, sign = _lift_convention(lift)
    psi = np.asarray(amplitude, dtype=complex)
    psi1, psi2 = psi[..., :2], psi[..., 2:]
    col1 = psi1 + psi2
    col2 = 1j * (psi1 - psi2)
    factor = _FACTORS[sign]
    return BispinorPair(lift_col(col1) * factor, lift_col(col2) * factor, lift)


def _check_ideal(q: Quat, sign: int) -> None:
    resid = q * _FACTORS[sign] - 2.0 * q
    inside = resid.max_abs() <= _IDEAL_TOL * np.maximum(1.0, q.max_abs())
    if not np.all(inside):  # NaN fails too
        raise IdealViolation(
            "quaternion is not in the (1 %+d*i*i3) ideal" % sign
        )


def pair_to_spinor(pair: BispinorPair) -> np.ndarray:
    """Invert ``spinor_to_pair``; raises IdealViolation off the ideal."""
    _, project, sign = _lift_convention(pair.lift)
    _check_ideal(pair.phi1, sign)
    _check_ideal(pair.phi2, sign)
    col1 = project(pair.phi1) / 2.0
    col2 = project(pair.phi2) / 2.0
    psi1 = (col1 - 1j * col2) / 2.0
    psi2 = (col1 + 1j * col2) / 2.0
    return np.concatenate([psi1, psi2], axis=-1)


# P = (E, i p1, i p2, i p3) from (E, p1, p2, p3), on stacked components
_SYMBOL = np.array([1, 1j, 1j, 1j])


def _symbol(energy, p) -> Quat:
    """P = E + i*(i1 p1 + i2 p2 + i3 p3), the symbol of the derivative on
    exp(i(p.x - E*x0))."""
    p1, p2, p3 = _last_axis(p)
    return Quat(energy, 1j * p1, 1j * p2, 1j * p3)


def momentum_symbol(mode: PlaneWaveMode) -> tuple[Quat, Quat]:
    """Left-multiplication symbol of the derivative operator on the mode.

    Returns (P, P.quat_conj()); P * P.quat_conj() is the complex scalar
    E**2 - |p|**2.
    """
    sym = _symbol(mode.energy, mode.momentum)
    return sym, sym.quat_conj()


def _equations(sym: Quat, fd: FieldData):
    """The equation pair for the momentum symbol P = ``sym``, as the map
    (phi1, phi2) -> ((P - iA)^c phi1 - phi2 M, (P - iA) phi2 + phi1 M^c)."""
    coupled = sym - 1j * fd.euclidean_potential
    m = Quat(fd.euclidean_mass)
    coupled_c, m_c = coupled.quat_conj(), m.quat_conj()

    def residuals(phi1: Quat, phi2: Quat) -> tuple[Quat, Quat]:
        return coupled_c * phi1 - phi2 * m, coupled * phi2 + phi1 * m_c

    return residuals


def pair_residual(
    pair: BispinorPair, mode: PlaneWaveMode, fd: FieldData
) -> tuple[Quat, Quat]:
    """Residuals of the two quaternion equations; (0, 0) exactly on solutions."""
    return _equations(_symbol(mode.energy, mode.momentum), fd)(pair.phi1, pair.phi2)


@dataclass(frozen=True)
class DiracState:
    """Block form of one mode: derivative, potential, spinor and mass blocks.

    The spinor block is a reflector for freshly translated states but may
    become a rotator under the discrete symmetries; the residual is block
    arithmetic either way.
    """

    d: Reflector
    a: Reflector
    phi: Reflector | Rotator
    m: Reflector

    def residual(self):
        """(D - iA) Phi - Phi M as a block matrix; zero blocks on solutions."""
        return (self.d - 1j * self.a) * self.phi - self.phi * self.m


def state_from_mode(mode: PlaneWaveMode, fd: FieldData) -> DiracState:
    sym, sym_c = momentum_symbol(mode)
    a = fd.euclidean_potential
    m = Quat(fd.euclidean_mass)
    pair = spinor_to_pair(mode.amplitude)
    return DiracState(
        d=Reflector(sym, sym_c),
        a=Reflector(a, a.quat_conj()),
        phi=Reflector(pair.phi1, pair.phi2),
        m=Reflector(m, -m.quat_conj()),
    )


def transform_state(state: DiracState, spec: TransformSpec) -> DiracState:
    """Exponent-n transformation law.

    Derivative and potential blocks transform by similarity; the mass block
    is conjugated n times and the spinor block picks up a single left
    factor and n right factors.  Negative n uses the inverse rotor blocks.
    """
    r, rc = rotor_blocks(spec.rotor)
    return _conjugate(state, r, rc, block_power(r, spec.n), block_power(rc, spec.n))


def _conjugate(state: DiracState, b, bc, e, ec) -> DiracState:
    """The block law: B X Bc for the derivative and potential blocks, B Phi Ec
    for the spinor block and E M Ec for the mass block."""
    return DiracState(
        d=b * state.d * bc,
        a=b * state.a * bc,
        phi=b * state.phi * ec,
        m=e * state.m * ec,
    )


# the (B, E) pairs of parity and time reversal, which move a state by
# _conjugate with Bc and Ec their quaternion conjugates
_DISCRETE_PAIRS = {
    "parity": (Reflector(1.0, 1.0), Rotator(1.0, 1.0)),
    "time_reversal": (Rotator(-1.0, 1.0), Reflector(1.0, 1.0)),
}


def apply_discrete(state: DiracState, kind: str) -> DiracState:
    """Apply a discrete symmetry to the block state.

    Parity and time reversal conjugate with their (B, E) pair and are
    involutions.  Charge conjugation conjugates every component,
    absorbs an overall sign into the derivative and mass blocks and swaps
    the spinor blocks, which negates the potential block exactly: the image
    of a solution with potential A solves the equation with potential -A.
    """
    if kind in _DISCRETE_PAIRS:
        b, e = _DISCRETE_PAIRS[kind]
        return _conjugate(state, b, b.quat_conj(), e, e.quat_conj())
    if kind == "charge_conjugation":
        swap = Reflector(1.0, 1.0)
        d_cc = -(swap * state.d.complex_conj() * swap)
        a_cc = swap * state.a.complex_conj() * swap
        phi_cc = swap * state.phi.complex_conj()
        m_cc = -state.m.complex_conj()
        return DiracState(d=d_cc, a=a_cc, phi=phi_cc, m=m_cc)
    raise ValueError(
        "unknown symmetry %r, expected 'parity', 'time_reversal' or "
        "'charge_conjugation'" % (kind,)
    )


def pair_system_matrix(
    energy: float, p, fd: FieldData, lift: str = "G"
) -> np.ndarray:
    """4x4 complex matrix of the quaternion equations over C^2 x C^2 unknowns;
    (..., 4, 4) for stacked energies, momenta or fields.

    The composite map column -> lift -> ideal is C-linear, so the residual
    of the quaternion pair is linear in (col1, col2); this matrix is
    singular exactly at the energies admitting plane-wave solutions.  Built
    purely from quaternion algebra, it provides a route to the spectrum
    independent of the eigensolver.
    """
    _, project, _ = _lift_convention(lift)
    residuals = _equations(_symbol(energy, np.asarray(p, dtype=float)), fd)
    columns = [
        np.concatenate([project(r) for r in residuals(phi1, phi2)], axis=-1)
        for phi1, phi2 in _BASIS_PAIRS[lift]
    ]
    return np.stack(columns, axis=-1) / 2.0


def _basis_pairs(lift: str) -> tuple[tuple[Quat, Quat], ...]:
    """Bispinor pairs of the four unit columns, as ``spinor_to_pair`` lifts them."""
    lift_col, _, sign = _LIFTS[lift]
    factor = _FACTORS[sign]
    pairs = []
    for j in range(4):
        col = np.zeros(4, dtype=complex)
        col[j] = 1.0
        pairs.append((lift_col(col[:2]) * factor, lift_col(col[2:]) * factor))
    return tuple(pairs)


# the residual is linear in the unknown columns, so pair_system_matrix takes
# its columns from the residuals of these fixed basis pairs
_BASIS_PAIRS = {lift: _basis_pairs(lift) for lift in _LIFTS}
