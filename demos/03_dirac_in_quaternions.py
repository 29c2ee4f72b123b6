#!/usr/bin/env python3
"""From the 4-column Dirac equation to its quaternion block form.

Solves plane-wave modes of the momentum-space operator, translates the
amplitudes into quaternion bispinor pairs, and shows that the pair (and
its reflector packaging) satisfies the quaternion equation with the same
energies.
"""

import numpy as np

from qdirac import (
    FieldData,
    dirac_hamiltonian,
    pair_residual,
    pair_system_matrix,
    pair_to_spinor,
    plane_wave_modes,
    spinor_to_pair,
    state_from_mode,
)

fd = FieldData(mass=1.0, potential=[0.3, 0.1, -0.2, 0.0])
p = np.array([0.4, -0.6, 0.9])

print("momentum-space operator at p =", p, " mass", fd.mass)
energies = np.linalg.eigvalsh(dirac_hamiltonian(p, fd))
print("energies:", np.round(energies, 6))

print("\nper-mode translation and residuals:")
for mode in plane_wave_modes(p, fd):
    pair = spinor_to_pair(mode.amplitude)
    r1, r2 = pair_residual(pair, mode, fd)
    state = state_from_mode(mode, fd)
    print(
        "  E=%+.6f  pair residual %.2e  block residual %.2e"
        % (mode.energy, max(r1.max_abs(), r2.max_abs()), state.residual().max_abs())
    )

mode = plane_wave_modes(p, fd)[3]
pair = spinor_to_pair(mode.amplitude)
back = pair_to_spinor(pair)
print("\nroundtrip 4-column recovery defect:", np.max(np.abs(back - mode.amplitude)))

print("\nthe quaternion system is singular exactly at the energies above:")
for e in energies:
    sv = np.linalg.svd(pair_system_matrix(float(e), p, fd), compute_uv=False)
    print("  sigma_min at E=%+.6f : %.2e" % (e, sv[-1]))
off = float(energies[-1]) + 0.5
sv = np.linalg.svd(pair_system_matrix(off, p, fd), compute_uv=False)
print("  sigma_min off-spectrum at E=%+.6f : %.2e" % (off, sv[-1]))

print("\nthe second lift gives the same physics:")
for mode in plane_wave_modes(p, fd)[:2]:
    pair = spinor_to_pair(mode.amplitude, lift="L")
    r1, r2 = pair_residual(pair, mode, fd)
    print("  E=%+.6f  L-lift residual %.2e" % (mode.energy, max(r1.max_abs(), r2.max_abs())))
