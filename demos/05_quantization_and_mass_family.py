"""Quantization shifts under the rescaling, and the mass family that
shares orbits but not spectra."""

import numpy as np

from kvnlab import (
    MonomialPotential,
    PhasePoint,
    bohr_levels,
    eigensolve_newton_equiv,
    lms_bohr_violation,
    lms_params_from_alpha,
    newton_equiv_trajectory_check,
    reduced_action,
)

harmonic = MonomialPotential(1.0, 2.0)
quartic = MonomialPotential(1.0, 4.0)

levels = bohr_levels(harmonic, 1.0, 6)
print("harmonic levels from the action rule:", np.round(levels, 10))

# the action integral is not invariant under the rescaling, so mapped
# orbits land between the allowed levels
prm = lms_params_from_alpha(1.3, 4.0)
rep = lms_bohr_violation(quartic, 1.0, prm, hbar=1.0)
print(f"quartic orbit at E=1: action shift {rep.delta_j:.6f} "
      f"(closed form {rep.delta_j_closed_form:.6f}), "
      f"{rep.level_mismatch:.4f} quanta off the grid")

# at n = -2 no orbit closes; the reduced action between endpoints that
# the map carries along (q -> 1.3 q, E -> 1.3^-2 E) does not move
inverse = MonomialPotential(1.0, -2.0)
w = reduced_action(inverse, 1.0, 0.5, 2.0)
w_mapped = reduced_action(inverse, 1.3**-2.0, 1.3 * 0.5, 1.3 * 2.0)
print(f"inverse-square exponent: reduced action on [0.5, 2] {w:.10f}, "
      f"on the mapped interval {w_mapped:.10f}")

# classically gamma drops out of Newton's equations entirely
print("\nsame orbit for every mass rescaling gamma:")
for gamma in (0.5, 2.0, 10.0):
    chk = newton_equiv_trajectory_check(quartic, gamma, PhasePoint(1.0, 0.3), 10.0)
    print(f"  gamma={gamma:5}: max position difference {chk.max_q_diff:.2e}")

# quantum mechanically the spectra remember gamma
base = eigensolve_newton_equiv(quartic, 1.0, 1.0, 4)
print("\nquartic spectra under gamma (ratios follow gamma^(-1/3)):")
for gamma in (0.5, 2.0, 10.0):
    res = eigensolve_newton_equiv(quartic, gamma, 1.0, 4)
    ratio = float(np.mean(res / base))
    print(f"  gamma={gamma:5}: level ratio {ratio:.6f} vs {gamma ** (-1.0 / 3.0):.6f}")

hb = eigensolve_newton_equiv(harmonic, 8.0, 1.0, 4)
h1 = eigensolve_newton_equiv(harmonic, 1.0, 1.0, 4)
print(f"\nharmonic exception: gamma=8 vs gamma=1 spectrum deviation "
      f"{float(np.max(np.abs(hb - h1))):.2e}")
