"""Rescale a solution into another solution and track what the actions do."""

import numpy as np

from kvnlab import (
    ExtendedPoint,
    MonomialPotential,
    action_kvn,
    action_standard,
    bracket_change,
    characteristic_time,
    check_action_scaling,
    integrate,
    lms_map_point,
    lms_map_trajectory,
    lms_params_from_alpha,
)

pot = MonomialPotential(1.0, 3.0)
x0 = ExtendedPoint(1.0, 0.05, 0.3, -0.2)
prm = lms_params_from_alpha(1.3, pot.n)

print(f"cubic potential, alpha = {prm.alpha}")
print("point map:", x0, "->", lms_map_point(x0, prm))

T = 2.0 * characteristic_time(pot, x0)
traj = integrate(x0, pot, T, T / 2000)
mapped = lms_map_trajectory(traj, prm)

# the mapped curve solves the same equations: reintegrate from its start
horizon = float(mapped.times[-1])
redone = integrate(mapped.initial, pot, horizon, horizon / 8000)
resampled = np.stack([
    np.interp(mapped.times, redone.times, redone.states[:, k]) for k in range(4)
], axis=1)
print(f"mapped vs reintegrated sup difference: {np.max(np.abs(resampled - mapped.states)):.2e}")

# standard action picks up alpha^(1+n/2); the auxiliary action does not move
short = integrate(x0, pot, 1.3 * T / 2.0, T / 2000)
scaling = check_action_scaling(short, pot, prm)
print(f"standard action {action_standard(short, pot):+.6f}")
print(f"measured scaling exponent {scaling.measured_exponent:.6f} "
      f"(closed form {scaling.expected_exponent})")

s0 = action_kvn(short, pot)
s1 = action_kvn(lms_map_trajectory(short, prm), pot)
print(f"auxiliary action {s0:+.10f} -> {s1:+.10f}")

# bracket factors: the (q, p) bracket rescales, the extended one cannot
std, ext = bracket_change(prm)
print(f"bracket factors: standard {std:.6f}, extended {ext}")
std_inv, _ = bracket_change(lms_params_from_alpha(1.3, -2.0))
print(f"inverse-square exponent leaves even the standard bracket alone: {std_inv}")
