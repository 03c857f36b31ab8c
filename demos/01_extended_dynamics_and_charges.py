"""Integrate the extended equations of motion and watch the conserved pieces.

The state (q, p, lq, lp) carries the classical pair plus the auxiliary
pair. Energy depends on (q, p) alone; the generator of the evolution and
the similarity charge need all four components. Everything printed below
should sit flat over twenty periods.
"""

import numpy as np

from kvnlab import (
    ExtendedPoint,
    MonomialPotential,
    characteristic_time,
    energy,
    integrate,
    liouvillian_value,
    lms_charge,
    virasoro_charge,
)

pot = MonomialPotential(1.0, 4.0)
x0 = ExtendedPoint(1.0, 0.0, 0.3, -0.2)

period = characteristic_time(pot, x0)
T = 20.0 * period
print(f"quartic well, period about {period:.4f}, integrating to T = {T:.2f}")

traj = integrate(x0, pot, T, T / 2000)

# One point whose fields are the sample columns evaluates every observable
# over the whole trajectory at once.
samples = ExtendedPoint(*traj.states.T)
energies = energy(samples, pot)
gens = liouvillian_value(samples, pot)
charges = lms_charge(samples, pot, traj.times)

print(f"energy:            start {energies[0]:+.6f}  spread {np.ptp(energies):.2e}")
print(f"evolution gen:     start {gens[0]:+.6f}  spread {np.ptp(gens):.2e}")
print(f"similarity charge: start {charges[0]:+.6f}  spread {np.ptp(charges):.2e}")

# the charge extends to a whole tower, one member per integer order m
print("\ntower members at five sample times (each row should be constant):")
for m in (-1, 0, 1, 2):
    picks = [
        virasoro_charge(ExtendedPoint(*traj.states[i]), pot, traj.times[i], m)
        for i in range(0, len(traj), len(traj) // 4)
    ]
    print(f"  m={m:+d}: " + "  ".join(f"{v:+.8f}" for v in picks))
