"""Named check suites behind the command-line runner.

Each suite is a function of a :class:`SuiteContext` that runs its checks
over the library API. A check runs inside ``with ctx.check(...) as out``:
the context checks its anchor against ``report.CLAIMS``, the body computes
a small set of measured numbers and compares them against a tolerance, and
the context appends the check's report entry, with its verdict. A body that
raises gives an ``error`` verdict for that check alone; the suite goes on
to its next check. Sweep suites iterate a fixture table of exponents with
known-good couplings and initial conditions, so a two-line scenario gets
meaningful coverage out of the box.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import os
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .core import (
    ExtendedPoint,
    MonomialPotential,
    PhasePoint,
    lms_params_from_alpha,
    lms_params_from_beta,
)
from .errors import CheckFailure
from .report import CLAIMS, _plain, digest, write_csv

#: exponent -> (coupling, initial extended point) with decent energy and a
#: horizon long enough for twenty characteristic periods.
FIXTURES = {
    -2.0: (1.0, (1.0, 1.2, 0.3, -0.2)),
    -1.0: (-1.0, (2.0, -1.0, 0.3, -0.2)),
    1.0: (1.0, (1.0, 1.0, 0.3, -0.2)),
    2.0: (1.0, (1.0, 0.0, 0.3, -0.2)),
    3.0: (1.0, (1.0, 0.05, 0.3, -0.2)),
    4.0: (1.0, (1.0, 0.0, 0.3, -0.2)),
}

SWEEP_EXPONENTS = (-2.0, -1.0, 1.0, 3.0, 4.0)
BOHR_SWEEP = (2.0, 4.0, 6.0)
GAMMA_SWEEP = (0.5, 2.0, 10.0)

_GENERIC_IC = (1.0, 0.05, 0.3, -0.2)

#: Intervals of every sampled trajectory's grid: a check that integrates
#: its own run over a ``ctx.trajectory`` horizon lands on the same samples.
SAMPLES = 2000


def _start(pot: MonomialPotential) -> ExtendedPoint:
    """Initial point for ``pot``: the fixture's when the table lists the
    exponent with a coupling of the same sign, else a near-turning generic
    start."""
    g, ic = FIXTURES.get(float(pot.n), (pot.g, _GENERIC_IC))
    return ExtendedPoint(*(ic if (g > 0) == (pot.g > 0) else _GENERIC_IC))


def _sweep(ctx):
    """(potential, start) per swept exponent: the fixture coupling, else the
    scenario's. n = 2 is skipped; its harmonic checks stand apart."""
    for n in ctx.exponents(SWEEP_EXPONENTS):
        if n != 2.0:
            pot = MonomialPotential(FIXTURES.get(n, (ctx.potential.g,))[0], n)
            yield pot, _start(pot)


@dataclass
class CheckOutcome:
    """What a check body measured, and whether its claim held."""

    tolerance: float
    measured: dict = field(default_factory=dict)
    passed: bool = False


@dataclass
class SuiteContext:
    """Shared configuration, caches and report entries for one run."""

    scenario: dict
    out_dir: str
    seed: int
    records: list = field(default_factory=list)
    _traj_cache: dict = field(default_factory=dict)

    @property
    def potential(self) -> MonomialPotential:
        p = self.scenario["potential"]
        return MonomialPotential(p["g"], p["n"])

    def tol(self, key: str) -> float:
        return self.scenario["tolerances"][key]

    def lms_for(self, n: float):
        lms = self.scenario["lms"]
        if "alpha" in lms:
            return lms_params_from_alpha(lms["alpha"], n)
        return lms_params_from_beta(lms["beta"], n)

    def exponents(self, default):
        return tuple(float(v) for v in self.scenario.get("exponents", default))

    def rng(self, check_id: str):
        return np.random.default_rng([self.seed, zlib.crc32(check_id.encode())])

    def trajectory(self, pot: MonomialPotential, x0: ExtendedPoint, periods: float):
        """Sample ``periods`` characteristic periods of the orbit through x0
        from its one cached run, (period, steps, sampled), which the period
        probe starts. A horizon past the end of the last step, clipped or
        not, reruns the run from that step on, replacing the entry only on
        success. Each number of periods is sampled once per orbit: a repeat
        returns the same trajectory, whose arrays are read-only, so no
        check can change what another reads."""
        from .dynamics import ExtendedTrajectory, _probe, sample_steps, taylor_steps

        orbit = (pot.g, pot.n, x0.q, x0.p, x0.lq, x0.lp)
        if orbit not in self._traj_cache:
            self._traj_cache[orbit] = (*_probe(pot, x0), {})
        period, steps, sampled = self._traj_cache[orbit]
        if periods not in sampled:
            horizon = periods * period
            if not steps or horizon > steps[-1][0] + steps[-1][1]:
                t, y = (steps[-1][0], steps[-1][2][0]) if steps else (0.0, x0.as_array())
                steps = steps[:-1] + list(taylor_steps(pot, y, horizon, t=t))
                self._traj_cache[orbit] = (period, steps, sampled)
            times, states = sample_steps(pot, steps, horizon, horizon / SAMPLES)
            times.flags.writeable = states.flags.writeable = False
            sampled[periods] = ExtendedTrajectory(times, states)
        return sampled[periods]

    def emit_csv(self, name: str, header, rows):
        write_csv(os.path.join(self.out_dir, name), header, rows)

    @contextmanager
    def check(self, check_id: str, anchor: str, inputs, tolerance: float):
        """Run one check's body and append its report entry to ``records``.

        An anchor missing from ``CLAIMS`` raises CheckFailure before the
        body runs. The body compares against ``out.tolerance``, the value
        recorded, and sets ``out.measured`` and ``out.passed``. If it
        raises, the entry gets the verdict ``error`` and ``measured`` holds
        the exception's class and message; the exception goes no further.
        A measured NaN or infinity, at any depth, says nothing about the
        claim, so it gives the verdict ``error`` too, naming its key.
        """
        if anchor not in CLAIMS:
            raise CheckFailure(f"unregistered anchor {anchor!r}")
        out = CheckOutcome(float(tolerance))
        try:
            yield out
            measured = _plain(out.measured)
            for key, value in measured.items():
                try:
                    json.dumps(value, allow_nan=False)
                except ValueError:
                    raise ValueError(f"measured value {key!r} is not finite") from None
        except Exception as exc:  # noqa: BLE001  a raising check is an error verdict
            measured, verdict = {"error": f"{type(exc).__name__}: {exc}"}, "error"
        else:
            verdict = "pass" if out.passed else "fail"
        self.records.append({
            "id": check_id,
            "anchor": anchor,
            "inputs_digest": digest(_plain(inputs)),
            "measured": measured,
            "tolerance": out.tolerance,
            "verdict": verdict,
        })


def _drift(values: np.ndarray) -> float:
    ref = values[0]
    return float(np.max(np.abs(values - ref)) / (1.0 + abs(ref)))


def _ext_flow(x0: ExtendedPoint, pot: MonomialPotential, t: float) -> ExtendedPoint:
    from .dynamics import integrate

    return integrate(x0, pot, t, abs(t)).final


# ---------------------------------------------------------------------------
# dynamics

def suite_dynamics(ctx: SuiteContext):
    from .dynamics import energy, integrate

    pot = ctx.potential

    harm = MonomialPotential(1.0, 2.0)
    x0 = ExtendedPoint(1.0, 0.0, 0.3, -0.2)
    period = 2.0 * math.pi
    with ctx.check(
        "dyn-harmonic-return", "extended-eom",
        {"potential": {"g": 1.0, "n": 2.0}, "x0": list(x0.as_array()), "t": period}, 1e-8,
    ) as out:
        xT = _ext_flow(x0, harm, period)
        ret = float(np.max(np.abs(xT.as_array() - x0.as_array())))
        out.measured, out.passed = {"return_gap": ret}, ret < out.tolerance

    xf = _start(pot)
    with ctx.check(
        "dyn-energy-drift", "energy-conservation",
        {"potential": {"g": pot.g, "n": pot.n}, "x0": list(xf.as_array())}, 1e-8,
    ) as out:
        traj = ctx.trajectory(pot, xf, 10.0)
        edrift = _drift(energy(ExtendedPoint(*traj.states.T), pot))
        out.measured, out.passed = {"relative_drift": edrift}, edrift < out.tolerance

    t1, t2 = 0.3, 0.5
    with ctx.check(
        "dyn-flow-composition", "plumbing",
        {"potential": {"g": pot.g, "n": pot.n}, "t1": t1, "t2": t2}, 1e-9,
    ) as out:
        a = _ext_flow(_ext_flow(xf, pot, t1), pot, t2)
        b = _ext_flow(xf, pot, t1 + t2)
        comp = float(np.max(np.abs(a.as_array() - b.as_array())))
        out.measured, out.passed = {"composition_gap": comp}, comp < out.tolerance

    # Pair the auxiliary sector with a finite-difference tangent vector of
    # the (q, p) flow; the pairing must ride along unchanged.
    eps = 1e-6
    v = (0.7, -0.4)
    with ctx.check(
        "dyn-tangent-pairing", "tangent-pairing",
        {"potential": {"g": pot.g, "n": pot.n}, "x0": list(xf.as_array()),
         "direction": list(v), "eps": eps},
        1e-5,
    ) as out:
        traj = ctx.trajectory(pot, xf, 2.0)
        horizon = traj.times[-1]
        dt = horizon / SAMPLES
        plus = integrate(
            ExtendedPoint(xf.q + eps * v[0], xf.p + eps * v[1], 0.0, 0.0), pot, horizon, dt
        )
        minus = integrate(
            ExtendedPoint(xf.q - eps * v[0], xf.p - eps * v[1], 0.0, 0.0), pot, horizon, dt
        )
        dphi = (plus.states[:, :2] - minus.states[:, :2]) / (2.0 * eps)
        pairing = traj.states[:, 2] * dphi[:, 0] + traj.states[:, 3] * dphi[:, 1]
        drift = _drift(pairing)
        out.measured, out.passed = {"pairing_drift": drift}, drift < out.tolerance


# ---------------------------------------------------------------------------
# charges

def suite_charges(ctx: SuiteContext):
    from .charges import (
        epb,
        liouvillian_gradient,
        liouvillian_value,
        lms_charge,
        lms_charge0_gradient,
        lms_charge_harmonic,
    )

    tol = ctx.tol("charge_drift")
    for pot, x0 in _sweep(ctx):
        n = pot.n
        with ctx.check(
            f"chg-conserve-n{n:g}", "similarity-charge-conserved",
            {"potential": {"g": pot.g, "n": n}, "x0": list(x0.as_array()), "periods": 20.0},
            tol,
        ) as out:
            traj = ctx.trajectory(pot, x0, 20.0)
            samples = ExtendedPoint(*traj.states.T)
            dvals = lms_charge(samples, pot, traj.times)
            hvals = liouvillian_value(samples, pot)
            drift = _drift(dvals)
            out.measured = {"charge_drift": drift, "initial_charge": float(dvals[0])}
            out.passed = drift < out.tolerance
            step = max(1, len(traj.times) // 200)
            ctx.emit_csv(
                f"charges_n{n:g}.csv",
                ("t", "generator", "similarity_charge"),
                [
                    (float(t), float(h), float(d))
                    for t, h, d in zip(traj.times[::step], hvals[::step], dvals[::step])
                ],
            )

        # Bracket of the generator with the charge's time-free part returns
        # the generator itself; analytic gradients keep the comparison tight.
        check_id = f"chg-generates-n{n:g}"
        with ctx.check(
            check_id, "charge-generates-rescale",
            {"potential": {"g": pot.g, "n": pot.n}, "samples": 40}, 1e-12,
        ) as out:
            rng = ctx.rng(check_id)
            worst = 0.0
            for _ in range(40):
                x = ExtendedPoint(*(rng.uniform(0.5, 2.0, size=4) * np.array([1, 1, 1, -1])))
                lhs = epb(liouvillian_gradient(x, pot), lms_charge0_gradient(x, pot))
                rhs = liouvillian_value(x, pot)
                worst = max(worst, abs(lhs - rhs) / (1.0 + abs(rhs)))
            out.measured, out.passed = {"max_relative_gap": worst}, worst < out.tolerance

    harm = MonomialPotential(1.0, 2.0)
    x0 = _start(harm)
    with ctx.check(
        "chg-harmonic-variant", "harmonic-charge-conserved",
        {"potential": {"g": harm.g, "n": 2.0}, "x0": list(x0.as_array()), "periods": 20.0},
        tol,
    ) as out:
        traj = ctx.trajectory(harm, x0, 20.0)
        vals = lms_charge_harmonic(ExtendedPoint(*traj.states.T))
        drift = _drift(vals)
        out.measured = {"charge_drift": drift, "initial_charge": float(vals[0])}
        out.passed = drift < out.tolerance


# ---------------------------------------------------------------------------
# classical similarity maps

def suite_lms_classical(ctx: SuiteContext):
    from .dynamics import integrate
    from .symmetry import (
        action_kvn,
        bracket_change,
        check_action_scaling,
        lms_jacobian,
        lms_map_trajectory,
    )

    for pot, x0 in _sweep(ctx):
        n = pot.n
        prm = ctx.lms_for(n)
        mapped_inputs = {"potential": {"g": pot.g, "n": n}, "alpha": prm.alpha}

        with ctx.check(
            f"sym-solution-map-n{n:g}", "solution-mapping",
            {**mapped_inputs, "x0": list(x0.as_array())}, ctx.tol("solution_map"),
        ) as out:
            traj = ctx.trajectory(pot, x0, 2.0)
            mapped = lms_map_trajectory(traj, prm)
            horizon = mapped.times[-1]
            redone = integrate(mapped.initial, pot, horizon, abs(horizon) / SAMPLES)
            resampled = np.stack([
                np.interp(mapped.times, redone.times, redone.states[:, k]) for k in range(4)
            ], axis=1)
            scale = 1.0 + float(np.max(np.abs(mapped.states)))
            gap = float(np.max(np.abs(resampled - mapped.states))) / scale
            out.measured, out.passed = {"normalized_gap": gap}, gap < out.tolerance

        with ctx.check(
            f"sym-action-exponent-n{n:g}", "action-rescale", mapped_inputs,
            ctx.tol("action_exponent"),
        ) as out:
            scaling = check_action_scaling(ctx.trajectory(pot, x0, 1.3), pot, prm)
            dev = abs(scaling.measured_exponent - scaling.expected_exponent)
            out.measured = {"measured_exponent": scaling.measured_exponent,
                            "expected_exponent": scaling.expected_exponent,
                            "action": scaling.s_original}
            out.passed = dev < out.tolerance

        with ctx.check(
            f"sym-aux-action-n{n:g}", "auxiliary-action-invariant", mapped_inputs, 1e-6,
        ) as out:
            traj = ctx.trajectory(pot, x0, 1.3)
            s0 = action_kvn(traj, pot)
            s1 = action_kvn(lms_map_trajectory(traj, prm), pot)
            gap = abs(s1 - s0) / (1.0 + abs(s0))
            out.measured = {"original": s0, "mapped": s1, "relative_gap": gap}
            out.passed = gap < out.tolerance

        # Small-parameter probe of the two bracket factors via the exact
        # Jacobian of the point map.
        beta = 1e-3
        with ctx.check(f"sym-bracket-n{n:g}", "bracket-dichotomy",
                       {"beta": beta, "n": n}, 1e-6) as out:
            small = lms_params_from_beta(beta, n)
            jac = lms_jacobian(small)
            omega_std = np.zeros((4, 4))
            omega_std[0, 1] = 1.0
            omega_std[1, 0] = -1.0
            omega_ext = np.zeros((4, 4))
            omega_ext[0, 2] = omega_ext[1, 3] = 1.0
            omega_ext[2, 0] = omega_ext[3, 1] = -1.0
            factor_std, factor_ext = bracket_change(small)
            dev_std = float(np.max(np.abs(jac.T @ omega_std @ jac - factor_std * omega_std)))
            dev_ext = float(np.max(np.abs(jac.T @ omega_ext @ jac - omega_ext)))
            theory = math.exp(beta * (1.0 + n / 2.0))
            out.measured = {"standard_factor": factor_std, "extended_factor": factor_ext,
                            "standard_form_dev": dev_std, "extended_form_dev": dev_ext}
            out.passed = (
                dev_std < 1e-12
                and dev_ext < 1e-12
                and abs(factor_std - theory) < 1e-6
                and factor_ext == 1.0
            )

        with ctx.check(
            f"sym-lagrangian-n{n:g}", "lagrangian-homogeneity", mapped_inputs, 1e-10,
        ) as out:
            traj = ctx.trajectory(pot, x0, 1.3)
            q, p = traj.states[:, 0], traj.states[:, 1]
            lag = 0.5 * p**2 - pot.value(q)
            qm, pm = lms_map_trajectory(traj, prm).states[:, :2].T
            lag_m = 0.5 * pm**2 - pot.value(qm)
            expected = prm.alpha**n * lag
            dev = float(np.max(np.abs(lag_m - expected)) / (1.0 + np.max(np.abs(expected))))
            out.measured, out.passed = {"normalized_dev": dev}, dev < out.tolerance


# ---------------------------------------------------------------------------
# conserved tower

def suite_lms_virasoro(ctx: SuiteContext):
    from .charges import liouvillian_value, lms_charge0, virasoro_charge

    for pot, x0 in _sweep(ctx):
        n = pot.n
        with ctx.check(
            f"vir-tower-n{n:g}", "charge-tower",
            {"potential": {"g": pot.g, "n": n}, "x0": list(x0.as_array()),
             "orders": [-1, 0, 1, 2], "periods": 20.0},
            ctx.tol("tower_drift"),
        ) as out:
            traj = ctx.trajectory(pot, x0, 20.0)
            samples = ExtendedPoint(*traj.states.T)
            out.measured = {
                f"m{m}": _drift(virasoro_charge(samples, pot, traj.times, m))
                for m in (-1, 0, 1, 2)
            }
            out.passed = max(out.measured.values()) < out.tolerance

        check_id = f"vir-endpoints-n{n:g}"
        with ctx.check(
            check_id, "tower-endpoints", {"potential": {"g": pot.g, "n": n}, "samples": 50},
            1e-12,
        ) as out:
            # One row (q, p, lq, lp, t) per sample.
            draws = ctx.rng(check_id).uniform([0.4] * 4 + [-2.0], [1.6] * 4 + [2.0],
                                              size=(50, 5))
            x, t = ExtendedPoint(*draws[:, :4].T), draws[:, 4]
            # The tower's power law L_m = h (t + D0/h)^(1+m), against the
            # m = -1 and m = 0 branches that virasoro_charge returns directly.
            h = liouvillian_value(x, pot)
            u = t + lms_charge0(x, pot) / h
            worst = 0.0
            for m in (-1, 0):
                law = h * u ** (1 + m)
                gap = np.abs(virasoro_charge(x, pot, t, m) - law) / (1.0 + np.abs(law))
                worst = max(worst, float(np.max(gap)))
            out.measured, out.passed = {"max_relative_gap": worst}, worst <= out.tolerance


# ---------------------------------------------------------------------------
# operator algebra

def _all_flags(out, flags):
    out.measured, out.passed = flags, all(flags.values())


def suite_opalg(ctx: SuiteContext):
    from . import opalg

    Q, P, Qbar, Pbar = opalg.bopp_operators()
    i_hb = opalg.OperatorPoly.scalar(opalg.KVN, {(1, 1, 0, 0, 0): 1})

    with ctx.check("op-heisenberg-pairs", "embedded-heisenberg-pair",
                   {"relations": ["PPbar", "PQbar", "QP", "QPbar", "QQbar", "QbarPbar"]},
                   0.0) as out:
        comms = {
            "QP": opalg.commutator(Q, P) - i_hb,
            "QbarPbar": opalg.commutator(Qbar, Pbar) + i_hb,
            "QQbar": opalg.commutator(Q, Qbar),
            "QPbar": opalg.commutator(Q, Pbar),
            "PQbar": opalg.commutator(P, Qbar),
            "PPbar": opalg.commutator(P, Pbar),
        }
        _all_flags(out, {k: v.is_zero() for k, v in comms.items()})

    # The harmonic similarity generator is shared with op-harmonic-adjoint.
    harm = MonomialPotential(1.0, 2.0)
    a2 = opalg.lms_quantum_generator(harm)
    with ctx.check("op-harmonic-generator", "harmonic-evolution-generator",
                   {"potential": {"g": 1.0, "n": 2.0}}, 0.0) as out:
        g2 = opalg.build_G(harm)
        _all_flags(out, {"no_correction_terms": g2.equals(g2.hbar_limit()),
                         "commutes": opalg.commutator(a2, g2).is_zero(),
                         "hermitian": a2.equals(a2.dagger())})

    with ctx.check("op-series-termination", "derivative-series-terminates",
                   {"exponents": [1, 2, 3, 4, 5]}, 0.0) as out:
        term_flags = {}
        for n in (1, 2, 3, 4, 5):
            pot = MonomialPotential(1.0, float(n))
            jmax = max(0, (n - 1) // 2)
            term_flags[f"n{n}"] = opalg.build_G(pot).equals(
                opalg.build_series_G(pot, jmax)
            )
        _all_flags(out, term_flags)

    with ctx.check("op-generator-hermitian", "similarity-generator-hermitian",
                   {"exponents": [1, 3, 4]}, 0.0) as out:
        herm_flags = {}
        for n in (1, 3, 4):
            a = opalg.lms_quantum_generator(MonomialPotential(1.0, float(n)))
            herm_flags[f"n{n}"] = a.equals(a.dagger())
        _all_flags(out, herm_flags)

    with ctx.check("op-adjoint-leak", "position-adjoint-leaks",
                   {"exponents": [1, 3, 4, 5]}, 0.0) as out:
        leak_flags = {}
        for n in (1, 3, 4, 5):
            pot = MonomialPotential(1.0, float(n))
            a = opalg.lms_quantum_generator(pot)
            leak = opalg.leak_detect(opalg.adjoint_infinitesimal(a, Q))
            # the Qbar coefficient is -(n+2)/(2(2-n)) alpha
            expected_qbar = {(0, 0, 0, 1, 0): Fraction(-(n + 2), 2 * (2 - n))}
            leak_flags[f"n{n}"] = (leak.converted.terms.get((0, 1, 0, 0)) == expected_qbar
                                   and leak.leaks)
        _all_flags(out, leak_flags)

    with ctx.check("op-harmonic-adjoint", "harmonic-adjoint-hyperbolic",
                   {"potential": {"g": 1.0, "n": 2.0}}, 0.0) as out:
        fin = opalg.adjoint_finite_quadratic(a2, Q)
        cosh = {(0, 0, 0, 0, 1): Fraction(1, 2), (0, 0, 0, 0, -1): Fraction(1, 2)}
        sinh = {(0, 0, 0, 0, 1): Fraction(1, 2), (0, 0, 0, 0, -1): Fraction(-1, 2)}
        target = opalg.OperatorPoly(opalg.BOPP, {(1, 0, 0, 0): cosh, (0, 1, 0, 0): sinh})
        _all_flags(out, {"hyperbolic_mix": opalg.kvn_to_bopp(fin).equals(target)})

    with ctx.check("op-no-go", "no-unitary-rescaling",
                   {"exponents": [-2, 1, 3, 4]}, 0.0) as out:
        nogo = {}
        ok_nogo = True
        for n in (-2, 1, 3, 4):
            res = opalg.no_go_standard_qm(float(n))
            nogo[f"n{n}"] = {
                "consistent": res.consistent,
                "gap": str(res.gap),
                "alpha_tilde": str(res.alpha_tilde),
            }
            ok_nogo = ok_nogo and (res.consistent == (n == -2))
        out.measured, out.passed = nogo, ok_nogo


# ---------------------------------------------------------------------------
# grid evolution

def _grid_potential(ctx) -> MonomialPotential:
    from . import qgrid

    pot = ctx.potential
    if float(pot.n) in {float(v) for v in qgrid.GRID_EXPONENTS} and pot.g > 0:
        return pot
    return MonomialPotential(1.0, 2.0)


def _grid_state(ctx):
    from . import qgrid

    grid = ctx.scenario["grid"]
    ax = qgrid.GridAxis(0.0, grid["extent"], grid["count"])
    return qgrid.make_separable(
        qgrid.gaussian_profile(0.4, 1.0),
        qgrid.gaussian_profile(-0.2, 0.7),
        ax, ax, rep=qgrid.REP_QQBAR, hbar=grid["hbar"],
    )


def suite_quantum_leak(ctx: SuiteContext):
    from . import qgrid

    pot = _grid_potential(ctx)
    grid = ctx.scenario["grid"]
    # The input state of all three checks and of schmidt_vs_alpha.csv. Each
    # check builds it until one succeeds, so a failed build errs in each.
    state = functools.cache(lambda: _grid_state(ctx))

    with ctx.check(
        "qg-unitary", "split-evolution-unitary",
        {"potential": {"g": pot.g, "n": pot.n}, "grid": grid, "t": 2.0, "steps": 400},
        1e-10,
    ) as out:
        evolved = qgrid.evolve_G(state(), pot, 2.0, steps=400)
        norm_dev = abs(evolved.norm() - 1.0)
        out.measured, out.passed = {"norm_deviation": norm_dev}, norm_dev < out.tolerance

    with ctx.check(
        "qg-separability", "product-states-preserved",
        {"potential": {"g": pot.g, "n": pot.n}, "grid": grid, "t": 5.0},
        ctx.tol("schmidt_separable"),
    ) as out:
        longrun = qgrid.evolve_G(state(), pot, 5.0, steps=600)
        sep_ratio = qgrid.schmidt(longrun).ratio
        out.measured, out.passed = {"schmidt_ratio": sep_ratio}, sep_ratio < out.tolerance

    with ctx.check(
        "qg-lms-entangles", "similarity-breaks-products",
        {"grid": grid, "alpha": 0.5}, ctx.tol("schmidt_mixed"),
    ) as out:
        mixed = qgrid.schmidt(qgrid.apply_lms_unitary_harmonic(state(), 0.5))
        out.measured, out.passed = {"schmidt_ratio": mixed.ratio}, mixed.ratio > out.tolerance
        rows = []
        for alpha in (0.1, 0.2, 0.3, 0.4, 0.5):
            if alpha == 0.5:
                spec = mixed
            else:
                spec = qgrid.schmidt(qgrid.apply_lms_unitary_harmonic(state(), alpha))
            s = spec.values
            rows.append((alpha, float(s[0]), float(s[1]), spec.ratio))
        ctx.emit_csv("schmidt_vs_alpha.csv", ("alpha", "s1", "s2", "ratio"), rows)


# ---------------------------------------------------------------------------
# quantized actions

def suite_bohr(ctx: SuiteContext):
    from .semiclassics import bohr_levels, lms_bohr_violation, reduced_action

    hbar = ctx.scenario["grid"]["hbar"]

    with ctx.check(
        "bohr-harmonic-levels", "half-integer-levels",
        {"potential": {"g": 1.0, "n": 2.0}, "hbar": hbar, "count": 6}, ctx.tol("bohr_levels"),
    ) as out:
        levels = bohr_levels(MonomialPotential(1.0, 2.0), hbar, 6)
        targets = (np.arange(6) + 0.5) * hbar
        dev = float(np.max(np.abs(levels - targets))) / hbar
        out.measured = {"max_level_dev": dev, "levels": [float(v) for v in levels]}
        out.passed = dev < out.tolerance

    sweep = [n for n in ctx.exponents(BOHR_SWEEP)
             if n >= 2 and float(n).is_integer() and int(n) % 2 == 0]
    if not sweep:
        sweep = list(BOHR_SWEEP)
    for n in sweep:
        prm = ctx.lms_for(float(n))
        with ctx.check(
            f"bohr-shift-n{n:g}", "action-shift",
            {"potential": {"g": 1.0, "n": float(n)}, "energy": 1.0,
             "alpha": prm.alpha, "hbar": hbar},
            1e-6,
        ) as out:
            rep = lms_bohr_violation(MonomialPotential(1.0, float(n)), 1.0, prm, hbar=hbar)
            rel = abs(rep.delta_j - rep.delta_j_closed_form) / (1.0 + abs(rep.delta_j))
            out.measured = {"delta_j": rep.delta_j, "closed_form": rep.delta_j_closed_form,
                            "level_mismatch": rep.level_mismatch, "relative_gap": rel}
            out.passed = rel < out.tolerance

    # no orbit closes at n = -2, so the law is measured on the reduced
    # action between fixed endpoints, which the map carries to alpha q
    prm = ctx.lms_for(-2.0)
    energy, q1, q2 = 1.0, 0.5, 2.0
    with ctx.check(
        "bohr-inverse-square", "inverse-square-exception",
        {"potential": {"g": 1.0, "n": -2.0}, "alpha": prm.alpha, "energy": energy,
         "interval": [q1, q2]},
        1e-12,
    ) as out:
        pot = MonomialPotential(1.0, -2.0)
        w = reduced_action(pot, energy, q1, q2)
        w_mapped = reduced_action(pot, prm.alpha**-2.0 * energy, prm.alpha * q1, prm.alpha * q2)
        rel = abs(w_mapped - w) / w
        out.measured = {"reduced_action": w, "mapped_reduced_action": w_mapped,
                        "relative_gap": rel}
        out.passed = rel < out.tolerance


# ---------------------------------------------------------------------------
# rescaled-mass family

def suite_newton_equiv(ctx: SuiteContext):
    from .semiclassics import (
        eigensolve_newton_equiv,
        ground_width,
        newton_equiv_trajectory_check,
    )

    pot = ctx.potential
    x0 = PhasePoint(1.0, 0.3)
    for gamma in GAMMA_SWEEP:
        with ctx.check(
            f"ne-orbit-gamma{gamma:g}", "same-orbits",
            {"potential": {"g": pot.g, "n": pot.n}, "gamma": gamma,
             "x0": [x0.q, x0.p], "horizon": 10.0},
            ctx.tol("trajectory_match"),
        ) as out:
            rep = newton_equiv_trajectory_check(pot, gamma, x0, 10.0)
            out.measured = {"max_q_diff": rep.max_q_diff,
                            "max_p_scaled_diff": rep.max_p_scaled_diff,
                            "energy_relation_dev": rep.max_energy_relation_dev}
            out.passed = rep.max_q_diff < out.tolerance and rep.max_energy_relation_dev < 1e-9

    harm = MonomialPotential(1.0, 2.0)
    with ctx.check(
        "ne-harmonic-spectrum", "harmonic-spectrum-gamma-free",
        {"potential": {"g": 1.0, "n": 2.0}, "gammas": [1.0, 8.0]}, 1e-6,
    ) as out:
        base = eigensolve_newton_equiv(harm, 1.0, 1.0, 6)
        other = eigensolve_newton_equiv(harm, 8.0, 1.0, 6)
        dev = float(np.max(np.abs(other - base) / np.abs(base)))
        width_ratio = ground_width(harm, 8.0, 1.0) / ground_width(harm, 1.0, 1.0)
        out.measured = {"max_relative_spectrum_dev": dev, "ground_width_ratio": width_ratio}
        out.passed = dev < 1e-6 and abs(width_ratio - 8.0**-0.5) < 1e-12

    quart = MonomialPotential(1.0, 4.0)
    with ctx.check(
        "ne-quartic-scaling", "spectra-rescale",
        {"potential": {"g": 1.0, "n": 4.0}, "gammas": list(GAMMA_SWEEP),
         "expected_power": -1.0 / 3.0},
        ctx.tol("spectrum_scaling"),
    ) as out:
        base = eigensolve_newton_equiv(quart, 1.0, 1.0, 6)
        for gamma in GAMMA_SWEEP:
            res = eigensolve_newton_equiv(quart, gamma, 1.0, 6)
            ratios = res / base
            out.measured[f"gamma{gamma:g}"] = float(
                np.max(np.abs(ratios - gamma ** (-1.0 / 3.0))))
        out.passed = max(out.measured.values()) < out.tolerance


SUITE_FUNCS = {
    "dynamics": suite_dynamics,
    "charges": suite_charges,
    "lms-classical": suite_lms_classical,
    "lms-virasoro": suite_lms_virasoro,
    "opalg": suite_opalg,
    "quantum-leak": suite_quantum_leak,
    "bohr": suite_bohr,
    "newton-equiv": suite_newton_equiv,
}


#: Suite -> the modules its checks call: kvnlab's, named relative to the
#: package, and the numpy submodules that numpy loads lazily (numpy.random for
#: ``SuiteContext.rng``, numpy.fft for the grid, numpy.polynomial for the
#: reduced action's Gauss-Legendre nodes). Each suite body imports the names
#: it uses. No suite loads scipy or sympy: ``.opalg`` imports sympy on demand.
SUITE_MODULES = {
    "dynamics": (".dynamics",),
    "charges": (".charges", ".dynamics", "numpy.random"),
    "lms-classical": (".dynamics", ".symmetry"),
    "lms-virasoro": (".charges", ".dynamics", "numpy.random"),
    "opalg": (".opalg",),
    "quantum-leak": (".qgrid", "numpy.fft"),
    "bohr": (".semiclassics", "numpy.polynomial"),
    "newton-equiv": (".semiclassics",),
}


def _selected(suite: str):
    return list(SUITE_FUNCS) if suite == "all" else [suite]


def import_suite_modules(suite: str):
    """Import the modules ``suite`` (or, for ``all``, every suite) calls.

    The runner calls this before :func:`run_checks`, so their imports
    are not timed as part of the run."""
    for name in _selected(suite):
        for module in SUITE_MODULES[name]:
            importlib.import_module(module, __package__)


def run_checks(ctx: SuiteContext, suite: str):
    """Run one suite (or all of them) and return its report entries sorted by id."""
    for name in _selected(suite):
        SUITE_FUNCS[name](ctx)
    return sorted(ctx.records, key=lambda r: r["id"])
