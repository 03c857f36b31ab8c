"""Named check suites behind the command-line runner.

Each suite is a list of checks over the library API. A check computes a
small set of measured numbers, compares them against a tolerance, and
returns one record per claim exercised. Sweep suites iterate a fixture
table of exponents with known-good couplings and initial conditions, so
a two-line scenario gets meaningful coverage out of the box.
"""

from __future__ import annotations

import math
import os
import threading
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
import sympy as sp

from . import opalg, qgrid
from .charges import (
    epb,
    liouvillian_field,
    liouvillian_value,
    lms_charge,
    lms_charge0,
    lms_charge0_field,
    lms_charge_harmonic,
    virasoro_charge,
)
from .core import (
    ExtendedPoint,
    MonomialPotential,
    PhasePoint,
    lms_params_from_alpha,
    lms_params_from_beta,
)
from .dynamics import IntegratorConfig, characteristic_time, energy, integrate
from .errors import ScenarioError
from .report import CheckRecord, make_record, write_csv
from .semiclassics import (
    bohr_levels,
    eigensolve_newton_equiv,
    ground_width,
    lms_bohr_violation,
    newton_equiv_trajectory_check,
)
from .symmetry import (
    action_kvn,
    bracket_change,
    check_action_scaling,
    lms_jacobian,
    lms_map_trajectory,
)

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


def _fixture_for(n: float, fallback_g: float):
    key = float(n)
    if key in FIXTURES:
        g, ic = FIXTURES[key]
        return g, ExtendedPoint(*ic)
    return fallback_g, ExtendedPoint(*_GENERIC_IC)


def _ic_for(pot: MonomialPotential) -> ExtendedPoint:
    """Initial point for a user-supplied potential.

    The fixture table applies only when both the exponent and the coupling
    sign match; otherwise fall back to a near-turning generic start.
    """
    key = float(pot.n)
    if key in FIXTURES and math.copysign(1.0, pot.g) == math.copysign(1.0, FIXTURES[key][0]):
        return ExtendedPoint(*FIXTURES[key][1])
    return ExtendedPoint(*_GENERIC_IC)


@dataclass
class SuiteContext:
    """Shared configuration and caches for one runner invocation."""

    scenario: dict
    out_dir: str | None
    seed: int
    _traj_cache: dict = field(default_factory=dict)
    _lock: threading.Lock = field(default_factory=threading.Lock)

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
        """Integrate ``periods`` characteristic periods, memoized."""
        key = (pot.g, pot.n, x0.q, x0.p, x0.lq, x0.lp, periods)
        with self._lock:
            if key not in self._traj_cache:
                tchar = characteristic_time(pot, x0)
                horizon = periods * tchar
                cfg = IntegratorConfig(dt=horizon / 2000)
                self._traj_cache[key] = integrate(x0, pot, horizon, cfg)
            return self._traj_cache[key]

    def emit_csv(self, name: str, header, rows):
        if self.out_dir is not None:
            write_csv(os.path.join(self.out_dir, name), header, rows)


def _drift(values: np.ndarray) -> float:
    ref = values[0]
    return float(np.max(np.abs(values - ref)) / (1.0 + abs(ref)))


def _ext_flow(x0: ExtendedPoint, pot: MonomialPotential, t: float) -> ExtendedPoint:
    return integrate(x0, pot, t, IntegratorConfig(dt=abs(t))).final


# ---------------------------------------------------------------------------
# dynamics

def suite_dynamics(ctx: SuiteContext):
    records = []
    pot = ctx.potential

    harm = MonomialPotential(1.0, 2.0)
    x0 = ExtendedPoint(1.0, 0.0, 0.3, -0.2)
    period = 2.0 * math.pi
    xT = _ext_flow(x0, harm, period)
    ret = float(np.max(np.abs(xT.as_array() - x0.as_array())))
    records.append(make_record(
        "dyn-harmonic-return", "extended-eom",
        {"potential": {"g": 1.0, "n": 2.0}, "x0": list(x0.as_array()), "t": period},
        {"return_gap": ret}, 1e-8, ret < 1e-8,
    ))

    xf = _ic_for(pot)
    traj = ctx.trajectory(pot, xf, 10.0)
    env = energy(ExtendedPoint(*traj.states.T), pot)
    edrift = _drift(env)
    records.append(make_record(
        "dyn-energy-drift", "energy-conservation",
        {"potential": {"g": pot.g, "n": pot.n}, "x0": list(xf.as_array())},
        {"relative_drift": edrift}, 1e-8, edrift < 1e-8,
    ))

    t1, t2 = 0.3, 0.5
    a = _ext_flow(_ext_flow(xf, pot, t1), pot, t2)
    b = _ext_flow(xf, pot, t1 + t2)
    comp = float(np.max(np.abs(a.as_array() - b.as_array())))
    records.append(make_record(
        "dyn-flow-composition", "plumbing",
        {"potential": {"g": pot.g, "n": pot.n}, "t1": t1, "t2": t2},
        {"composition_gap": comp}, 1e-9, comp < 1e-9,
    ))

    records.append(_tangent_pairing_check(ctx, pot, xf))
    return records


def _tangent_pairing_check(ctx, pot, x0) -> CheckRecord:
    # Pair the auxiliary sector with a finite-difference tangent vector of
    # the (q, p) flow; the pairing must ride along unchanged.
    eps = 1e-6
    v = (0.7, -0.4)
    traj = ctx.trajectory(pot, x0, 2.0)
    horizon = traj.times[-1]
    cfg = IntegratorConfig(dt=horizon / 2000)
    plus = integrate(
        ExtendedPoint(x0.q + eps * v[0], x0.p + eps * v[1], 0.0, 0.0), pot, horizon, cfg
    )
    minus = integrate(
        ExtendedPoint(x0.q - eps * v[0], x0.p - eps * v[1], 0.0, 0.0), pot, horizon, cfg
    )
    dphi = (plus.states[:, :2] - minus.states[:, :2]) / (2.0 * eps)
    pairing = traj.states[:, 2] * dphi[:, 0] + traj.states[:, 3] * dphi[:, 1]
    drift = _drift(pairing)
    return make_record(
        "dyn-tangent-pairing", "tangent-pairing",
        {"potential": {"g": pot.g, "n": pot.n}, "x0": list(x0.as_array()),
         "direction": list(v), "eps": eps},
        {"pairing_drift": drift}, 1e-5, drift < 1e-5,
    )


# ---------------------------------------------------------------------------
# charges

def suite_charges(ctx: SuiteContext):
    records = []
    tol = ctx.tol("charge_drift")
    for n in ctx.exponents(SWEEP_EXPONENTS):
        if n == 2.0:
            continue
        g, x0 = _fixture_for(n, ctx.potential.g)
        pot = MonomialPotential(g, n)
        traj = ctx.trajectory(pot, x0, 20.0)
        samples = ExtendedPoint(*traj.states.T)
        dvals = lms_charge(samples, pot, traj.times)
        hvals = liouvillian_value(samples, pot)
        drift = _drift(dvals)
        records.append(make_record(
            f"chg-conserve-n{n:g}", "similarity-charge-conserved",
            {"potential": {"g": g, "n": n}, "x0": list(x0.as_array()),
             "periods": 20.0},
            {"charge_drift": drift, "initial_charge": float(dvals[0])},
            tol, drift < tol,
        ))
        step = max(1, len(traj.times) // 200)
        ctx.emit_csv(
            f"charges_n{n:g}.csv",
            ("t", "generator", "similarity_charge"),
            [
                (float(t), float(h), float(d))
                for t, h, d in zip(traj.times[::step], hvals[::step], dvals[::step])
            ],
        )
        records.append(_generates_check(ctx, pot, n))

    records.append(_harmonic_charge_check(ctx))
    return records


def _generates_check(ctx, pot, n) -> CheckRecord:
    # Bracket of the generator with the charge's time-free part returns the
    # generator itself; analytic gradients keep the comparison tight.
    rng = ctx.rng(f"chg-generates-n{n:g}")
    hf = liouvillian_field(pot)
    df = lms_charge0_field(pot)
    worst = 0.0
    for _ in range(40):
        x = ExtendedPoint(*(rng.uniform(0.5, 2.0, size=4) * np.array([1, 1, 1, -1])))
        lhs = epb(hf, df, x)
        rhs = liouvillian_value(x, pot)
        worst = max(worst, abs(lhs - rhs) / (1.0 + abs(rhs)))
    return make_record(
        f"chg-generates-n{n:g}", "charge-generates-rescale",
        {"potential": {"g": pot.g, "n": pot.n}, "samples": 40},
        {"max_relative_gap": worst}, 1e-12, worst < 1e-12,
    )


def _harmonic_charge_check(ctx) -> CheckRecord:
    pot = MonomialPotential(1.0, 2.0)
    g, x0 = FIXTURES[2.0][0], ExtendedPoint(*FIXTURES[2.0][1])
    traj = ctx.trajectory(pot, x0, 20.0)
    vals = lms_charge_harmonic(ExtendedPoint(*traj.states.T))
    drift = _drift(vals)
    tol = ctx.tol("charge_drift")
    return make_record(
        "chg-harmonic-variant", "harmonic-charge-conserved",
        {"potential": {"g": g, "n": 2.0}, "x0": list(x0.as_array()), "periods": 20.0},
        {"charge_drift": drift, "initial_charge": float(vals[0])},
        tol, drift < tol,
    )


# ---------------------------------------------------------------------------
# classical similarity maps

def suite_lms_classical(ctx: SuiteContext):
    records = []
    for n in ctx.exponents(SWEEP_EXPONENTS):
        if n == 2.0:
            continue
        g, x0 = _fixture_for(n, ctx.potential.g)
        pot = MonomialPotential(g, n)
        prm = ctx.lms_for(n)
        records.append(_solution_map_check(ctx, pot, x0, prm))
        records.append(_action_exponent_check(ctx, pot, x0, prm))
        records.append(_kvn_action_check(ctx, pot, x0, prm))
        records.append(_bracket_check(ctx, n))
        records.append(_lagrangian_check(ctx, pot, x0, prm))
    return records


def _solution_map_check(ctx, pot, x0, prm) -> CheckRecord:
    traj = ctx.trajectory(pot, x0, 2.0)
    mapped = lms_map_trajectory(traj, prm)
    cfg = IntegratorConfig(dt=abs(mapped.times[-1]) / 2000)
    redone = integrate(mapped.initial, pot, mapped.times[-1], cfg)
    resampled = np.stack([
        np.interp(mapped.times, redone.times, redone.states[:, k]) for k in range(4)
    ], axis=1)
    scale = 1.0 + float(np.max(np.abs(mapped.states)))
    gap = float(np.max(np.abs(resampled - mapped.states))) / scale
    tol = ctx.tol("solution_map")
    return make_record(
        f"sym-solution-map-n{pot.n:g}", "solution-mapping",
        {"potential": {"g": pot.g, "n": pot.n}, "alpha": prm.alpha,
         "x0": list(x0.as_array())},
        {"normalized_gap": gap}, tol, gap < tol,
    )


def _action_exponent_check(ctx, pot, x0, prm) -> CheckRecord:
    traj = ctx.trajectory(pot, x0, 1.3)
    scaling = check_action_scaling(traj, pot, prm)
    dev = abs(scaling.measured_exponent - scaling.expected_exponent)
    tol = ctx.tol("action_exponent")
    return make_record(
        f"sym-action-exponent-n{pot.n:g}", "action-rescale",
        {"potential": {"g": pot.g, "n": pot.n}, "alpha": prm.alpha},
        {"measured_exponent": scaling.measured_exponent,
         "expected_exponent": scaling.expected_exponent,
         "action": scaling.s_original},
        tol, dev < tol,
    )


def _kvn_action_check(ctx, pot, x0, prm) -> CheckRecord:
    traj = ctx.trajectory(pot, x0, 1.3)
    s0 = action_kvn(traj, pot)
    s1 = action_kvn(lms_map_trajectory(traj, prm), pot)
    gap = abs(s1 - s0) / (1.0 + abs(s0))
    return make_record(
        f"sym-aux-action-n{pot.n:g}", "auxiliary-action-invariant",
        {"potential": {"g": pot.g, "n": pot.n}, "alpha": prm.alpha},
        {"original": s0, "mapped": s1, "relative_gap": gap},
        1e-6, gap < 1e-6,
    )


def _bracket_check(ctx, n) -> CheckRecord:
    # Small-parameter probe of the two bracket factors via the exact
    # Jacobian of the point map.
    beta = 1e-3
    prm = lms_params_from_beta(beta, n)
    jac = lms_jacobian(prm)
    omega_std = np.zeros((4, 4))
    omega_std[0, 1] = 1.0
    omega_std[1, 0] = -1.0
    omega_ext = np.zeros((4, 4))
    omega_ext[0, 2] = omega_ext[1, 3] = 1.0
    omega_ext[2, 0] = omega_ext[3, 1] = -1.0
    factor_std, factor_ext = bracket_change(prm)
    dev_std = float(np.max(np.abs(jac.T @ omega_std @ jac - factor_std * omega_std)))
    dev_ext = float(np.max(np.abs(jac.T @ omega_ext @ jac - omega_ext)))
    theory = math.exp(beta * (1.0 + n / 2.0))
    ok = (
        dev_std < 1e-12
        and dev_ext < 1e-12
        and abs(factor_std - theory) < 1e-6
        and factor_ext == 1.0
    )
    return make_record(
        f"sym-bracket-n{n:g}", "bracket-dichotomy",
        {"beta": beta, "n": n},
        {"standard_factor": factor_std, "extended_factor": factor_ext,
         "standard_form_dev": dev_std, "extended_form_dev": dev_ext},
        1e-6, ok,
    )


def _lagrangian_check(ctx, pot, x0, prm) -> CheckRecord:
    traj = ctx.trajectory(pot, x0, 1.3)
    q, p = traj.states[:, 0], traj.states[:, 1]
    lag = 0.5 * p**2 - pot.value(q)
    qm, pm = prm.alpha * q, prm.alpha ** (pot.n / 2.0) * p
    lag_m = 0.5 * pm**2 - pot.value(qm)
    expected = prm.alpha**pot.n * lag
    dev = float(np.max(np.abs(lag_m - expected)) / (1.0 + np.max(np.abs(expected))))
    return make_record(
        f"sym-lagrangian-n{pot.n:g}", "lagrangian-homogeneity",
        {"potential": {"g": pot.g, "n": pot.n}, "alpha": prm.alpha},
        {"normalized_dev": dev}, 1e-10, dev < 1e-10,
    )


# ---------------------------------------------------------------------------
# conserved tower

def suite_lms_virasoro(ctx: SuiteContext):
    records = []
    tol = ctx.tol("tower_drift")
    for n in ctx.exponents(SWEEP_EXPONENTS):
        if n == 2.0:
            continue
        g, x0 = _fixture_for(n, ctx.potential.g)
        pot = MonomialPotential(g, n)
        traj = ctx.trajectory(pot, x0, 20.0)
        samples = ExtendedPoint(*traj.states.T)
        drifts = {
            f"m{m}": _drift(virasoro_charge(samples, pot, traj.times, m))
            for m in (-1, 0, 1, 2)
        }
        worst = max(drifts.values())
        records.append(make_record(
            f"vir-tower-n{n:g}", "charge-tower",
            {"potential": {"g": g, "n": n}, "x0": list(x0.as_array()),
             "orders": [-1, 0, 1, 2], "periods": 20.0},
            drifts, tol, worst < tol,
        ))
        records.append(_tower_endpoint_check(ctx, pot, n))
    return records


def _tower_endpoint_check(ctx, pot, n) -> CheckRecord:
    rng = ctx.rng(f"vir-endpoints-n{n:g}")
    worst = 0.0
    for _ in range(50):
        x = ExtendedPoint(*rng.uniform(0.4, 1.6, size=4))
        t = float(rng.uniform(-2.0, 2.0))
        h = liouvillian_value(x, pot)
        d = lms_charge(x, pot, t)
        dev1 = abs(virasoro_charge(x, pot, t, -1) - h) / (1.0 + abs(h))
        dev2 = abs(virasoro_charge(x, pot, t, 0) - d) / (1.0 + abs(d))
        worst = max(worst, dev1, dev2)
    return make_record(
        f"vir-endpoints-n{n:g}", "tower-endpoints",
        {"potential": {"g": pot.g, "n": pot.n}, "samples": 50},
        {"max_relative_gap": worst}, 1e-12, worst <= 1e-12,
    )


# ---------------------------------------------------------------------------
# operator algebra

def suite_opalg(ctx: SuiteContext):
    records = []
    Q, P, Qbar, Pbar = opalg.bopp_operators()
    i_hb = opalg.OperatorPoly.scalar(opalg.KVN, sp.I * opalg.hbar)

    comms = {
        "QP": opalg.commutator(Q, P) - i_hb,
        "QbarPbar": opalg.commutator(Qbar, Pbar) + i_hb,
        "QQbar": opalg.commutator(Q, Qbar),
        "QPbar": opalg.commutator(Q, Pbar),
        "PQbar": opalg.commutator(P, Qbar),
        "PPbar": opalg.commutator(P, Pbar),
    }
    flags = {k: v.is_zero() for k, v in comms.items()}
    records.append(make_record(
        "op-heisenberg-pairs", "embedded-heisenberg-pair",
        {"relations": sorted(comms)}, flags, 0.0, all(flags.values()),
    ))

    harm = MonomialPotential(1.0, 2.0)
    g2 = opalg.build_G(harm)
    a2 = opalg.lms_quantum_generator(harm)
    ok_classical = g2.equals(g2.hbar_limit())
    ok_commutes = opalg.commutator(a2, g2).is_zero()
    ok_herm = a2.equals(a2.dagger())
    records.append(make_record(
        "op-harmonic-generator", "harmonic-evolution-generator",
        {"potential": {"g": 1.0, "n": 2.0}},
        {"no_correction_terms": ok_classical, "commutes": ok_commutes,
         "hermitian": ok_herm},
        0.0, ok_classical and ok_commutes and ok_herm,
    ))

    term_flags = {}
    for n in (1, 2, 3, 4, 5):
        pot = MonomialPotential(1.0, float(n))
        jmax = max(0, (n - 1) // 2)
        term_flags[f"n{n}"] = opalg.build_G(pot).equals(
            opalg.build_series_G(pot, jmax)
        )
    records.append(make_record(
        "op-series-termination", "derivative-series-terminates",
        {"exponents": [1, 2, 3, 4, 5]}, term_flags, 0.0,
        all(term_flags.values()),
    ))

    herm_flags = {}
    for n in (1, 3, 4):
        a = opalg.lms_quantum_generator(MonomialPotential(1.0, float(n)))
        herm_flags[f"n{n}"] = a.equals(a.dagger())
    records.append(make_record(
        "op-generator-hermitian", "similarity-generator-hermitian",
        {"exponents": [1, 3, 4]}, herm_flags, 0.0, all(herm_flags.values()),
    ))

    leak_flags = {}
    for n in (1, 3, 4, 5):
        pot = MonomialPotential(1.0, float(n))
        a = opalg.lms_quantum_generator(pot)
        moved = opalg.kvn_to_bopp(opalg.adjoint_infinitesimal(a, Q))
        expected_qbar = -sp.Rational(n + 2, 2 * (2 - n)) * opalg.alpha_sym
        coeff = sp.expand(moved.coefficient((0, 1, 0, 0)) - expected_qbar)
        barred = any(k[1] > 0 or k[3] > 0 for k in moved.terms)
        leak_flags[f"n{n}"] = bool(coeff == 0 and barred)
    records.append(make_record(
        "op-adjoint-leak", "position-adjoint-leaks",
        {"exponents": [1, 3, 4, 5]}, leak_flags, 0.0, all(leak_flags.values()),
    ))

    qa = opalg.OperatorPoly.generator(opalg.BOPP, 0)
    qba = opalg.OperatorPoly.generator(opalg.BOPP, 1)
    fin = opalg.adjoint_finite_quadratic(a2, Q)
    target = qa.scale(sp.cosh(opalg.alpha_sym)) + qba.scale(sp.sinh(opalg.alpha_sym))
    ok_hyp = opalg.kvn_to_bopp(fin).equals(target, strong=True)
    records.append(make_record(
        "op-harmonic-adjoint", "harmonic-adjoint-hyperbolic",
        {"potential": {"g": 1.0, "n": 2.0}},
        {"hyperbolic_mix": ok_hyp}, 0.0, ok_hyp,
    ))

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
    records.append(make_record(
        "op-no-go", "no-unitary-rescaling",
        {"exponents": [-2, 1, 3, 4]}, nogo, 0.0, ok_nogo,
    ))
    return records


# ---------------------------------------------------------------------------
# grid evolution

def _grid_potential(ctx) -> MonomialPotential:
    pot = ctx.potential
    if float(pot.n) in {float(v) for v in qgrid.GRID_EXPONENTS} and pot.g > 0:
        return pot
    return MonomialPotential(1.0, 2.0)


def _grid_state(ctx):
    grid = ctx.scenario["grid"]
    ax = qgrid.GridAxis(0.0, grid["extent"], grid["count"])
    return qgrid.make_separable(
        qgrid.gaussian_profile(0.4, 1.0),
        qgrid.gaussian_profile(-0.2, 0.7),
        ax, ax, rep=qgrid.REP_QQBAR, hbar=grid["hbar"],
    )


def suite_quantum_leak(ctx: SuiteContext):
    records = []
    pot = _grid_potential(ctx)
    grid = ctx.scenario["grid"]

    state = _grid_state(ctx)
    evolved = qgrid.evolve_G(state, pot, 2.0, steps=400)
    norm_dev = abs(evolved.norm() - 1.0)
    records.append(make_record(
        "qg-unitary", "split-evolution-unitary",
        {"potential": {"g": pot.g, "n": pot.n}, "grid": grid,
         "t": 2.0, "steps": 400},
        {"norm_deviation": norm_dev}, 1e-10, norm_dev < 1e-10,
    ))

    longrun = qgrid.evolve_G(state, pot, 5.0, steps=600)
    sep_ratio = qgrid.schmidt(longrun).ratio
    tol_sep = ctx.tol("schmidt_separable")
    records.append(make_record(
        "qg-separability", "product-states-preserved",
        {"potential": {"g": pot.g, "n": pot.n}, "grid": grid, "t": 5.0},
        {"schmidt_ratio": sep_ratio}, tol_sep, sep_ratio < tol_sep,
    ))

    mixed = qgrid.schmidt(qgrid.apply_lms_unitary_harmonic(state, 0.5))
    mix_ratio = mixed.ratio
    tol_mix = ctx.tol("schmidt_mixed")
    records.append(make_record(
        "qg-lms-entangles", "similarity-breaks-products",
        {"grid": grid, "alpha": 0.5},
        {"schmidt_ratio": mix_ratio}, tol_mix, mix_ratio > tol_mix,
    ))

    rows = []
    for alpha in (0.1, 0.2, 0.3, 0.4, 0.5):
        if alpha == 0.5:
            spec = mixed
        else:
            spec = qgrid.schmidt(qgrid.apply_lms_unitary_harmonic(state, alpha))
        s = spec.values
        rows.append((alpha, float(s[0]), float(s[1]) if len(s) > 1 else 0.0,
                     spec.ratio))
    ctx.emit_csv("schmidt_vs_alpha.csv", ("alpha", "s1", "s2", "ratio"), rows)
    return records


# ---------------------------------------------------------------------------
# quantized actions

def suite_bohr(ctx: SuiteContext):
    records = []
    hbar = ctx.scenario["grid"]["hbar"]
    tol = ctx.tol("bohr_levels")

    harm = MonomialPotential(1.0, 2.0)
    levels = bohr_levels(harm, hbar, 6)
    targets = (np.arange(6) + 0.5) * hbar
    dev = float(np.max(np.abs(levels - targets))) / hbar
    records.append(make_record(
        "bohr-harmonic-levels", "half-integer-levels",
        {"potential": {"g": 1.0, "n": 2.0}, "hbar": hbar, "count": 6},
        {"max_level_dev": dev, "levels": [float(v) for v in levels]},
        tol, dev < tol,
    ))

    sweep = [n for n in ctx.exponents(BOHR_SWEEP)
             if n >= 2 and float(n).is_integer() and int(n) % 2 == 0]
    if not sweep:
        sweep = list(BOHR_SWEEP)
    for n in sweep:
        pot = MonomialPotential(1.0, float(n))
        prm = ctx.lms_for(float(n))
        rep = lms_bohr_violation(pot, 1.0, prm, hbar=hbar)
        rel = abs(rep.delta_j - rep.delta_j_closed_form) / (1.0 + abs(rep.delta_j))
        records.append(make_record(
            f"bohr-shift-n{n:g}", "action-shift",
            {"potential": {"g": 1.0, "n": float(n)}, "energy": 1.0,
             "alpha": prm.alpha, "hbar": hbar},
            {"delta_j": rep.delta_j, "closed_form": rep.delta_j_closed_form,
             "level_mismatch": rep.level_mismatch, "relative_gap": rel},
            1e-6, rel < 1e-6,
        ))

    prm = ctx.lms_for(-2.0)
    rep = lms_bohr_violation(MonomialPotential(1.0, -2.0), 1.0, prm, hbar=hbar)
    exact_power = prm.alpha ** (1.0 + (-2.0) / 2.0)
    records.append(make_record(
        "bohr-inverse-square", "inverse-square-exception",
        {"potential": {"g": 1.0, "n": -2.0}, "alpha": prm.alpha},
        {"exact_invariance": rep.exact_invariance, "alpha_power": exact_power},
        0.0, rep.exact_invariance and exact_power == 1.0,
    ))
    return records


# ---------------------------------------------------------------------------
# rescaled-mass family

def suite_newton_equiv(ctx: SuiteContext):
    records = []
    pot = ctx.potential
    tol = ctx.tol("trajectory_match")
    x0 = PhasePoint(1.0, 0.3)
    for gamma in GAMMA_SWEEP:
        rep = newton_equiv_trajectory_check(pot, gamma, 1.0, x0, 10.0)
        ok = rep.max_q_diff < tol and rep.max_energy_relation_dev < 1e-9
        records.append(make_record(
            f"ne-orbit-gamma{gamma:g}", "same-orbits",
            {"potential": {"g": pot.g, "n": pot.n}, "gamma": gamma,
             "x0": [x0.q, x0.p], "horizon": 10.0},
            {"max_q_diff": rep.max_q_diff,
             "max_p_scaled_diff": rep.max_p_scaled_diff,
             "energy_relation_dev": rep.max_energy_relation_dev},
            tol, ok,
        ))

    harm = MonomialPotential(1.0, 2.0)
    base = eigensolve_newton_equiv(harm, 1.0, 1.0, 1.0, 6)
    other = eigensolve_newton_equiv(harm, 8.0, 1.0, 1.0, 6)
    dev = float(np.max(np.abs(other.energies - base.energies)
                       / np.abs(base.energies)))
    width_ratio = ground_width(harm, 8.0, 1.0, 1.0) / ground_width(harm, 1.0, 1.0, 1.0)
    ok = dev < 1e-6 and abs(width_ratio - 8.0**-0.5) < 1e-12
    records.append(make_record(
        "ne-harmonic-spectrum", "harmonic-spectrum-gamma-free",
        {"potential": {"g": 1.0, "n": 2.0}, "gammas": [1.0, 8.0]},
        {"max_relative_spectrum_dev": dev, "ground_width_ratio": width_ratio},
        1e-6, ok,
    ))

    quart = MonomialPotential(1.0, 4.0)
    base = eigensolve_newton_equiv(quart, 1.0, 1.0, 1.0, 6)
    tol_s = ctx.tol("spectrum_scaling")
    worst = 0.0
    measured = {}
    for gamma in GAMMA_SWEEP:
        res = eigensolve_newton_equiv(quart, gamma, 1.0, 1.0, 6)
        ratios = res.energies / base.energies
        dev = float(np.max(np.abs(ratios - gamma ** (-1.0 / 3.0))))
        measured[f"gamma{gamma:g}"] = dev
        worst = max(worst, dev)
    records.append(make_record(
        "ne-quartic-scaling", "spectra-rescale",
        {"potential": {"g": 1.0, "n": 4.0}, "gammas": list(GAMMA_SWEEP),
         "expected_power": -1.0 / 3.0},
        measured, tol_s, worst < tol_s,
    ))
    return records


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


def thread_count() -> int:
    raw = os.environ.get("KVNLAB_THREADS", "1")
    try:
        count = int(raw)
    except ValueError:
        raise ScenarioError(f"KVNLAB_THREADS must be an integer, got {raw!r}")
    if count < 1:
        raise ScenarioError("KVNLAB_THREADS must be at least 1")
    return count


def run_checks(ctx: SuiteContext, suite: str):
    """Execute one suite (or all of them) and return sorted records."""
    names = list(SUITE_FUNCS) if suite == "all" else [suite]
    workers = thread_count()
    if workers == 1:
        batches = [SUITE_FUNCS[name](ctx) for name in names]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(SUITE_FUNCS[name], ctx) for name in names]
            batches = [f.result() for f in futures]
    records = [rec for batch in batches for rec in batch]
    return sorted(records, key=lambda r: r.check_id)
