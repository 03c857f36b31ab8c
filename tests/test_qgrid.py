"""Grid states, transport, split-step evolution, and entanglement."""

import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.fft

from kvnlab import cli, qgrid
from kvnlab.core import MonomialPotential
from kvnlab.dynamics import flow_map_batch
from kvnlab.errors import NonNormalizable, SupportExit, UndefinedError
from kvnlab.qgrid import (
    GRID_EXPONENTS,
    REP_QP,
    REP_QQBAR,
    AliasingWarning,
    DomainExitWarning,
    GridAxis,
    GridState2D,
    apply_lms_unitary_harmonic,
    evolve_G,
    evolve_liouville,
    gaussian_profile,
    make_separable,
    schmidt,
)
from kvnlab.qgrid import _interpolate, _strang_propagator

HARMONIC = MonomialPotential(1.0, 2.0)
QUARTIC = MonomialPotential(1.0, 4.0)
REPO = Path(__file__).resolve().parent.parent


def _qp_gaussian(q0=0.4, p0=-0.3, sq=0.8, sp_=0.5, count=128, extent=6.0):
    ax = GridAxis(0.0, extent, count)
    return make_separable(
        gaussian_profile(q0, sq), gaussian_profile(p0, sp_), ax, ax,
        rep=REP_QP, hbar=1.0,
    )


def _grid(axis1, axis2):
    """The tensor grid's coordinates (x1, x2), broadcast against each other."""
    return axis1.points()[:, None], axis2.points()[None, :]


def _mean(state, fn):
    """Mean of fn(x1, x2) under |psi|^2."""
    w = np.abs(state.amps) ** 2
    return float(np.sum(fn(*_grid(state.axis1, state.axis2)) * w) / np.sum(w))


def _entangled(axis1, axis2, hbar=0.5):
    x1, x2 = _grid(axis1, axis2)
    amps = np.exp(-(x1**2 + x2**2) / 4.0 - 0.3 * x1 * x2 + 0.7j * x1)
    state = GridState2D(axis1, axis2, amps, REP_QQBAR, hbar).normalized()
    assert schmidt(state).ratio > 0.1
    return state


def _unfused_strang(state, pot, t, steps):
    """Step-by-step 2-d Strang product with np.fft, phases unfused."""
    dt, hbar = t / steps, state.hbar
    k1 = state.axis1.wavenumbers()[:, None]
    k2 = state.axis2.wavenumbers()[None, :]
    dv = pot.value(state.axis1.points())[:, None] - pot.value(state.axis2.points())[None, :]
    half_v = np.exp(-0.5j * dt * dv / hbar)
    kin = np.exp(-0.5j * dt * hbar * (k1**2 - k2**2))
    ref = state.amps.copy()
    for _ in range(steps):
        ref = half_v * ref
        ref = np.fft.ifft2(kin * np.fft.fft2(ref))
        ref = half_v * ref
    return ref


def _step_loop_propagator(axis, pot, hbar, t, steps):
    """The 1-d Strang propagator built by running the step loop with
    scipy.fft on the unit vectors (fused half phases, rows are images)."""
    dt = t / steps
    half = np.exp(-0.5j * dt * pot.value(axis.points()) / hbar)
    full = half * half
    kin = np.exp(-0.5j * dt * hbar * axis.wavenumbers() ** 2)
    rows = np.diag(half)
    for step in range(steps):
        rows = scipy.fft.ifft(scipy.fft.fft(rows) * kin)
        rows *= full if step < steps - 1 else half
    return rows


def _mehler_ratio(alpha, sigma1=1.0, sigma2=0.7):
    """Closed-form Schmidt ratio of the remapped product of Gaussians.

    The amplitude exp(-a x1^2 - b x2^2) with a = 1/(4 sigma1^2) and
    b = 1/(4 sigma2^2) is mapped to exp(-(A Q^2 + B Qbar^2 + 2 C Q Qbar)),
    whose kernel Mehler's formula diagonalises: successive Schmidt values
    fall by r / (1 + sqrt(1 - r^2)) with r = C / sqrt(A B). The centres
    only translate the state, which no Schmidt value sees."""
    a, b = 1.0 / (4.0 * sigma1**2), 1.0 / (4.0 * sigma2**2)
    ch, sh = math.cosh(alpha), math.sinh(alpha)
    big_a = a * ch**2 + b * sh**2
    big_b = a * sh**2 + b * ch**2
    r = (a + b) * ch * sh / math.sqrt(big_a * big_b)
    return r / (1.0 + math.sqrt(1.0 - r * r))


def _evolve_quiet(state, pot, t, steps):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AliasingWarning)
        return evolve_G(state, pot, t, steps=steps)


def _qqbar_gaussian(count=128, extent=8.0, hbar=0.5):
    ax = GridAxis(0.0, extent, count)
    return make_separable(
        gaussian_profile(0.4, 1.0), gaussian_profile(-0.2, 0.7), ax, ax,
        rep=REP_QQBAR, hbar=hbar,
    )


class TestGridAxis:
    def test_points_exclude_right_endpoint(self):
        ax = GridAxis(0.0, 4.0, 8)
        pts = ax.points()
        assert pts[0] == -4.0
        assert pts[-1] == pytest.approx(4.0 - ax.dx)
        assert len(pts) == 8

    def test_power_of_two_enforced(self):
        with pytest.raises(ValueError):
            GridAxis(0.0, 4.0, 100)
        with pytest.raises(ValueError):
            GridAxis(0.0, 4.0, 1)
        with pytest.raises(ValueError):
            GridAxis(0.0, 8.0, 128.0)

    def test_wavenumbers_parseval(self):
        ax = GridAxis(0.0, 4.0, 64)
        f = np.exp(-ax.points() ** 2)
        spec = np.fft.fft(f)
        assert np.sum(np.abs(f) ** 2) == pytest.approx(
            np.sum(np.abs(spec) ** 2) / 64
        )

    def test_grid_exponent_whitelist(self):
        assert GRID_EXPONENTS == (1, 2, 4)


class TestGridState:
    def test_norm_and_normalize(self):
        state = _qp_gaussian()
        assert state.norm() == pytest.approx(1.0, abs=1e-12)

    def test_shape_mismatch_rejected(self):
        ax = GridAxis(0.0, 4.0, 8)
        with pytest.raises(ValueError):
            GridState2D(ax, ax, np.zeros((8, 4)), REP_QP, 1.0)

    def test_unknown_rep_rejected(self):
        ax = GridAxis(0.0, 4.0, 8)
        with pytest.raises(ValueError):
            GridState2D(ax, ax, np.zeros((8, 8)), "pq", 1.0)

    def test_nonfinite_rejected(self):
        ax = GridAxis(0.0, 4.0, 8)
        amps = np.zeros((8, 8), dtype=complex)
        amps[0, 0] = np.nan
        with pytest.raises(NonNormalizable):
            GridState2D(ax, ax, amps, REP_QP, 1.0)

    def test_zero_state_cannot_normalize(self):
        ax = GridAxis(0.0, 4.0, 8)
        state = GridState2D(ax, ax, np.zeros((8, 8)), REP_QP, 1.0)
        with pytest.raises(NonNormalizable):
            state.normalized()

    def test_gaussian_profile_width_is_density_std(self):
        ax = GridAxis(0.0, 10.0, 512)
        f = gaussian_profile(0.0, 1.3)(ax.points())
        w = np.abs(f) ** 2
        var = np.sum(ax.points() ** 2 * w) / np.sum(w)
        assert math.sqrt(var) == pytest.approx(1.3, rel=1e-6)

    def test_hbar_must_be_finite_and_positive(self):
        ax = GridAxis(0.0, 4.0, 8)
        for hbar in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(UndefinedError, match="hbar must be finite and positive"):
                GridState2D(ax, ax, np.zeros((8, 8)), REP_QP, hbar)


class TestLiouvilleTransport:
    def test_norm_preserved(self):
        state = _qp_gaussian()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DomainExitWarning)
            out = evolve_liouville(state, HARMONIC, 0.7)
        assert abs(out.norm() - 1.0) < 1e-6

    def test_harmonic_full_period_returns(self):
        state = _qp_gaussian(count=256)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DomainExitWarning)
            out = evolve_liouville(state, HARMONIC, 2.0 * math.pi)
        assert np.max(np.abs(out.amps - state.amps)) < 1e-3

    def test_harmonic_rotation_closed_form(self):
        # the flow rotates phase space clockwise; the transported profile
        # is the initial one evaluated at the backward-rotated point
        state = _qp_gaussian(count=256)
        t = 0.9
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DomainExitWarning)
            out = evolve_liouville(state, HARMONIC, t)
        qn, pn = np.meshgrid(
            state.axis1.points(), state.axis2.points(), indexing="ij"
        )
        qb = qn * math.cos(t) - pn * math.sin(t)
        pb = qn * math.sin(t) + pn * math.cos(t)
        expected = (
            gaussian_profile(0.4, 0.8)(qb) * gaussian_profile(-0.3, 0.5)(pb)
        )
        expected = expected / (
            np.sqrt(np.sum(np.abs(expected) ** 2) * state.cell)
        )
        bulk = (np.abs(qn) < 4.0) & (np.abs(pn) < 4.0)
        assert np.max(np.abs(out.amps - expected)[bulk]) < 1e-5

    def test_density_transport_against_monte_carlo(self):
        # independent stochastic oracle: push 40000 samples of |psi|^2
        # through the flow and compare bin probabilities
        state = _qp_gaussian(q0=0.2, p0=0.0, sq=0.6, sp_=0.45, extent=6.0, count=256)
        t = 0.8
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DomainExitWarning)
            out = evolve_liouville(state, QUARTIC, t)

        rng = np.random.default_rng(42)
        qs = rng.normal(0.2, 0.6, 40000)
        ps = rng.normal(0.0, 0.45, 40000)
        qf, pf = flow_map_batch(qs, ps, QUARTIC, t)

        # bin edges on grid cell boundaries, 16 cells per bin, so binning
        # the density is exact and only sampling noise remains
        edges = out.axis1.points()[86::16][:7] - out.axis1.dx / 2.0
        mc, _, _ = np.histogram2d(qf, pf, bins=(edges, edges))
        mc = mc / 40000.0

        dens = np.abs(out.amps) ** 2 * out.cell
        x1 = out.axis1.points()
        x2 = out.axis2.points()
        grid_prob = np.zeros_like(mc)
        i1 = np.searchsorted(edges, x1) - 1
        i2 = np.searchsorted(edges, x2) - 1
        for a in range(len(x1)):
            if not 0 <= i1[a] < 6:
                continue
            for b in range(len(x2)):
                if 0 <= i2[b] < 6:
                    grid_prob[i1[a], i2[b]] += dens[a, b]
        assert np.max(np.abs(grid_prob - mc)) < 0.008

    def test_zero_time_copies_the_amplitudes_exactly(self):
        # a spline does not reproduce its own nodes bit for bit, so t = 0
        # copies the amplitudes instead of sampling them
        state = _qp_gaussian(count=64)
        out = evolve_liouville(state, QUARTIC, 0.0)
        assert np.array_equal(out.amps, state.amps)
        assert not np.shares_memory(out.amps, state.amps)

    def test_spline_matches_fitpack_in_the_bulk(self):
        # FITPACK's interpolating spline through the same nodes ends with
        # another boundary model; that difference decays geometrically into
        # the grid, so eight cells in from either edge the two agree
        from scipy.interpolate import RectBivariateSpline

        ax = GridAxis(0.0, 6.0, 128)
        q, p = _grid(ax, ax)
        amps = np.exp(-(q - 0.4) ** 2 / 2.56 - (p + 0.3) ** 2 + 0.7j * q)
        state = GridState2D(ax, ax, amps, REP_QP, 1.0).normalized()
        x = ax.points()
        pts1, pts2 = np.random.default_rng(5).uniform(x[8], x[-9], (2, 4000))
        want = sum(
            unit * RectBivariateSpline(x, x, part, kx=3, ky=3)(pts1, pts2, grid=False)
            for unit, part in ((1.0, state.amps.real), (1j, state.amps.imag))
        )
        assert np.max(np.abs(_interpolate(state, pts1, pts2) - want)) < 1e-10

    def test_requires_qp_rep(self):
        state = _qqbar_gaussian()
        with pytest.raises(ValueError):
            evolve_liouville(state, HARMONIC, 0.1)

    def test_domain_exit_warns(self):
        state = _qp_gaussian(count=64, extent=3.0)
        with pytest.warns(DomainExitWarning):
            evolve_liouville(state, HARMONIC, 0.5)


class TestSplitStepEvolution:
    def test_unitary_1000_steps(self):
        state = _qqbar_gaussian()
        out = evolve_G(state, HARMONIC, 4.0, steps=1000)
        assert abs(out.norm() - 1.0) < 1e-10

    def test_requires_qqbar_rep(self):
        state = _qp_gaussian()
        with pytest.raises(ValueError):
            evolve_G(state, HARMONIC, 0.1, steps=10)

    def test_rejects_unsupported_exponent(self):
        state = _qqbar_gaussian()
        with pytest.raises(ValueError):
            evolve_G(state, MonomialPotential(1.0, 3.0), 0.1, steps=10)

    def test_product_state_stays_product(self):
        state = _qqbar_gaussian()
        with warnings.catch_warnings():
            # the quartic phase profile puts a harmless ~2e-4 tail near the
            # spectral fold on the default 128-point axis
            warnings.simplefilter("ignore", AliasingWarning)
            out = evolve_G(state, QUARTIC, 5.0, steps=600)
        assert schmidt(out).ratio < 1e-8

    def test_linear_potential_translates_difference_coordinate(self):
        # V(x1) - V(x2) = g (x1 - x2) for n=1: the evolution only applies
        # phases linear in x1 - x2, shifting the conjugate variable
        state = _qqbar_gaussian()
        lin = MonomialPotential(1.0, 1.0)
        out = evolve_G(state, lin, 1.5, steps=300)
        assert abs(out.norm() - 1.0) < 1e-10
        assert schmidt(out).ratio < 1e-8

    @pytest.mark.parametrize("steps", [1, 2, 37])
    def test_matches_unfused_strang_reference(self, steps):
        # an entangled (non-product) state, so the check sees both axes'
        # phases and transforms mixed, not just two independent 1-d runs
        ax = GridAxis(0.0, 8.0, 64)
        state = _entangled(ax, ax)
        out = _evolve_quiet(state, QUARTIC, 0.3, steps)
        assert np.max(np.abs(out.amps - _unfused_strang(state, QUARTIC, 0.3, steps))) < 1e-12

    @pytest.mark.parametrize("steps", [1, 37])
    @pytest.mark.parametrize("count2", [32, 64])
    def test_matches_reference_on_unequal_axes(self, count2, steps):
        # axis2 != axis1: the Qbar propagator is built on its own axis
        # instead of reusing the Q propagator
        state = _entangled(GridAxis(0.0, 8.0, 64), GridAxis(0.0, 6.0, count2))
        out = _evolve_quiet(state, QUARTIC, 0.3, steps)
        assert np.max(np.abs(out.amps - _unfused_strang(state, QUARTIC, 0.3, steps))) < 1e-12

    def test_matches_reference_at_long_step_count(self):
        ax = GridAxis(0.0, 8.0, 32)
        state = _entangled(ax, ax)
        out = _evolve_quiet(state, QUARTIC, 2.0, 400)
        assert np.max(np.abs(out.amps - _unfused_strang(state, QUARTIC, 2.0, 400))) < 1e-12

    def test_matches_reference_entangled_256_long_run(self):
        # the suite's qg-separability call (t = 5, 600 steps) on the 256^2
        # grid of the benchmark, with an entangled state
        ax = GridAxis(0.0, 8.0, 256)
        state = _entangled(ax, ax)
        out = _evolve_quiet(state, QUARTIC, 5.0, 600)
        assert np.max(np.abs(out.amps - _unfused_strang(state, QUARTIC, 5.0, 600))) < 1e-12

    def test_propagator_matches_step_loop_at_near_degenerate_phases(self):
        # the suite's qg-unitary call at 256^2: here eigh(Re U + c Im U)
        # alone nearly merges two eigenphases and leaves the propagator
        # ~1.5e-11 from the loop; the cluster re-diagonalisation fixes it
        ax = GridAxis(0.0, 8.0, 256)
        prop = _strang_propagator(ax, QUARTIC, 0.5, 2.0 / 400, 400)
        assert np.max(np.abs(prop - _step_loop_propagator(ax, QUARTIC, 0.5, 2.0, 400))) < 1e-12

    @pytest.mark.parametrize("t, steps", [(2.0, 400), (5.0, 600)])
    @pytest.mark.parametrize("n", GRID_EXPONENTS)
    @pytest.mark.parametrize("count", [128, 256])
    def test_propagator_unitary(self, count, n, t, steps):
        # the grids of the suites, demo 04 and the benchmark
        ax = GridAxis(0.0, 8.0, count)
        prop = _strang_propagator(ax, MonomialPotential(1.0, float(n)), 0.5, t / steps, steps)
        assert np.max(np.abs(prop @ prop.conj().T - np.eye(count))) < 1e-13

    @pytest.mark.parametrize("steps", [0, -3, 400.0, 2.5, "400", True, False])
    def test_rejects_bad_step_counts(self, steps):
        with pytest.raises(ValueError):
            evolve_G(_qqbar_gaussian(count=32), QUARTIC, 0.1, steps=steps)

    def test_accepts_numpy_integer_steps(self):
        state = _qqbar_gaussian(count=32)
        out = _evolve_quiet(state, QUARTIC, 0.1, np.int64(3))
        assert np.array_equal(out.amps, _evolve_quiet(state, QUARTIC, 0.1, 3).amps)

    @pytest.mark.parametrize("steps", [1, 5])
    def test_input_amplitudes_untouched(self, steps):
        state = _qqbar_gaussian(count=64)
        before = state.amps.copy()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", AliasingWarning)
            out = evolve_G(state, QUARTIC, 0.5, steps=steps)
        assert np.array_equal(state.amps, before)
        assert not np.shares_memory(out.amps, state.amps)

    def test_quartic_norm_at_roundoff(self):
        # the suite's qg-unitary call on the default 128^2 grid: fusing the
        # half phases must not add accumulated roundoff (4.0e-14 measured)
        state = _qqbar_gaussian()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", AliasingWarning)
            out = evolve_G(state, QUARTIC, 2.0, steps=400)
        assert abs(out.norm() - 1.0) < 1e-13

    def test_aliasing_warns_when_underresolved(self):
        ax = GridAxis(0.0, 8.0, 32)
        state = make_separable(
            gaussian_profile(0.4, 1.0), gaussian_profile(-0.2, 0.7), ax, ax,
            rep=REP_QQBAR, hbar=0.5,
        )
        with pytest.warns(AliasingWarning):
            evolve_G(state, QUARTIC, 5.0, steps=200)

    def test_demo04_runs(self, tmp_path, run_python):
        out = run_python(str(REPO / "demos" / "04_grid_quantum_picture.py"), cwd=tmp_path)
        assert out.returncode == 0, out.stderr
        evolved = re.search(r"after quartic evolution .* Schmidt ratio (\S+)", out.stdout)
        remapped = re.search(r"alpha=0\.5: Schmidt ratio (\S+)", out.stdout)
        assert evolved and remapped, out.stdout
        assert float(evolved.group(1)) < 1e-8
        assert float(remapped.group(1)) > 1e-3


class TestClassicalLimit:
    def test_harmonic_center_follows_classical_orbit(self):
        # cross-correlated two-coordinate profile with a mean-momentum
        # phase; the first-moment dynamics must match the point orbit
        hbar = 0.2
        q0, p0, sq, sp_ = 0.8, 0.4, 0.7, 0.45
        ax = GridAxis(0.0, 8.0, 256)

        def prof(x1, x2):
            mid = 0.5 * (x1 + x2) - q0
            diff = x2 - x1
            return np.exp(
                -(mid**2) / (4.0 * sq**2)
                - sp_**2 * diff**2 / (4.0 * hbar**2)
                - 1j * p0 * diff / hbar
            )

        state = GridState2D(ax, ax, prof(*_grid(ax, ax)), REP_QQBAR, hbar).normalized()
        for t in (1.0, 2.5):
            out = evolve_G(state, HARMONIC, t, steps=500)
            mean_q = _mean(out, lambda x1, x2: 0.5 * (x1 + x2))
            target = q0 * math.cos(t) + p0 * math.sin(t)
            assert abs(mean_q - target) < 1e-3, t

    def test_initial_moments_match_construction(self):
        hbar = 0.2
        ax = GridAxis(0.0, 8.0, 256)

        def prof(x1, x2):
            mid = 0.5 * (x1 + x2) - 0.8
            diff = x2 - x1
            return np.exp(-(mid**2) / (4.0 * 0.7**2) - 0.45**2 * diff**2 / (4.0 * hbar**2))

        state = GridState2D(ax, ax, prof(*_grid(ax, ax)), REP_QQBAR, hbar).normalized()
        mean_q = _mean(state, lambda x1, x2: 0.5 * (x1 + x2))
        var_q = _mean(state, lambda x1, x2: (0.5 * (x1 + x2) - 0.8) ** 2)
        assert mean_q == pytest.approx(0.8, abs=1e-9)
        assert math.sqrt(var_q) == pytest.approx(0.7, rel=1e-3)


class TestSimilarityRemap:
    def test_product_state_entangles(self):
        out = apply_lms_unitary_harmonic(_qqbar_gaussian(), 0.5)
        assert schmidt(out).ratio > 1e-3

    @pytest.mark.parametrize("count", [128, 256])
    def test_schmidt_ratio_matches_mehler_closed_form(self, count):
        # the qg-lms-entangles state and alphas; the Fourier shears are
        # exact for the resolved Gaussians, and the ratio is off by
        # roundoff only (<= 7.8e-14 at 128^2, <= 6.4e-14 at 256^2)
        assert _mehler_ratio(0.5) == pytest.approx(0.480804902664, abs=1e-12)
        state = _qqbar_gaussian(count=count)
        for alpha in (0.1, 0.2, 0.3, 0.4, 0.5):
            ratio = schmidt(apply_lms_unitary_harmonic(state, alpha)).ratio
            assert abs(ratio - _mehler_ratio(alpha)) < 1e-12, alpha

    def test_matches_the_exact_image_on_unequal_axes(self):
        # off-centre axes of different widths and counts: the remapped
        # amplitude is the product profile at the mapped point (measured
        # error 2.1e-12, bicubic 2.1e-5)
        f1, f2 = gaussian_profile(0.3, 0.8), gaussian_profile(-0.2, 0.6)
        state = make_separable(
            f1, f2, GridAxis(0.5, 8.0, 128), GridAxis(-0.3, 7.0, 64), rep=REP_QQBAR, hbar=0.5,
        )
        alpha = 0.4
        out = apply_lms_unitary_harmonic(state, alpha)
        q, qbar = np.meshgrid(state.axis1.points(), state.axis2.points(), indexing="ij")
        ch, sh = math.cosh(alpha), math.sinh(alpha)
        exact = f1(ch * q + sh * qbar) * f2(sh * q + ch * qbar)
        # make_separable's normalisation, read off at the peak
        peak = np.unravel_index(np.argmax(np.abs(state.amps)), q.shape)
        exact = exact * state.amps[peak] / (f1(q[peak]) * f2(qbar[peak]))
        assert np.max(np.abs(out.amps - exact)) < 1e-10

    def test_readme_report_ratio_is_the_mehler_value(self, tmp_path, capsys):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({
            "suite": "all", "potential": {"g": 1.0, "n": 4.0},
            "lms": {"alpha": 1.3}, "seed": 17,
        }))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", AliasingWarning)
            assert cli.main(["run", str(scenario), "--out", str(tmp_path / "rep")]) == 0
        capsys.readouterr()
        report = json.loads((tmp_path / "rep" / "report.json").read_text())
        (check,) = [c for c in report["checks"] if c["id"] == "qg-lms-entangles"]
        assert abs(check["measured"]["schmidt_ratio"] - _mehler_ratio(0.5)) < 1e-12

    def test_separable_before(self):
        assert schmidt(_qqbar_gaussian()).ratio < 1e-12

    def test_norm_within_budget(self):
        out = apply_lms_unitary_harmonic(_qqbar_gaussian(), 0.5)
        assert abs(out.norm() - 1.0) < 1e-3

    @staticmethod
    def _off_center(q, qbar, width=0.4, qbar_width=None, count=64):
        ax = GridAxis(0.0, 6.0, count)
        return make_separable(
            gaussian_profile(q, width), gaussian_profile(qbar, qbar_width or width), ax, ax,
            rep=REP_QQBAR, hbar=0.5,
        )

    def test_support_exit_detected(self):
        # a state pushed far off-center leaves the grid under the remap
        with pytest.raises(SupportExit):
            apply_lms_unitary_harmonic(self._off_center(4.5, -4.5, 0.6), 1.5)

    def test_support_exit_in_the_middle_shear(self):
        # the first shear moves this narrow state along Q by tanh(1) Qbar,
        # under 1, and keeps it on the grid; the middle one moves it along
        # Qbar by sinh(2) Q, about 10.9, across the padded box of width 15.
        # A periodic shift wraps it round whole, and the last shear puts
        # the wrapped state back inside the grid with its norm intact, so
        # only the shear's own wrap test can see it go
        state = self._off_center(3.0, -0.5, 0.1, 0.2, count=256)
        with pytest.raises(SupportExit, match="shear 2 of 3"):
            apply_lms_unitary_harmonic(state, 2.0)

    def test_support_exit_in_the_padding(self):
        # every shear keeps this state inside the padded box, but its image
        # ends partly in the padding, which the cut back to the grid drops
        with pytest.raises(SupportExit, match="ends outside the grid"):
            apply_lms_unitary_harmonic(self._off_center(4.0, -1.0), 0.5)

    def test_quantum_leak_run_calls_no_domain_exit_warning(self, tmp_path, capsys, monkeypatch):
        # count every warn call qgrid makes, those a filter would silence
        # included: the remap has nothing to zero-fill, so neither emits
        # nor hides a DomainExitWarning
        calls = _WarnCalls()
        monkeypatch.setattr(qgrid, "warnings", calls)
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({
            "suite": "quantum-leak", "potential": {"g": 1.0, "n": 4.0}, "grid": {"count": 256},
        }))
        assert cli.main(["run", str(scenario), "--out", str(tmp_path / "rep")]) == 0
        capsys.readouterr()
        assert DomainExitWarning not in calls.categories

    def test_infinitesimal_consistency_fd(self):
        # fourth-order central difference of the remap in alpha against
        # the generator's first-order action on the profile
        state = _qqbar_gaussian(count=256)
        h = 1e-4

        def remap(a):
            return apply_lms_unitary_harmonic(state, a).amps

        deriv = (
            8.0 * (remap(h) - remap(-h)) - (remap(2.0 * h) - remap(-2.0 * h))
        ) / (12.0 * h)

        x1 = state.axis1.points()[:, None]
        x2 = state.axis2.points()[None, :]
        eps = 1e-6
        d1 = (
            8.0
            * (
                _resample(state, x1 + eps * x2, x2)
                - _resample(state, x1 - eps * x2, x2)
            )
            - (
                _resample(state, x1 + 2 * eps * x2, x2)
                - _resample(state, x1 - 2 * eps * x2, x2)
            )
        ) / (12.0 * eps)
        d2 = (
            8.0
            * (
                _resample(state, x1, x2 + eps * x1)
                - _resample(state, x1, x2 - eps * x1)
            )
            - (
                _resample(state, x1, x2 + 2 * eps * x1)
                - _resample(state, x1, x2 - 2 * eps * x1)
            )
        ) / (12.0 * eps)
        expected = d1 + d2
        bulk = (np.abs(x1) < 4.0) & (np.abs(x2) < 4.0)
        assert np.max(np.abs(deriv - expected)[bulk]) < 1e-6

    def test_requires_qqbar(self):
        with pytest.raises(ValueError):
            apply_lms_unitary_harmonic(_qp_gaussian(), 0.3)


class _WarnCalls:
    """Stands in for qgrid's ``warnings`` module and keeps the category of
    every ``warn`` call before the filters see it."""

    def __init__(self):
        self.categories = []

    def __getattr__(self, name):
        return getattr(warnings, name)

    def warn(self, message, category=UserWarning, stacklevel=1):
        self.categories.append(category)
        warnings.warn(message, category, stacklevel + 1)


def _resample(state, pts1, pts2):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DomainExitWarning)
        vals = _interpolate(
            state,
            np.broadcast_to(pts1, (state.axis1.count, state.axis2.count)),
            np.broadcast_to(pts2, (state.axis1.count, state.axis2.count)),
        )
    return vals


class TestSchmidt:
    def test_rank_one_ratio_zero(self):
        spec = schmidt(_qqbar_gaussian(count=64))
        assert spec.ratio < 1e-12
        assert spec.values[0] > 0

    def test_weights_sum_to_norm_squared(self):
        state = _qqbar_gaussian(count=64)
        spec = schmidt(state)
        assert np.sum(spec.values**2) == pytest.approx(1.0, abs=1e-10)

    def test_known_two_term_superposition(self):
        # amplitudes (2 f g + 1 g f)/sqrt(5) with nearly orthogonal f, g
        # give singular values 2/sqrt(5) and 1/sqrt(5): ratio 0.5
        ax = GridAxis(0.0, 6.0, 128)
        f = gaussian_profile(1.5, 0.4)(ax.points())
        g = gaussian_profile(-1.5, 0.4)(ax.points())
        f = f / np.sqrt(np.sum(np.abs(f) ** 2) * ax.dx)
        g = g / np.sqrt(np.sum(np.abs(g) ** 2) * ax.dx)
        amps = 2.0 * np.outer(f, g) + np.outer(g, f)
        state = GridState2D(ax, ax, amps / np.sqrt(5.0), REP_QQBAR, 1.0)
        spec = schmidt(state)
        assert spec.ratio == pytest.approx(0.5, abs=1e-3)
