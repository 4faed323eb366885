import math
import subprocess
import sys
import time
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate, optimize

import hypoflow as hf
from hypoflow.asian import (
    HJB_CANDIDATES,
    HJB_CONVENTION,
    AccuracyError,
    _kolm_residual_analytic,
)

PI_SQ = np.pi**2


def random_endpoints(rng, n, spread=0.8):
    out = []
    while len(out) < n:
        x1, x0 = np.exp(0.4 * rng.standard_normal(2))
        t1 = 1.0 + 0.5 * abs(rng.standard_normal())
        t0 = t1 - (0.6 + 0.5 * abs(rng.standard_normal()))
        dy = (t1 - t0) * np.sqrt(x1 * x0) * np.exp(spread * rng.standard_normal())
        y1 = rng.standard_normal()
        out.append(hf.AsianEndpoints(x1, y1, t1, x0, y1 + dy, t0))
    return out


def moderate_endpoints(rng, n):
    """Battery for FD residual checks: q within a factor ~2 of the drift
    locus and a bounded x-ratio keep the third derivatives O(10)."""
    out = []
    while len(out) < n:
        x1, x0 = np.exp(np.clip(0.3 * rng.standard_normal(2), -0.5, 0.5))
        t1 = 1.0 + 0.5 * abs(rng.standard_normal())
        t0 = t1 - (0.7 + 0.4 * abs(rng.standard_normal()))
        q = np.exp(np.clip(0.5 * rng.standard_normal(), -0.7, 0.7))
        dy = (t1 - t0) * np.sqrt(x1 * x0) * q
        y1 = rng.standard_normal()
        out.append(hf.AsianEndpoints(x1, y1, t1, x0, y1 + dy, t0))
    return out


def psi_reference(z, t):
    """yor_psi(z, t) along the real axis in mpmath, panels between the sine's zeros.

    The result is about e^{-pi^2/2t} times its O(1) integrand, so the working
    precision is 30 digits plus that cancellation; panels stop where the
    integrand falls below e^-120.
    """
    with mp.workdps(30 + math.ceil(PI_SQ / (2 * t * math.log(10)))):
        z, t = mp.mpf(z), mp.mpf(t)
        n = 1
        while z * mp.cosh(n * t) - n * t + n * n * t / 2 < 120:
            n += 1
        return mp.quad(lambda u: mp.exp(-u * u / (2 * t) - z * mp.cosh(u)) * mp.sinh(u)
                       * mp.sin(mp.pi * u / t), [k * t for k in range(n + 1)])


def yor_density_reference(x, y, t, x0, y0):
    """Yor's density from psi_reference at 30 + pi^2/(t ln 10) digits."""
    with mp.workdps(30 + math.ceil(PI_SQ / (t * math.log(10)))):
        x, y, t, x0, y0 = (mp.mpf(v) for v in (x, y, t, x0, y0))
        dy = y - y0
        psi = psi_reference(mp.sqrt(x * x0) / dy, t / 2)
        return float(mp.sqrt(x0) / (2 * mp.sqrt(x) * dy**2) * mp.exp(mp.pi**2 / t)
                     / (mp.pi * mp.sqrt(mp.pi * t)) * mp.exp(-(x + x0) / (2 * dy)) * psi)


def value_psi_reference(e):
    """Psi by the two-branch radicand formula, at 50 digits."""
    with mp.workdps(50):
        x1, y1, t1, x0, y0, t0 = (mp.mpf(v) for v in (e.x1, e.y1, e.t1, e.x0, e.y0, e.t0))
        T, dy = t1 - t0, y0 - y1
        q = dy / (T * mp.sqrt(x1 * x0))

        def g_mp(r):
            u = mp.sqrt(abs(r))
            return mp.sinh(u) / u if r > 0 else mp.sin(u) / u

        lo, hi = -mp.pi**2, mp.mpf(1)
        while g_mp(hi) < q:
            hi *= 2
        for _ in range(200):  # bisection to below 1e-50 relative
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if g_mp(mid) < q else (lo, mid)
        r = (lo + hi) / 2
        E = 4 * r / T**2
        sign = -1 if r >= -mp.pi**2 / 4 else 1
        return float(E * T + 4 * (x1 + x0) / dy + sign * 4 * mp.sqrt(E + 4 * x1 * x0 / dy**2))


class TestG:
    def test_values(self):
        assert hf.g(0.0) == 1.0
        assert hf.g(-PI_SQ / 4) == pytest.approx(2 / np.pi, rel=1e-12)
        assert hf.g(1.0) == pytest.approx(np.sinh(1.0), rel=1e-12)

    def test_continuity_at_zero(self):
        assert abs(hf.g(1e-8) - 1.0) <= 1e-8
        assert abs(hf.g(-1e-8) - 1.0) <= 1e-8

    def test_series_matches_closed_form(self):
        # both branches agree with the series at the switch-over scale
        for r in (9e-5, -9e-5, 1.2e-4, -1.2e-4):
            u = np.sqrt(abs(r))
            exact = np.sinh(u) / u if r > 0 else np.sin(u) / u
            assert hf.g(r) == pytest.approx(exact, rel=1e-13)

    def test_strict_monotonicity(self):
        grid = np.linspace(-PI_SQ + 1e-6, 100.0, 10_000)
        vals = np.array([hf.g(r) for r in grid])
        assert np.all(np.diff(vals) > 0)
        assert vals[0] < 1e-3 and vals[-1] > 1e2

    def test_domain_error(self):
        with pytest.raises(ValueError):
            hf.g(-PI_SQ)


class TestGInverse:
    def test_examples(self):
        assert hf.g_inverse(1.0) == 0.0
        assert hf.g_inverse(2 / np.pi) == pytest.approx(-PI_SQ / 4, abs=1e-8)

    def test_round_trip(self):
        for v in np.geomspace(1e-2, 1e2, 41):
            assert abs(hf.g(hf.g_inverse(v)) - v) <= 1e-10 * max(1.0, v)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            hf.g_inverse(0.0)

    def test_reports_a_miss(self):
        # r = -pi^2 (1 - 1e-15) used to come back for v = 1e-300, where g = 4.75e-14
        with pytest.raises(AccuracyError):
            hf.g_inverse(1e-300)
        r = hf.g_inverse(1e-4)
        assert math.pi - math.sqrt(-r) == pytest.approx(np.pi * 1e-4, rel=1e-3)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(-300.0, 300.0))
    @example(-300.0)
    @example(-16.0)
    @example(-15.0)
    @example(-7.0)
    @example(-6.0)
    @example(-1.0)
    @example(-1e-4)
    @example(1e-4)
    @example(8.0)
    @example(300.0)
    def test_round_trip_or_raise(self, log10_v):
        # near -pi^2, consecutive floats r give values of g more than 1e-10 v
        # apart, so there r need only lie within 4 ulps of the root; the call
        # may raise only where r rounds to -pi^2
        v = 10.0**log10_v
        try:
            r = hf.g_inverse(v)
        except AccuracyError:
            assert v < 1e-15
            return
        assert r > -PI_SQ
        if abs(hf.g(r) / v - 1) > 1e-10:
            step = 4 * math.ulp(r)
            assert v < 1e-5
            assert hf.g(max(r - step, math.nextafter(-PI_SQ, 0))) <= v <= hf.g(r + step)


class TestValuePsi:
    def test_zero_cost(self):
        e = hf.AsianEndpoints(1.0, 0.0, 1.0, 1.0, 1.0, 0.0)
        d = hf.value_psi_details(e)
        assert d["psi"] == pytest.approx(0.0, abs=1e-12)
        assert d["branch"] == "first"
        assert d["q"] == pytest.approx(1.0)

    def test_far_regime_ratio(self):
        # the printed far asymptotic converges only logarithmically: the exact
        # ratio at q=1e4 is 1.5264 (frozen); the limit statement itself is
        # verified at a magnitude where the expansion has converged
        q = 1e4
        e = hf.AsianEndpoints(1.0, 0.0, 1.0, 1.0, q, 0.0)
        ref = 4 * np.log(q) ** 2 + 4 * 2 / q
        assert hf.value_psi(e) / ref == pytest.approx(1.5264, abs=2e-3)
        ratios = []
        for q in (1e4, 1e8, 1e16, 1e50, 1e150, 1e300):
            e = hf.AsianEndpoints(1.0, 0.0, 1.0, 1.0, q, 0.0)
            ref = 4 * np.log(q) ** 2 + 4 * 2 / q
            ratios.append(hf.value_psi(e) / ref)
        assert all(b < a for a, b in zip(ratios, ratios[1:]))
        assert all(r > 1.0 for r in ratios)
        assert ratios[-1] == pytest.approx(1.0, abs=0.03)

    def test_near_regime_ratio(self):
        q = 1e-4
        e = hf.AsianEndpoints(1.0, 0.0, 1.0, 1.0, q, 0.0)
        ref = 4 * (1 + 1) ** 2 / q - 4 * PI_SQ / 1.0
        assert hf.value_psi(e) / ref == pytest.approx(1.0, abs=1e-6)

    def test_near_regime_below_round_trip_precision(self):
        # at q = 1e-7 no float r has g(r) within 1e-10 of q, but Psi needs r
        # only through E = 4r/T^2: Psi = 16/q - 4 pi^2 + O(q)
        e = hf.AsianEndpoints(1.0, 0.0, 1.0, 1.0, 1e-7, 0.0)
        assert hf.value_psi(e) == pytest.approx(16 / 1e-7 - 4 * PI_SQ, rel=1e-12)

    def test_radicand_nonnegative_and_psi_nonnegative(self, rng):
        for e in random_endpoints(rng, 10_000):
            d = hf.value_psi_details(e)
            T = e.horizon
            rad = d["E"] + 4 * e.x1 * e.x0 / (e.y0 - e.y1) ** 2
            algebraic = 4 / T**2 * (d["r"] + 1.0 / hf.g(d["r"]) ** 2)
            assert rad >= -1e-9
            assert rad == pytest.approx(algebraic, rel=1e-6, abs=1e-9)
            assert d["psi"] >= 0.0

    def test_zero_exactly_on_drift_locus(self, rng):
        # psi vanishes iff the zero-control path hits the endpoint
        for _ in range(200):
            x = np.exp(0.5 * rng.standard_normal())
            t1 = 1.0 + abs(rng.standard_normal())
            T = 0.4 + abs(rng.standard_normal())
            y1 = rng.standard_normal()
            ctrl = hf.constant_control([0.0], T)
            path = hf.integrate_path(hf.ASIAN, [x, y1, t1], ctrl, T / 64)
            drift_y = path.endpoint[1]
            e = hf.AsianEndpoints(x, y1, t1, x, drift_y, t1 - T)
            assert hf.value_psi(e) == pytest.approx(0.0, abs=1e-10)
            off = hf.AsianEndpoints(x, y1, t1, x, drift_y + 0.3, t1 - T)
            assert hf.value_psi(off) > 1e-3

    def test_group_invariance(self, rng):
        # left translation by (lam, mu, s): scale both x and y, shift times
        for e in random_endpoints(rng, 300):
            base = hf.value_psi(e)
            lam = np.exp(0.8 * rng.standard_normal())
            mu, s = rng.standard_normal(2)
            moved = hf.AsianEndpoints(
                lam * e.x1, lam * e.y1 + mu, e.t1 + s,
                lam * e.x0, lam * e.y0 + mu, e.t0 + s,
            )
            assert hf.value_psi(moved) == pytest.approx(base, rel=1e-10, abs=1e-10)

    def test_branch_continuity(self):
        # the two formulas agree where the radicand vanishes (r = -pi^2/4)
        q_star = 2 / np.pi
        for dq in (-1e-9, 0.0, 1e-9):
            e = hf.AsianEndpoints(1.0, 0.0, 1.0, 1.0, q_star + dq, 0.0)
            ref = hf.value_psi(hf.AsianEndpoints(1.0, 0.0, 1.0, 1.0, q_star, 0.0))
            assert hf.value_psi(e) == pytest.approx(ref, abs=1e-4)

    def test_high_precision_reference(self, rng):
        # near the branch switch q = 2/pi the radicand form cancels; the
        # single cosh/cos expression does not
        qs = np.concatenate([2 / np.pi * (1 + np.linspace(-1e-3, 1e-3, 21)),
                             np.geomspace(10**-15.5, 1e8, 48)])
        for q in qs:
            x1, x0 = np.exp(0.4 * rng.standard_normal(2))
            T = 0.5 + rng.random()
            e = hf.AsianEndpoints(x1, 0.0, 1.0 + T, x0, q * T * np.sqrt(x1 * x0), 1.0)
            assert hf.value_psi(e) == pytest.approx(value_psi_reference(e), rel=1e-13)

    def test_threshold_readings_reported(self):
        d = hf.value_psi_details(hf.AsianEndpoints(1.0, 0.0, 1.0, 1.0, 0.3, 0.0))
        assert {"branch_rule_r", "branch_rule_printed_E"} <= set(d)

    def test_brute_force_steering_oracle(self, rng):
        # independent check of the closed form: constrained minimization of
        # the control energy for the exact piecewise-flow dynamics
        def brute(e, m=20, seed=0):
            T = e.horizon
            dt = T / m

            def endpoint(om):
                x, y = e.x1, e.y1
                for k in range(m):
                    if abs(om[k]) > 1e-12:
                        y = y + x * np.expm1(om[k] * dt) / om[k]
                    else:
                        y = y + x * dt
                    x = x * np.exp(om[k] * dt)
                return np.array([x, y])

            res = optimize.minimize(
                lambda om: float(np.sum(om**2) * dt),
                np.full(m, np.log(e.x0 / e.x1) / T),
                method="SLSQP",
                constraints=[{
                    "type": "eq",
                    "fun": lambda om: endpoint(om) - np.array([e.x0, e.y0]),
                }],
                options={"maxiter": 300, "ftol": 1e-12},
            )
            assert res.success
            return float(np.sum(res.x**2) * dt)

        for i, e in enumerate(random_endpoints(rng, 4)):
            cost = brute(e, seed=i)
            assert cost == pytest.approx(hf.value_psi(e), rel=0.02, abs=1e-6)
        # explicit second-branch endpoints (r < -pi^2/4): the +sqrt variant
        for q in (0.5, 0.3):
            e = hf.AsianEndpoints(1.0, 0.0, 1.0, 1.0, q, 0.0)
            assert hf.value_psi_details(e)["branch"] == "second"
            cost = brute(e, m=30)
            # pc controls form a restricted class, so brute >= closed form
            assert cost >= hf.value_psi(e) - 1e-9
            assert cost == pytest.approx(hf.value_psi(e), rel=0.02)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            hf.AsianEndpoints(-1.0, 0.0, 1.0, 1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            hf.AsianEndpoints(1.0, 0.0, 1.0, 1.0, -1.0, 0.0)
        with pytest.raises(ValueError):
            hf.AsianEndpoints(1.0, 0.0, 0.0, 1.0, 1.0, 1.0)


class TestHJB:
    def test_calibration_unique_winner(self):
        winner, table = hf.calibrate_hjb_convention()
        assert winner == ("second", +1)
        assert table[winner] <= 1e-8
        for conv in HJB_CANDIDATES:
            if conv != winner:
                assert table[conv] > 1e-2

    def test_fixed_convention_is_the_calibrated_one(self):
        assert hf.calibrate_hjb_convention()[0] == HJB_CONVENTION

    def test_kolmogorov_residual_fd_matches_analytic(self, rng):
        # FD evaluation of the winning combination also vanishes to O(h^2)
        winner = ("second", +1)
        h = 1e-4
        residuals = []
        for _ in range(50):
            x, y, xi, eta = rng.standard_normal(4)
            t = 1.5 + abs(rng.standard_normal())
            tau = t - (0.5 + abs(rng.standard_normal()))
            base = np.array([x, y, t, xi, eta, tau])

            def d(i):
                e = np.zeros(6)
                e[3 + i] = h
                return (hf.psi0(*(base + e)) - hf.psi0(*(base - e))) / (2 * h)

            res = xi * d(1) - d(2) + 0.25 * d(0) ** 2
            residuals.append(abs(res))
        # O(h^2) noise floor: tiny in the median, bounded in the tail
        assert float(np.median(residuals)) < 1e-6
        assert max(residuals) < 1e-3
        assert _kolm_residual_analytic(winner, [(0.3, -0.2, 1.7, 0.5, 0.1, 0.2)]) < 1e-13

    def test_zero_cost_residual(self):
        e = hf.AsianEndpoints(1.0, 0.0, 1.0, 1.0, 1.0, 0.0)
        assert abs(hf.hjb_residual(e, 1e-4)) <= 1e-6

    def test_random_endpoints_residual(self, rng):
        worst = 0.0
        for e in moderate_endpoints(rng, 1000):
            worst = max(worst, abs(hf.hjb_residual(e, 1e-4)))
        assert worst <= 1e-4

    def test_richardson_factor(self, rng):
        # halving the step divides the residual by ~4 on generic endpoints
        factors = []
        for e in moderate_endpoints(rng, 60):
            r1 = hf.hjb_residual(e, 2e-4)
            r2 = hf.hjb_residual(e, 1e-4)
            if abs(r2) > 1e-12:
                factors.append(abs(r1) / abs(r2))
        assert 3.0 <= float(np.median(factors)) <= 5.0

    def test_losing_convention_is_large(self, rng):
        # the drift-flipped convention leaves an O(1) residual
        vals = [abs(hf.hjb_residual(e, 1e-4, convention=("second", -1)))
                for e in moderate_endpoints(rng, 50)]
        assert max(vals) > 0.1

    def test_stencil_domain_error(self):
        e = hf.AsianEndpoints(1.0, 0.0, 1.0, 1.0, 1e-5, 0.0)
        with pytest.raises(ValueError):
            hf.hjb_residual(e, 1e-3)


class TestYorPsi:
    def test_decay_in_z(self):
        assert abs(hf.yor_psi(50.0, 0.5)) < 1e-20
        assert abs(hf.yor_psi(1.0, 0.5)) > 1e-5

    def test_brute_force_reference(self):
        # 10^6-panel fixed-grid reference
        u = np.linspace(0.0, 40.0, 2_000_001)
        uc = np.clip(u, 0, 30)
        f = np.exp(-u**2 - np.cosh(uc)) * np.sinh(uc) * np.sin(np.pi * u / 0.5)
        ref = np.trapezoid(f, u)
        assert hf.yor_psi(1.0, 0.5, 1e-10) == pytest.approx(ref, abs=1e-9)

    def test_refinement_consistency(self):
        for z, t in ((0.3, 0.8), (2.0, 1.5), (1.0, 0.5)):
            a = hf.yor_psi(z, t, 1e-8)
            b = hf.yor_psi(z, t, 1e-13)
            assert a == pytest.approx(b, abs=1e-8)

    def test_small_t_branch(self):
        # times where the real-axis integral cancels to e^{-pi^2/2t}
        for z, t in ((1.0, 0.5), (0.7, 0.35)):
            a = hf.yor_psi(z, t)
            b = float(psi_reference(z, t))
            assert a == pytest.approx(b, rel=1e-7)
        assert np.isfinite(hf.yor_psi(1.0, 0.27, 1e-13))

    def test_slow_decay_refused(self):
        # the integrand still matters past Re u = 300, where e^u nears the float range
        for z, t in ((1e-300, 1.0), (1e-6, 1e5)):
            with pytest.raises(AccuracyError):
                hf.yor_psi(z, t)

    def test_unreachable_tol_raises(self):
        # no two estimates differ by less than 0: the last one used to come back silently
        with pytest.raises(AccuracyError):
            hf.yor_psi(1.0, 0.5, 0.0)

    def test_domain(self):
        with pytest.raises(ValueError):
            hf.yor_psi(-1.0, 0.5)
        with pytest.raises(ValueError):
            hf.yor_psi(1.0, 0.0)


class TestYorDensity:
    def test_support(self):
        assert hf.yor_density(1.0, -0.5, 1.0, 1.0, 0.0) == 0.0
        assert hf.yor_density(1.0, 0.0, 1.0, 1.0, 0.0) == 0.0
        assert hf.yor_density(1.0, 0.5, 1.0, 1.0, 0.0) > 0.0

    def test_time_window(self):
        with pytest.raises(AccuracyError):
            hf.yor_density(1.0, 0.5, 0.1, 1.0, 0.0)
        with pytest.raises(AccuracyError):
            hf.yor_density(1.0, 0.5, 5.0, 1.0, 0.0)
        assert hf.yor_density(1.0, 0.5, 0.25, 1.0, 0.0) >= 0.0

    def test_domain(self):
        with pytest.raises(ValueError):
            hf.yor_density(-1.0, 0.5, 1.0, 1.0, 0.0)

    @pytest.mark.parametrize("t", [0.25, 0.3, 0.4, 0.5, 0.6, 1.0, 2.0, 4.0])
    def test_high_precision_reference(self, t):
        for k, z in enumerate(np.geomspace(0.02, 30.0, 7)):
            x = (1.0, 2.5)[k % 2]
            pt = (x, 0.3 + np.sqrt(x) / z, t, 1.0, 0.3)
            want = yor_density_reference(*pt)
            cost = np.inf
            for _ in range(3):
                start = time.perf_counter()
                got = hf.yor_density(*pt)
                cost = min(cost, time.perf_counter() - start)
            assert abs(got - want) <= 1e-9 * want + 1e-12, (pt, got, want)
            assert cost <= 1e-3, (pt, cost)

    def test_no_mpmath_import(self):
        code = ("import sys, hypoflow; hypoflow.yor_density(1.0, 0.5, 0.3, 1.0, 0.0); "
                "print('mpmath' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"

    def test_mass_is_one(self):
        # 2-D quadrature oracle at t=1, start (1, 0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", integrate.IntegrationWarning)

            def inner(y):
                val, _ = integrate.quad(
                    lambda lx: hf.yor_density(np.exp(lx), y, 1.0, 1.0, 0.0) * np.exp(lx),
                    -8.0, 8.0, limit=200,
                )
                return val

            mass, _ = integrate.quad(inner, 0.0, 60.0, limit=200)
        assert mass == pytest.approx(1.0, abs=0.01)

    def test_ks_against_simulation(self):
        # Y-marginal CDF vs 10^5 Euler-Maruyama paths
        batch = hf.euler_maruyama(
            hf.ASIAN, [1.0, 0.0], 1.0, 1e-3, 100_000, seed=11, variant="sqrt2-half"
        )
        ys = np.sort(batch.endpoints[:, 1])
        y_grid = np.linspace(1e-3, 12.0, 241)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", integrate.IntegrationWarning)
            marg = [
                integrate.quad(
                    lambda lx: hf.yor_density(np.exp(lx), y, 1.0, 1.0, 0.0) * np.exp(lx),
                    -8.0, 8.0, limit=100,
                )[0]
                for y in y_grid
            ]
        cdf_model = integrate.cumulative_trapezoid(marg, y_grid, initial=0.0)
        cdf_emp = np.searchsorted(ys, y_grid, side="right") / ys.size
        ks = np.max(np.abs(cdf_model - cdf_emp))
        assert ks <= 0.02


class TestVarianceFormulas:
    def test_printed_values(self):
        var_x, var_y, _, _ = hf.variance_formulas(1.0, 1.0)
        assert var_x == pytest.approx(np.exp(2) * (np.exp(2) - 1), rel=1e-12)
        assert var_x == pytest.approx(47.2091, abs=1e-4)

    def test_small_t_ratios(self):
        var_x, _, small_x, _ = hf.variance_formulas(1.0, 1e-4)
        assert var_x / small_x == pytest.approx(1.0, abs=1e-3)
        _, var_y, _, small_y = hf.variance_formulas(1.0, 1e-3)
        assert var_y / small_y == pytest.approx(1.0, abs=1e-2)

    def test_moment_oracle(self, rng):
        # Var X against the lognormal moments, Var Y against 2-D quadrature
        t, x0 = 0.7, 1.3
        var_x = hf.variance_formulas(x0, t)[0]
        assert var_x == pytest.approx(x0**2 * (np.exp(4 * t) - np.exp(2 * t)), rel=1e-12)
        ey2, _ = integrate.dblquad(
            lambda v, u: np.exp(u + v + 2 * min(u, v)), 0, t, lambda u: 0, lambda u: t
        )
        ey = np.expm1(t)
        assert hf.variance_formulas(x0, t)[1] == pytest.approx(
            x0**2 * (ey2 - ey**2), rel=1e-6
        )


class TestAsianEnvelope:
    def test_outside_support_zero(self):
        val = hf.asian_envelope("lower", 0.1, (1.0, 1.0), 1.0, 2.0, 1.0, 1.0, 0.5, 0.0)
        assert val == 0.0

    def test_diagonal_prefactor(self):
        # endpoint whose shifted steering problem is exactly the drift path
        x0, gap, eps = 1.3, 0.8, 0.2
        y0 = 1.0
        y = y0 - x0 * gap
        val = hf.asian_envelope("lower", eps, (2.0, 1.0), x0, y, gap, x0, y0, 0.0)
        assert val == pytest.approx(2.0 / (x0**2 * gap**2), rel=1e-10)

    def test_ordering(self, rng):
        consts = (1.0, 1.0)
        count = 0
        while count < 1000:
            x = np.exp(0.4 * rng.standard_normal())
            x0 = np.exp(0.4 * rng.standard_normal())
            gap = 0.5 + abs(rng.standard_normal())
            eps = 0.2
            y0 = rng.standard_normal()
            y = y0 - x0 * (eps + 0.05 + abs(rng.standard_normal())) * gap
            lo = hf.asian_envelope("lower", eps, consts, x, y, gap, x0, y0, 0.0)
            up = hf.asian_envelope("upper", eps, consts, x, y, gap, x0, y0, 0.0)
            assert lo <= up * (1 + 1e-12)
            count += 1

    def test_malformed(self):
        with pytest.raises(ValueError):
            hf.asian_envelope("lower", 0.1, (1, 1), -1.0, 0.0, 1.0, 1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            hf.asian_envelope("lower", 1.5, (1, 1), 1.0, 0.0, 1.0, 1.0, 1.0, 0.0)
