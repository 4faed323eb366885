import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

import hypoflow as hf
from hypoflow.heisenberg import cc_distance_batch, cc_distance_brute


def spatial_compose(p, q):
    """Heisenberg product on the spatial (x, y, w) coordinates."""
    return np.array([
        p[0] + q[0],
        p[1] + q[1],
        p[2] + q[2] + 0.5 * (p[0] * q[1] - p[1] * q[0]),
    ])


def spatial_inverse(p):
    return -np.asarray(p)


def mp_distance(target):
    """d(0, target) at 30 digits: bisection for the arc angle c in [0, 2 pi]."""
    with mp.workdps(30):
        x, y, w = (mp.mpf(float(v)) for v in target)
        rho, area = mp.sqrt(x * x + y * y), abs(w)
        lo, hi = mp.mpf(0), 2 * mp.pi
        for _ in range(110):
            mid = (lo + hi) / 2
            if (mid - mp.sin(mid)) / (8 * mp.sin(mid / 2) ** 2) < area / rho**2:
                lo = mid
            else:
                hi = mid
        c = (lo + hi) / 2
        if c < mp.pi:
            return float(rho * c / (2 * mp.sin(c / 2)))
        return float(c * mp.sqrt(2 * area / (c - mp.sin(c))))


class TestDistance:
    def test_horizontal_segment(self):
        res = hf.cc_distance(np.zeros(3), np.array([1.0, 0.0, 0.0]))
        assert res.distance == pytest.approx(1.0, abs=1e-9)
        assert res.solver == "closed-form"

    def test_planar_targets(self, rng):
        # no vertical displacement: distance is the Euclidean norm
        pts = rng.standard_normal((100, 2)) * 1.5
        targets = np.column_stack([pts, np.zeros(100)])
        d, resid = cc_distance_batch(targets)
        np.testing.assert_allclose(d, np.hypot(pts[:, 0], pts[:, 1]), atol=1e-6)
        assert resid.max() < 1e-8

    def test_vertical_target(self):
        # full-circle geodesics: d(0, (0,0,w)) = sqrt(4 pi |w|)
        res = hf.cc_distance(np.zeros(3), np.array([0.0, 0.0, 1.0]))
        assert res.distance == pytest.approx(np.sqrt(4 * np.pi), rel=1e-6)
        # next to the axis d = sqrt(4 pi |w|) - rho + O(rho^2), here sqrt(4 pi) - 1e-12
        res = hf.cc_distance(np.zeros(3), np.array([1e-12, 0.0, 1.0]))
        assert res.solver == "closed-form"
        assert res.distance == pytest.approx(np.sqrt(4 * np.pi) - 1e-12, abs=1e-14)

    def test_extreme_targets_match_reference(self, rng):
        # log-uniform rho and |w| over 16 decades reach both ends of the arc angle range
        n = 400
        rho = 10.0 ** rng.uniform(-15, 1, n)
        wabs = 10.0 ** rng.uniform(-15, 1, n)
        phi = rng.uniform(0, 2 * np.pi, n)
        targets = np.column_stack(
            [rho * np.cos(phi), rho * np.sin(phi), rng.choice([-1.0, 1.0], n) * wabs]
        )
        d, resid = cc_distance_batch(targets)
        ref = np.array([mp_distance(t) for t in targets])
        np.testing.assert_allclose(d, ref, rtol=1e-13)
        lam = np.maximum(rho, 2 * np.sqrt(wabs))
        assert np.all(resid <= 1e-12 * np.maximum(1.0, lam))

    def test_dilation_homogeneity(self, rng):
        targets = rng.standard_normal((50, 3))
        base = cc_distance_batch(targets).distance
        for rho in (0.5, 2.0):
            scaled = np.column_stack(
                [rho * targets[:, 0], rho * targets[:, 1], rho**2 * targets[:, 2]]
            )
            d = cc_distance_batch(scaled).distance
            np.testing.assert_allclose(d, rho * base, rtol=1e-12)

    def test_left_invariance(self, rng):
        # d(z0 o p, z0 o q) = d(p, q) on 10^3 random triples
        n = 1000
        ps = rng.standard_normal((n, 3))
        qs = rng.standard_normal((n, 3))
        z0s = rng.standard_normal((n, 3))
        t_base = np.array([spatial_compose(spatial_inverse(p), q) for p, q in zip(ps, qs)])
        t_shift = np.array([
            spatial_compose(
                spatial_inverse(spatial_compose(z, p)), spatial_compose(z, q)
            )
            for p, q, z in zip(ps, qs, z0s)
        ])
        d1 = cc_distance_batch(t_base).distance
        d2 = cc_distance_batch(t_shift).distance
        np.testing.assert_allclose(d1, d2, atol=1e-6, rtol=1e-7)

    def test_symmetry(self, rng):
        n = 1000
        ps = rng.standard_normal((n, 3))
        qs = rng.standard_normal((n, 3))
        fw = np.array([spatial_compose(spatial_inverse(p), q) for p, q in zip(ps, qs)])
        bw = np.array([spatial_compose(spatial_inverse(q), p) for p, q in zip(ps, qs)])
        d1 = cc_distance_batch(fw).distance
        d2 = cc_distance_batch(bw).distance
        np.testing.assert_allclose(d1, d2, atol=1e-9, rtol=1e-12)

    def test_triangle_inequality(self, rng):
        n = 1000
        ps = rng.standard_normal((n, 3))
        qs = rng.standard_normal((n, 3))
        rs = rng.standard_normal((n, 3))
        pq = np.array([spatial_compose(spatial_inverse(p), q) for p, q in zip(ps, qs)])
        qr = np.array([spatial_compose(spatial_inverse(q), r) for q, r in zip(qs, rs)])
        pr = np.array([spatial_compose(spatial_inverse(p), r) for p, r in zip(ps, rs)])
        d_pq = cc_distance_batch(pq).distance
        d_qr = cc_distance_batch(qr).distance
        d_pr = cc_distance_batch(pr).distance
        assert np.all(d_pr <= d_pq + d_qr + 1e-8)

    def test_distance_dominates_planar_norm(self, rng):
        targets = rng.standard_normal((200, 3))
        d = cc_distance_batch(targets).distance
        assert np.all(d >= np.hypot(targets[:, 0], targets[:, 1]) - 1e-9)

    def test_geodesic_control_reintegrates(self, rng):
        for _ in range(8):
            q = rng.standard_normal(3)
            res = hf.cc_distance(np.zeros(3), q)
            step = res.control.grid[1] - res.control.grid[0]
            path = hf.integrate_path(hf.HEISENBERG, [0.0, 0.0, 0.0, 1.0], res.control, step)
            np.testing.assert_allclose(path.endpoint[:3], q, atol=1e-6)
            # constant-norm control realizes length = sqrt(cost)
            assert hf.path_length(res.control) == pytest.approx(res.distance, rel=1e-8)

    def test_shooting_vs_brute_force(self, rng):
        # independent optimization oracle within 1%
        n = 100
        targets = rng.uniform(-2, 2, size=(n, 3))
        d_arc = cc_distance_batch(targets).distance
        for i in range(n):
            d_brute, _, _ = cc_distance_brute(np.zeros(3), targets[i], seed=i)
            assert abs(d_brute - d_arc[i]) / d_arc[i] < 0.01

    def test_brute_endpoint_and_jacobian(self, rng):
        from hypoflow.heisenberg import _pc_endpoint

        m, dt = 20, 0.05
        flat = rng.standard_normal(2 * m)
        end, jac = _pc_endpoint(flat.reshape(m, 2), dt)
        # interval-by-interval reference: x, y linear, w gains the swept area
        x = y = w = 0.0
        for u, v in flat.reshape(m, 2):
            w += 0.5 * dt * ((x + 0.5 * u * dt) * v - (y + 0.5 * v * dt) * u)
            x, y = x + u * dt, y + v * dt
        np.testing.assert_allclose(end, [x, y, w], rtol=1e-13, atol=1e-15)
        h = 1e-6
        fd = np.column_stack([
            (_pc_endpoint((flat + h * e).reshape(m, 2), dt)[0]
             - _pc_endpoint((flat - h * e).reshape(m, 2), dt)[0]) / (2 * h)
            for e in np.eye(2 * m)
        ])
        np.testing.assert_allclose(jac, fd, atol=1e-9)

    def test_brute_blas_on_one_thread(self, monkeypatch):
        # SLSQP's BLAS runs on the calling thread only; the count is restored after
        import scipy.optimize

        from hypoflow import heisenberg

        count = heisenberg._scipy_blas_threads()[0]
        before, seen = count(), []
        real = scipy.optimize.minimize

        def spy(*args, **kwargs):
            seen.append(count())
            return real(*args, **kwargs)

        # the oracle imports minimize from scipy.optimize on each call
        monkeypatch.setattr(scipy.optimize, "minimize", spy)
        cc_distance_brute(np.zeros(3), np.array([0.5, 0.2, 0.1]))
        assert set(seen) == ({None} if before is None else {1})
        assert count() == before

    def test_cost_distance_link(self, rng):
        # minimal control energy at horizon T is d^2/T (constant-norm optimum)
        for i in range(5):
            q = rng.uniform(-1.5, 1.5, size=3)
            d = cc_distance_batch(q[None, :]).distance
            for T in (0.5, 1.0, 2.0):
                _, _, cost = cc_distance_brute(np.zeros(3), q, horizon=T, seed=i)
                assert cost == pytest.approx(d[0] ** 2 / T, rel=0.01)


class TestBallVolume:
    def test_scaling(self):
        assert hf.ball_volume(2.0, 0.7) == pytest.approx(16 * 0.7)
        assert hf.ball_volume(1.0, 0.7) == pytest.approx(0.7)
        with pytest.raises(ValueError):
            hf.ball_volume(-1.0, 0.7)

    def test_monte_carlo_estimate(self):
        vol, ci = hf.estimate_unit_ball_volume(n=40000, seed=7)
        assert ci / vol <= 0.01
        # inside the sampling cylinder rho <= 1, |w| <= 1/(2 pi), below its volume
        assert 0.0 < vol < 1
        # |B_1| = int 2 pi rho 2|w| d rho over the unit sphere's profile
        # rho(c) = 2 sin(c/2)/c, w(c) = (c - sin c)/(2 c^2), c in [0, 2 pi]
        def shell(c):
            rho = 2 * np.sin(c / 2) / c
            drho = (c * np.cos(c / 2) - 2 * np.sin(c / 2)) / c**2
            return -4 * np.pi * rho * (c - np.sin(c)) / (2 * c**2) * drho

        exact, _ = quad(shell, 0.0, 2 * np.pi)
        assert vol == pytest.approx(exact, abs=3 * ci)


class TestEnvelope:
    def test_diagonal(self):
        val = hf.cc_envelope("lower", (2.0, 1.0), np.zeros(3), 1.5, np.zeros(3), 0.5, unit_volume=0.8)
        assert val == pytest.approx(2.0 / (0.8 * 1.0**4), rel=1e-12)

    def test_rate_zero(self):
        val = hf.cc_envelope("upper", (1.0, 0.0), np.array([3.0, 1.0, 0.2]), 2.0,
                             np.zeros(3), 1.0, unit_volume=0.5)
        assert val == pytest.approx(1.0 / 0.5, rel=1e-12)

    def test_diagonal_ratio_constant_in_time(self):
        for gap in (0.3, 1.0, 4.0):
            lo = hf.cc_envelope("lower", (1.0, 1.0), np.zeros(3), gap, np.zeros(3), 0.0, unit_volume=0.5)
            up = hf.cc_envelope("upper", (3.0, 1.0), np.zeros(3), gap, np.zeros(3), 0.0, unit_volume=0.5)
            assert up / lo == pytest.approx(3.0, rel=1e-12)

    def test_kernel_scaling_law(self, rng):
        # p_{lambda^2 t}(delta_lambda z) = lambda^-4 p_t(z), so the envelope
        # at lambda^2 gap between dilated points is lambda^-4 times its value
        def dil(lam, p):
            return np.array([lam * p[0], lam * p[1], lam * lam * p[2]])

        for _ in range(20):
            x, xi = rng.standard_normal(3), rng.standard_normal(3)
            gap, lam = rng.uniform(0.2, 3.0), rng.uniform(0.3, 3.0)
            side = "lower" if rng.random() < 0.5 else "upper"
            base = hf.cc_envelope(side, (1.7, 0.3), x, gap, xi, 0.0, unit_volume=0.4)
            scaled = hf.cc_envelope(side, (1.7, 0.3), dil(lam, x), lam**2 * gap,
                                    dil(lam, xi), 0.0, unit_volume=0.4)
            assert scaled == pytest.approx(lam**-4 * base, rel=1e-9)

    def test_precondition(self):
        with pytest.raises(ValueError):
            hf.cc_envelope("lower", (1.0, 1.0), np.zeros(3), 0.0, np.zeros(3), 1.0, unit_volume=0.5)
