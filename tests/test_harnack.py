import numpy as np
import pytest

import hypoflow as hf


def heat_kernel_1d(x, t):
    """Kernel of u_t = u_xx from the pole (0, 0)."""
    return (4 * np.pi * t) ** -0.5 * np.exp(-(x**2) / (4 * t))


class TestChainParams:
    def test_validation(self):
        hf.ChainParams()
        for bad in (
            dict(M=1.0),
            dict(h=0.0),
            dict(c=1.0),
            dict(theta=0.0),
        ):
            with pytest.raises(ValueError):
                hf.ChainParams(**bad)


class TestParabolicChain:
    def test_same_spatial_point(self):
        # endpoint inside the first paraboloid: two-point chain
        chain = hf.build_parabolic_chain([0.0], 1.0, [0.0], 0.9, hf.ChainParams())
        assert chain.k == 0
        assert chain.points.shape == (2, 2)
        assert chain.bound_exponent == 1

    def test_short_hop_inside(self):
        chain = hf.build_parabolic_chain([0.0], 1.0, [0.1], 0.9, hf.ChainParams(c=0.5))
        assert chain.k == 0

    def test_proof_bound_example(self):
        # |x0-x|^2/(t0-t) = 8 -> at most 8 intermediate links
        chain = hf.build_parabolic_chain(
            [0.0], 1.0, [2.0], 0.5, hf.ChainParams(theta=0.6)
        )
        assert chain.k <= 8

    def test_precondition(self):
        with pytest.raises(ValueError):
            hf.build_parabolic_chain([0.0], 1.0, [1.0], 0.4, hf.ChainParams(theta=0.5))
        with pytest.raises(ValueError):
            hf.build_parabolic_chain([0.0], 1.0, [1.0], 1.0, hf.ChainParams())

    def test_link_geometry(self, rng):
        # every constructed link satisfies |dx|^2 <= dt <= c r^2
        for _ in range(200):
            dim = rng.integers(1, 4)
            x0 = rng.standard_normal(dim)
            t0 = 1.0 + abs(rng.standard_normal())
            theta = 0.6
            dt = rng.uniform(0.05, 0.95) * theta * t0
            x = x0 + rng.standard_normal(dim) * 1.5
            t = t0 - dt
            chain = hf.build_parabolic_chain(x0, t0, x, t, hf.ChainParams(theta=theta))
            pts = chain.points
            r_sq = t
            for j in range(len(pts) - 1):
                step_dt = pts[j, -1] - pts[j + 1, -1]
                step_dx = np.sum((pts[j + 1, :-1] - pts[j, :-1]) ** 2)
                assert step_dx <= step_dt * (1 + 1e-9) + 1e-15
                assert step_dt <= 0.5 * r_sq * (1 + 1e-9)

    def test_k_bound_grid(self, rng):
        # k <= ceil(|x-x0|^2/(t0-t)) + 1 across a 10^3-pair grid at the
        # default (theta, c) pairing, which guarantees the bound
        params = hf.ChainParams()
        count = 0
        for d in np.linspace(0.0, 3.0, 10):
            for t0 in np.linspace(1.0, 3.0, 10):
                for frac in np.linspace(0.05, 0.95, 10):
                    dt = frac * params.theta * t0
                    chain = hf.build_parabolic_chain([0.0], t0, [d], t0 - dt, params)
                    bound = int(np.ceil(d**2 / dt)) + 1
                    assert chain.k <= bound
                    count += 1
        assert count == 1000

    def test_no_sliver_link(self):
        # 1e5 equal links of dlam = 1e-5: an accumulated parameter sum used to
        # fall short of 1 - dlam and add a 1e-12 link before the target
        chain = hf.build_parabolic_chain([0.0], 2.0, [np.sqrt(5e4)], 1.5, hf.ChainParams())
        assert chain.k == 99_999
        np.testing.assert_allclose(np.diff(chain.points[:, -1]), -5e-6, rtol=1e-9)

    def test_monotonicity_in_distance(self):
        params = hf.ChainParams(theta=0.6)
        ks = []
        for d in np.linspace(0.0, 4.0, 60):
            ks.append(hf.build_parabolic_chain([0.0], 1.0, [d], 0.5, params).k)
        assert all(b >= a for a, b in zip(ks, ks[1:]))

    def test_monotonicity_in_time_gap(self):
        # along a fine sweep of t0 - t, k never jumps by more than one
        params = hf.ChainParams(theta=0.9)
        ks = []
        for dt in np.linspace(0.05, 0.88, 300):
            ks.append(hf.build_parabolic_chain([0.0], 1.0, [1.5], 1.0 - dt, params).k)
        assert all(b <= a + 1 for a, b in zip(ks, ks[1:]))


class TestPathChain:
    def test_zero_cost(self):
        ctrl = hf.constant_control([0.0], 1.0)
        path = hf.integrate_path(hf.KOLMOGOROV, [1.0, 0.0, 1.0], ctrl, 0.01)
        chain = hf.build_path_chain(hf.KOLMOGOROV, path, hf.ChainParams(h=1.0))
        assert chain.k <= 1
        assert chain.source == "control-path"

    def test_cost_three(self):
        # Phi = 3 with h = 1: at most 4 intermediate links
        ctrl = hf.ControlPath([0.0, 1.0, 2.0, 3.0], [[1.0], [-1.0], [1.0]])
        path = hf.integrate_path(hf.KOLMOGOROV, [0.0, 0.0, 3.0], ctrl, 0.01)
        assert hf.path_cost(ctrl) == pytest.approx(3.0)
        chain = hf.build_path_chain(hf.KOLMOGOROV, path, hf.ChainParams(h=1.0))
        assert chain.k <= 4
        # chain points are path samples
        for pt in chain.points:
            idx = np.argmin(np.abs(path.samples[:, -1] - pt[-1]))
            np.testing.assert_allclose(path.samples[idx], pt, atol=1e-12)

    def test_optimal_kolmogorov_chain(self):
        z0, z1 = np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.5, 0.0])
        ctrl = hf.optimal_control_kolmogorov(z0, z1, n_intervals=512)
        path = hf.integrate_path(hf.KOLMOGOROV, z0, ctrl, 1.0 / 512)
        chain = hf.build_path_chain(hf.KOLMOGOROV, path, hf.ChainParams(h=0.5))
        assert chain.k <= 3
        # cumulative costs are recorded along the chain
        assert chain.cum_costs[0] == 0.0
        assert chain.cum_costs[-1] == pytest.approx(1.0, rel=1e-6)


class TestChainLowerBound:
    def test_trivial_values(self):
        chain = hf.HarnackChain(np.array([[0.0, 1.0], [0.0, 0.5]]), k=0, source="segment")
        assert hf.chain_lower_bound(chain, hf.ChainParams(M=2.0), 1.0) == 0.5
        pts = np.array([[0.0, 1.0], [0.0, 0.8], [0.0, 0.6], [0.0, 0.5], [0.0, 0.4]])
        chain3 = hf.HarnackChain(pts, k=3, source="segment")
        assert hf.chain_lower_bound(chain3, hf.ChainParams(M=2.0), 16.0) == 1.0

    def test_exponent_dominates_cost_form(self):
        # for a path chain, bound >= u * M^-(1 + Phi/h)
        z0, z1 = np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.5, 0.0])
        ctrl = hf.optimal_control_kolmogorov(z0, z1, n_intervals=512)
        path = hf.integrate_path(hf.KOLMOGOROV, z0, ctrl, 1.0 / 512)
        params = hf.ChainParams(M=8.0, h=0.5)
        chain = hf.build_path_chain(hf.KOLMOGOROV, path, params)
        phi = hf.path_cost(ctrl)
        floor = 1.0 * params.M ** -(1.0 + phi / params.h)
        assert hf.chain_lower_bound(chain, params, 1.0) >= floor * (1 - 1e-9)

    def test_soundness_against_heat_kernel(self):
        # with M set to the exact per-step Harnack ratio, the certified bound
        # never exceeds the true kernel value at the chain end
        params0 = hf.ChainParams(theta=0.75)
        checked = 0
        for d in np.linspace(0.0, 2.5, 10):
            for t0 in np.linspace(1.0, 2.5, 10):
                for frac in np.linspace(0.1, 0.9, 10):
                    dt = frac * params0.theta * t0
                    chain = hf.build_parabolic_chain([0.0], t0, [d], t0 - dt, params0)
                    vals = heat_kernel_1d(chain.points[:, 0], chain.points[:, 1])
                    ratios = vals[:-1] / vals[1:]
                    m_exact = max(float(ratios.max()), 1.0 + 1e-12)
                    params = hf.ChainParams(M=m_exact, theta=params0.theta)
                    bound = hf.chain_lower_bound(params=params, chain=chain, u_at_start=vals[0])
                    assert bound <= vals[-1] * (1 + 1e-9)
                    checked += 1
        assert checked == 1000
