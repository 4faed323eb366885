import math

import numpy as np
import pytest

import hypoflow as hf
from hypoflow.paths import DomainExitError

from conftest import all_models, random_point


def random_control(model, rng, horizon=1.0, n_intervals=4):
    grid = np.linspace(0.0, horizon, n_intervals + 1)
    vals = rng.standard_normal((n_intervals, model.n_controls))
    return hf.ControlPath(grid, vals)


class TestCostAndLength:
    def test_cost_examples(self):
        assert hf.path_cost(hf.constant_control([0.0, 0.0], 1.0)) == 0.0
        assert hf.path_cost(hf.constant_control([1.0, 0.0], 2.0)) == 2.0
        ctrl = hf.ControlPath([0.0, 0.5, 1.0], [[2.0], [0.0]])
        assert hf.path_cost(ctrl) == 2.0

    def test_length_examples(self):
        assert hf.path_length(hf.constant_control([0.0], 1.0)) == 0.0
        assert hf.path_length(hf.constant_control([3.0, 4.0], 1.0)) == 5.0

    def test_cauchy_schwarz(self, rng):
        for _ in range(300):
            n = rng.integers(1, 6)
            horizon = float(np.exp(rng.standard_normal()))
            grid = np.concatenate([[0.0], np.sort(rng.random(n - 1)) * horizon, [horizon]]) \
                if n > 1 else np.array([0.0, horizon])
            vals = rng.standard_normal((n, 2))
            ctrl = hf.ControlPath(grid, vals)
            ell, phi = hf.path_length(ctrl), hf.path_cost(ctrl)
            assert ell**2 <= phi * horizon * (1 + 1e-12)
        # equality iff the norm is constant
        ctrl = hf.ControlPath([0.0, 0.4, 1.0], [[3.0, 4.0], [-4.0, 3.0]])
        assert hf.path_length(ctrl) ** 2 == pytest.approx(hf.path_cost(ctrl) * 1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            hf.ControlPath([0.0, 0.0, 1.0], [[1.0], [1.0]])
        with pytest.raises(ValueError):
            hf.ControlPath([0.1, 1.0], [[1.0]])
        with pytest.raises(ValueError):
            hf.ControlPath([0.0, 1.0], [[np.inf]])


class TestIntegratePath:
    def test_kolmogorov_drift_only(self):
        ctrl = hf.constant_control([0.0], 1.0)
        path = hf.integrate_path(hf.KOLMOGOROV, [0, 0, 1], ctrl, 0.01)
        np.testing.assert_allclose(path.endpoint, [0, 0, 0], atol=1e-14)
        path = hf.integrate_path(hf.KOLMOGOROV, [1, 0, 1], ctrl, 0.01)
        np.testing.assert_allclose(path.endpoint, [1, 1, 0], atol=1e-13)

    def test_sample_times_exact(self):
        ctrl = hf.constant_control([0.5], 1.0)
        path = hf.integrate_path(hf.KOLMOGOROV, [0, 0, 0.7], ctrl, 0.125)
        times = path.samples[:, -1]
        np.testing.assert_array_equal(times, 0.7 - 0.125 * np.arange(9))

    def test_asian_drift(self):
        ctrl = hf.constant_control([0.0], 1.0)
        path = hf.integrate_path(hf.ASIAN, [1, -2.0, 3.0], ctrl, 0.01)
        np.testing.assert_allclose(path.endpoint, [1, -1.0, 2.0], atol=1e-13)

    def test_exact_flows_constant_control(self):
        # closed-form flows against hand-computed endpoints
        ctrl = hf.constant_control([0.3], 1.0)
        path = hf.integrate_path(hf.KOLMOGOROV, [0.5, -1.0, 2.0], ctrl, 1e-3)
        x = 0.5 + 0.3
        y = -1.0 + 0.5 + 0.3 / 2
        np.testing.assert_allclose(path.endpoint, [x, y, 1.0], rtol=1e-12)

        ctrl2 = hf.constant_control([0.4, -0.2], 1.0)
        path2 = hf.integrate_path(hf.HEISENBERG, [1.0, 2.0, 0.0, 1.0], ctrl2, 1e-3)
        # straight segment: w gains (x0 w2 - y0 w1)/2 * T since the linear
        # parts cancel symmetrically
        x, y = 1.0 + 0.4, 2.0 - 0.2
        w = 0.5 * (1.0 * (-0.2) - 2.0 * 0.4)
        np.testing.assert_allclose(path2.endpoint, [x, y, w, 0.0], atol=1e-12)

    def test_exact_endpoints(self):
        # the exponential and degree-5 flows, which a fixed-order integrator
        # misses at step 0.05, come out exact to roundoff
        ctrl = hf.ControlPath([0.0, 0.5, 1.0], [[1.0], [-0.6]])
        path = hf.integrate_path(hf.ASIAN, [2.0, 0.3, 1.0], ctrl, 0.05)
        x_mid, y_mid = 2.0 * np.exp(0.5), 0.3 + 2.0 * np.expm1(0.5)
        want = [x_mid * np.exp(-0.3), y_mid + x_mid * np.expm1(-0.3) / -0.6, 0.0]
        np.testing.assert_allclose(path.endpoint, want, rtol=1e-14, atol=1e-14)

        # iterated chain: x_j(s) = sum_{i<=j} x_i(0) s^(j-i)/(j-i)! + w s^j/j!
        def exact(x, w, s):
            return [sum(x[i] * s ** (j - i) / math.factorial(j - i) for i in range(j + 1))
                    + w * s ** (j + 1) / math.factorial(j + 1) for j in range(len(x))]

        model = hf.iterated_kolmogorov(5)
        x0 = [0.4, -1.0, 0.7, 0.2, -0.3]
        ctrl = hf.ControlPath([0.0, 0.5, 1.0], [[1.5], [-2.0]])
        path = hf.integrate_path(model, x0 + [1.0], ctrl, 0.05)
        want = exact(exact(x0, 1.5, 0.5), -2.0, 0.5) + [0.0]
        np.testing.assert_allclose(path.endpoint, want, rtol=1e-14, atol=1e-14)

    @pytest.mark.parametrize("model", all_models(), ids=lambda m: m.name)
    def test_left_invariance(self, model, rng):
        # translating the start commutes with integration (hypothesis [G1])
        for _ in range(5):
            z0 = random_point(model, rng)
            shift = random_point(model, rng)
            ctrl = random_control(model, rng)
            path = hf.integrate_path(model, z0, ctrl, 0.05)
            shifted = hf.integrate_path(model, model.compose(shift, z0), ctrl, 0.05)
            translated = np.array([model.compose(shift, s) for s in path.samples])
            np.testing.assert_allclose(
                shifted.samples, translated, rtol=1e-9, atol=1e-10
            )

    @pytest.mark.parametrize(
        "model", [m for m in all_models() if m.has_dilation], ids=lambda m: m.name
    )
    def test_dilation_covariance(self, model, rng):
        # controls s -> rho * omega(rho^2 s) on [0, T/rho^2] from the shrunk
        # start reproduce the shrunk samples (hypothesis [G2])
        rho = 2.0
        z0 = random_point(model, rng)
        ctrl = random_control(model, rng, horizon=1.0, n_intervals=4)
        path = hf.integrate_path(model, z0, ctrl, 0.05)

        scaled = hf.ControlPath(ctrl.grid / rho**2, ctrl.values * rho)
        start = model.dilate(1.0 / rho, z0)
        path2 = hf.integrate_path(model, start, scaled, 0.05 / rho**2)
        expected = np.array([model.dilate(1.0 / rho, s) for s in path.samples])
        np.testing.assert_allclose(path2.samples, expected, rtol=1e-9, atol=1e-11)

    def test_step_validation(self):
        ctrl = hf.ControlPath([0.0, 0.3, 1.0], [[1.0], [0.0]])
        with pytest.raises(ValueError):
            hf.integrate_path(hf.KOLMOGOROV, [0, 0, 1], ctrl, 0.4)
        with pytest.raises(ValueError):
            hf.integrate_path(hf.KOLMOGOROV, [0, 0, 1], ctrl, 0.07)

    def test_asian_domain_exit(self):
        # engineered underflow: fast decay drives the price below the
        # subnormal floor and the integrator reports the exit
        ctrl = hf.constant_control([-2000.0], 1.0)
        with pytest.raises(DomainExitError) as err:
            hf.integrate_path(hf.ASIAN, [1e-300, 0.0, 1.0], ctrl, 1e-3)
        assert 0 < err.value.exit_time <= 1.0
