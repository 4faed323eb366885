import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.stats import multivariate_normal

import hypoflow as hf
from hypoflow.kolmogorov import GaussianLaw

SQRT3_2PI = np.sqrt(3.0) / (2.0 * np.pi)


def random_pair(rng, scale=1.5):
    x, y, xi, eta = rng.standard_normal(4) * scale
    t = 1.0 + abs(rng.standard_normal())
    tau = t - (0.3 + abs(rng.standard_normal()))
    return x, y, t, xi, eta, tau


class TestGamma0:
    def test_diagonal_value(self):
        assert hf.gamma0(0, 0, 1, 0, 0, 0) == pytest.approx(SQRT3_2PI, rel=1e-12)
        assert hf.gamma0(0, 3.0, 1, 0, 3.0, 0) == pytest.approx(0.27566444771089594, rel=1e-12)

    def test_support_convention(self):
        assert hf.gamma0(0, 0, 0, 0, 0, 1) == 0.0
        assert hf.gamma0(1, 2, 3, 4, 5, 3) == 0.0

    def test_matches_gaussian_law(self, rng):
        # oracle: the arrival law is the Gaussian of exact_law
        for _ in range(50):
            x0, y0 = rng.standard_normal(2)
            s = 0.1 + abs(rng.standard_normal())
            law = hf.exact_law(hf.KOLMOGOROV, [x0, y0], s)
            mvn = multivariate_normal(mean=law.mean, cov=law.cov)
            pts = rng.standard_normal((20, 2)) * np.sqrt(np.diag(law.cov)) + law.mean
            vals = hf.gamma0(x0, y0, s, pts[:, 0], pts[:, 1], 0.0)
            np.testing.assert_allclose(vals, mvn.pdf(pts), rtol=1e-12)

    def test_normalization_by_quadrature(self):
        # [DERIVED] oracle: direct 2-D quadrature of the kernel
        for s in (0.1, 1.0, 10.0):
            sx, sy = np.sqrt(2 * s), np.sqrt(2 * s**3 / 3)
            mass, _ = integrate.dblquad(
                lambda v, u: hf.gamma0(0.5, -0.3, s, u, v, 0.0),
                0.5 - 8 * sx, 0.5 + 8 * sx,
                lambda u: -0.3 + 0.5 * s - 8 * sy, lambda u: -0.3 + 0.5 * s + 8 * sy,
            )
            assert mass == pytest.approx(1.0, abs=1e-8)

    def test_gamma_psi_identity(self, rng):
        for _ in range(10_000):
            x, y, t, xi, eta, tau = random_pair(rng)
            lhs = hf.gamma0(x, y, t, xi, eta, tau)
            rhs = SQRT3_2PI / (t - tau) ** 2 * np.exp(-hf.psi0(x, y, t, xi, eta, tau) / 4.0)
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_left_invariance(self, rng):
        m = hf.KOLMOGOROV
        for _ in range(2000):
            x, y, t, xi, eta, tau = random_pair(rng)
            z0 = rng.standard_normal(3)
            z0[2] = rng.standard_normal()
            a = hf.gamma0(x, y, t, xi, eta, tau)
            zt = m.compose(z0, [x, y, t])
            ct = m.compose(z0, [xi, eta, tau])
            b = hf.gamma0(*zt, *ct)
            assert b == pytest.approx(a, rel=1e-12)

    def test_dilation_homogeneity(self, rng):
        # gamma0(delta_rho z; delta_rho zeta) = rho^-4 gamma0(z; zeta)
        m = hf.KOLMOGOROV
        for _ in range(2000):
            x, y, t, xi, eta, tau = random_pair(rng)
            rho = np.exp(rng.standard_normal() * 0.5)
            zt = m.dilate(rho, [x, y, t])
            ct = m.dilate(rho, [xi, eta, tau])
            a = hf.gamma0(*zt, *ct)
            assert a == pytest.approx(hf.gamma0(x, y, t, xi, eta, tau) / rho**4, rel=1e-12)

    def test_chapman_kolmogorov(self, rng):
        # Gaussian composition of covariances reproduces the direct kernel
        for _ in range(200):
            s1 = 0.2 + abs(rng.standard_normal())
            s2 = 0.2 + abs(rng.standard_normal())
            x0, y0 = rng.standard_normal(2)
            law1 = hf.exact_law(hf.KOLMOGOROV, [x0, y0], s1)
            A = np.array([[1.0, 0.0], [s2, 1.0]])
            law12 = GaussianLaw(
                np.array([law1.mean[0], law1.mean[1] + s2 * law1.mean[0]]),
                A @ law1.cov @ A.T + hf.KOLMOGOROV.exact_cov(s2),
            )
            law_direct = hf.exact_law(hf.KOLMOGOROV, [x0, y0], s1 + s2)
            np.testing.assert_allclose(law12.mean, law_direct.mean, atol=1e-12)
            np.testing.assert_allclose(law12.cov, law_direct.cov, rtol=1e-12)
        # one numeric convolution as the independent route
        x, y = 0.3, -0.2
        xi, eta = 0.8, 0.4
        s1, s2 = 0.6, 0.9

        def integrand(v, u):
            return hf.gamma0(x, y, s1 + s2, u, v, s2) * hf.gamma0(u, v, s2, xi, eta, 0.0)

        val, _ = integrate.dblquad(integrand, -8, 8, lambda u: -8, lambda u: 8)
        assert val == pytest.approx(hf.gamma0(x, y, s1 + s2, xi, eta, 0.0), abs=1e-10)


class TestPsi0:
    def test_steering_example(self):
        # cost of steering (0,0) at t=1 to (1,0.5) at t=0 is exactly 1
        assert hf.psi0(0, 0, 1, 1, 0.5, 0) == pytest.approx(1.0, rel=1e-14)

    def test_zero_on_drift_locus(self, rng):
        for _ in range(100):
            x, y = rng.standard_normal(2)
            s = 0.1 + abs(rng.standard_normal())
            assert hf.psi0(x, y, s, x, y + s * x, 0.0) == pytest.approx(0.0, abs=1e-14)

    def test_precondition(self):
        with pytest.raises(ValueError):
            hf.psi0(0, 0, 0, 0, 0, 1)

    def test_translation_and_dilation_invariance(self, rng):
        m = hf.KOLMOGOROV
        for _ in range(2000):
            x, y, t, xi, eta, tau = random_pair(rng)
            base = hf.psi0(x, y, t, xi, eta, tau)
            z0 = rng.standard_normal(3)
            a = hf.psi0(*m.compose(z0, [x, y, t]), *m.compose(z0, [xi, eta, tau]))
            assert a == pytest.approx(base, rel=1e-12, abs=1e-12)
            rho = np.exp(rng.standard_normal() * 0.5)
            b = hf.psi0(*m.dilate(rho, [x, y, t]), *m.dilate(rho, [xi, eta, tau]))
            assert b == pytest.approx(base, rel=1e-12, abs=1e-12)


class TestLangevinLaw:
    """The Kolmogorov law is exact_law(KOLMOGOROV, ...): the Langevin pair
    dX = sqrt(2) dW, dY = X dt."""

    def test_unit_values(self):
        law = hf.exact_law(hf.KOLMOGOROV, [0.0, 0.0], 1.0)
        np.testing.assert_allclose(law.mean, [0, 0])
        np.testing.assert_allclose(law.cov, [[2, 1], [1, 2 / 3]])

    def test_mean_drift(self):
        law = hf.exact_law(hf.KOLMOGOROV, [2.0, -1.0], 0.5)
        np.testing.assert_allclose(law.mean, [2.0, -1.0 + 0.5 * 2.0])

    def test_determinant_prefactor(self, rng):
        # det = s^4/3 matches the kernel prefactor sqrt(3)/(2 pi s^2)
        for s in (0.1, 1.0, 3.7):
            det = np.linalg.det(hf.KOLMOGOROV.exact_cov(s))
            assert det == pytest.approx(s**4 / 3.0, rel=1e-12)
            assert 1.0 / (2 * np.pi * np.sqrt(det)) == pytest.approx(
                SQRT3_2PI / s**2, rel=1e-12
            )

    def test_precondition(self):
        with pytest.raises(ValueError):
            hf.exact_law(hf.KOLMOGOROV, [0.0, 0.0], 0.0)


class TestIteratedCovariance:
    """The chain's covariance is IteratedKolmogorov.exact_cov."""

    @settings(max_examples=200, deadline=None)
    @given(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0), st.floats(1e-3, 10.0))
    @example(0.0, 0.0, 1.0)
    def test_matches_langevin(self, x0, y0, s):
        # bit for bit the written-out Langevin law at N = 2
        law = hf.exact_law(hf.KOLMOGOROV, [x0, y0], s)
        np.testing.assert_array_equal(law.mean, [x0, y0 + s * x0])
        np.testing.assert_array_equal(law.cov, [[2.0 * s, s**2], [s**2, 2.0 * s**3 / 3.0]])

    def test_moment_integral_oracle(self):
        # Cov(X^i, X^j) = 2 int_0^s (s-u)^(i-1+j-1)/((i-1)!(j-1)!) du
        from math import factorial

        s = 1.3
        cov = hf.iterated_kolmogorov(4).exact_cov(s)
        for i in range(1, 5):
            for j in range(1, 5):
                val, _ = integrate.quad(
                    lambda u: 2.0
                    * (s - u) ** (i - 1)
                    * (s - u) ** (j - 1)
                    / (factorial(i - 1) * factorial(j - 1)),
                    0.0,
                    s,
                )
                assert cov[i - 1, j - 1] == pytest.approx(val, rel=1e-10)

    def test_variance_power_laws(self):
        # slope of log Var(X^3) against log s is exactly 5
        ss = np.geomspace(0.1, 10, 7)
        v3 = [hf.iterated_kolmogorov(3).exact_cov(s)[2, 2] for s in ss]
        slope = np.polyfit(np.log(ss), np.log(v3), 1)[0]
        assert slope == pytest.approx(5.0, abs=1e-12)

    def test_positive_definite(self):
        for n in range(2, 7):
            for s in (0.1, 1.0, 10.0):
                eig = np.linalg.eigvalsh(hf.iterated_kolmogorov(n).exact_cov(s))
                assert eig.min() > 0

    def test_wide_law_accepted(self):
        # the largest eigenvalue is 3.2e26; eigvalsh can round the smallest
        # to about -3e10, which is 1e-16 of the largest and not a defect
        law = hf.exact_law(hf.iterated_kolmogorov(6), np.zeros(6), 716.0)
        assert np.linalg.eigvalsh(law.cov).max() > 1e26
        GaussianLaw(np.zeros(2), [[1e26, 0.0], [0.0, -1e9]])

    def test_negative_covariance_refused(self):
        with pytest.raises(ValueError, match="not PSD"):
            GaussianLaw(np.zeros(2), [[1.0, 0.0], [0.0, -1e-9]])
        with pytest.raises(ValueError, match="not PSD"):
            GaussianLaw(np.zeros(2), [[1e26, 0.0], [0.0, -1e12]])

    def test_preconditions(self):
        with pytest.raises(ValueError):
            hf.iterated_kolmogorov(1)
        with pytest.raises(ValueError):
            hf.exact_law(hf.iterated_kolmogorov(3), np.zeros(3), -1.0)


class TestOptimalControl:
    def test_drift_only(self):
        z0 = np.array([0.7, -0.2, 1.5])
        z1 = np.array([0.7, -0.2 + 0.7 * 1.5, 0.0])
        ctrl = hf.optimal_control_kolmogorov(z0, z1)
        assert hf.path_cost(ctrl) == pytest.approx(0.0, abs=1e-20)
        np.testing.assert_allclose(ctrl.values, 0.0, atol=1e-12)

    def test_unit_cost_example(self):
        z0, z1 = np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.5, 0.0])
        ctrl = hf.optimal_control_kolmogorov(z0, z1)
        cost = hf.path_cost(ctrl)
        assert cost == pytest.approx(1.0, rel=1e-8)
        assert cost == pytest.approx(hf.psi0(*z0, *z1), rel=1e-8)
        path = hf.integrate_path(hf.KOLMOGOROV, z0, ctrl, ctrl.grid[1] - ctrl.grid[0])
        np.testing.assert_allclose(path.endpoint, z1, atol=1e-6)

    def test_cost_matches_psi0(self, rng):
        for _ in range(50):
            z0 = rng.standard_normal(3)
            z1 = rng.standard_normal(3)
            z0[2] = 1.0 + abs(rng.standard_normal())
            z1[2] = z0[2] - (0.3 + abs(rng.standard_normal()))
            ctrl = hf.optimal_control_kolmogorov(z0, z1)
            assert hf.path_cost(ctrl) == pytest.approx(
                hf.psi0(*z0, *z1), rel=1e-8, abs=1e-10
            )

    def test_optimality_against_perturbations(self, rng):
        # cost >= psi0 for endpoint-preserving control perturbations
        z0, z1 = np.array([0.2, -0.1, 1.2]), np.array([-0.5, 0.4, 0.1])
        T = z0[2] - z1[2]
        m = 64
        ctrl = hf.optimal_control_kolmogorov(z0, z1, n_intervals=m)
        base = hf.psi0(*z0, *z1)
        grid = ctrl.grid
        mids = 0.5 * (grid[:-1] + grid[1:])
        width = np.diff(grid)
        # endpoint-preserving directions: orthogonal to 1 and to (T - mid)
        A = np.stack([width, width * (T - mids)])
        proj = np.eye(m) - A.T @ np.linalg.solve(A @ A.T, A)
        for _ in range(1000):
            delta = proj @ rng.standard_normal(m) * 0.3
            pert = hf.ControlPath(grid, ctrl.values + delta[:, None])
            assert hf.path_cost(pert) >= base - 1e-9
        # spot-check the endpoint really is preserved
        pert = hf.ControlPath(grid, ctrl.values + (proj @ rng.standard_normal(m))[:, None])
        path = hf.integrate_path(hf.KOLMOGOROV, z0, pert, float(width[0]))
        np.testing.assert_allclose(path.endpoint, z1, atol=1e-10)

    def test_precondition(self):
        with pytest.raises(ValueError):
            hf.optimal_control_kolmogorov([0, 0, 0], [1, 1, 1])
