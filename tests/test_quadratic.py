import numpy as np
import pytest
from scipy.integrate import solve_ivp

import hypoflow as hf
from hypoflow import quadratic
from hypoflow.quadratic import Regime, far_near_shape_fits


class TestRegimeClassify:
    def test_zero(self):
        assert hf.regime_classify(0, 1, 1, 0, 0, 0) is Regime.ZERO
        assert hf.regime_classify(0, 0, 0, 0, 1, 1) is Regime.ZERO

    def test_far(self):
        assert hf.regime_classify(0, 0, 1, 0, 2, 0) is Regime.FAR

    def test_near(self):
        assert hf.regime_classify(0, 0, 1, 0, 0.3, 0) is Regime.NEAR

    def test_unclassified_band(self):
        # 1/2 <= (eta-y)/gap^2 <= (x^2+xi^2)/gap + 1 carries no stated bound
        assert hf.regime_classify(0, 0, 1, 0, 0.75, 0) is Regime.UNCLASSIFIED

    def test_partition(self, rng):
        # exactly one regime per input, far/near windows disjoint
        for _ in range(5000):
            x, y, xi, eta = rng.standard_normal(4)
            t = 1.0 + abs(rng.standard_normal())
            tau = t - (0.2 + abs(rng.standard_normal()))
            regime = hf.regime_classify(x, y, t, xi, eta, tau)
            gap = t - tau
            ratio = (eta - y) / gap**2
            if eta - y <= 0:
                assert regime is Regime.ZERO
            elif ratio > (x * x + xi * xi) / gap + 1.0:
                assert regime is Regime.FAR
            elif ratio < 0.5:
                assert regime is Regime.NEAR
            else:
                assert regime is Regime.UNCLASSIFIED


class TestRegimeEnvelope:
    def test_zero_regime(self):
        assert hf.regime_envelope(Regime.ZERO, (1.0, 1.0), 0, 1, 1, 0, 0, 0) == 0.0

    def test_far_prefactor(self):
        val = hf.regime_envelope(Regime.FAR, (2.0, 0.0), 0, 0, 2.0, 0, 5.0, 0)
        assert val == pytest.approx(2.0 * 2.0 ** (-2.5), rel=1e-12)

    def test_near_exponent(self):
        val = hf.regime_envelope(Regime.NEAR, (1.0, 0.7), 0, 0, 1.0, 0, 0.25, 0)
        assert val == pytest.approx(np.exp(-0.7 * (1.0 / 0.25)), rel=1e-12)

    def test_unclassified_raises(self):
        with pytest.raises(ValueError):
            hf.regime_envelope(Regime.UNCLASSIFIED, (1.0, 1.0), 0, 0, 1, 0, 0.75, 0)


class TestSupportFraction:
    def test_simulated_batch(self):
        batch = hf.euler_maruyama(hf.QUADRATIC_LIFTED, [0.0, 0.0, 0.0], 1.0, 1e-2, 20000, seed=5)
        assert hf.support_fraction(batch.endpoints, 0.0) == 0.0

    def test_shifted_batch(self):
        pts = np.column_stack([np.zeros(100), np.linspace(-2, -0.1, 100), np.zeros(100)])
        assert hf.support_fraction(pts, 0.0) == 1.0

    def test_half(self):
        pts = np.column_stack([np.zeros(10), np.r_[np.full(5, -1.0), np.full(5, 2.0)]])
        assert hf.support_fraction(pts, 0.0) == 0.5

    def test_empty(self):
        with pytest.raises(ValueError):
            hf.support_fraction(np.empty((0, 2)), 0.0)


class TestLiftedConsistency:
    def test_projection_matches_reduced_dynamics(self, rng):
        # the lifted path's (x, y, t) block solves the unlifted system exactly
        ctrl = hf.ControlPath(np.linspace(0, 1, 5), rng.standard_normal((4, 1)))
        path = hf.integrate_path(hf.QUADRATIC_LIFTED, [0.3, -0.2, 0.9, 1.0], ctrl, 0.05)

        def rhs(s, state):
            k = min(int(s / 0.25), 3)
            return [ctrl.values[k, 0], state[0] ** 2]

        sol = solve_ivp(rhs, (0, 1), [0.3, -0.2], t_eval=np.linspace(0, 1, 21),
                        rtol=1e-11, atol=1e-12, max_step=0.25)
        np.testing.assert_allclose(path.samples[:, 0], sol.y[0], atol=1e-7)
        np.testing.assert_allclose(path.samples[:, 1], sol.y[1], atol=1e-7)
        np.testing.assert_allclose(path.samples[:, 3], 1.0 - np.linspace(0, 1, 21), atol=1e-12)


class TestReachability:
    def test_cloud_satisfies_predicate(self):
        for duration in (0.36, 0.72, 0.96):
            cloud = hf.reachable_cloud(duration, n_steps=20)
            assert cloud.shape[0] > 10
            x, w, y = cloud[:, 0], cloud[:, 1], cloud[:, 2]
            # exact containment: 0 <= y <= duration and w^2 <= duration*y
            assert np.all(y >= -1e-12)
            assert np.all(y <= duration + 1e-12)
            assert np.all(w**2 <= duration * y + 1e-12)
            for state in cloud[:: max(1, cloud.shape[0] // 50)]:
                assert hf.attainable_quadratic([state[0], state[1], state[2], -duration])


def row_dedup(states, dedup, box):
    """The lattice dedup on (n, 3) integer rows that the packed keys replaced."""
    key = np.round(states / dedup).astype(np.int64)
    _, idx = np.unique(key, axis=0, return_index=True)
    return states[np.sort(idx)]


# (duration, control_mag, dedup, n_steps): the benchmark's certify calls,
# two of criterion 09's durations and a coarse lattice
SWEEPS = [(0.36, 7.5, 0.01, 40), (0.36, 8.5, 0.01, 40), (0.48, 8.0, 0.01, 40),
          (0.72, 8.0, 0.01, 40), (0.5, 6.0, 0.03, 20)]


class TestPackedDedup:
    def test_matches_row_dedup(self, rng):
        for dedup in (0.01, 0.02, 0.07):
            cells = rng.integers(-40, 40, size=(3000, 3)) * dedup
            states = np.clip(cells + rng.uniform(-0.4, 0.4, cells.shape) * dedup,
                             -0.999, 0.999)
            np.testing.assert_array_equal(quadratic._dedup(states, dedup, 1.0),
                                          row_dedup(states, dedup, 1.0))

    @pytest.mark.parametrize("duration,control_mag,dedup,n_steps", SWEEPS)
    def test_sweeps_match_row_dedup(self, monkeypatch, duration, control_mag, dedup,
                                    n_steps):
        axis = np.linspace(-0.96, 0.96, 17)
        kw = dict(n_steps=n_steps, control_mag=control_mag, dedup=dedup)
        mask = hf.certify_grid_reachability(duration, axis, eps=5e-3, **kw)
        cloud = hf.reachable_cloud(duration, **kw)
        monkeypatch.setattr(quadratic, "_dedup", row_dedup)
        np.testing.assert_array_equal(
            mask, quadratic.certify_grid_reachability(duration, axis, eps=5e-3, **kw))
        np.testing.assert_array_equal(cloud, hf.reachable_cloud(duration, **kw))

    def test_unpackable_lattice(self):
        with pytest.raises(ValueError):
            quadratic._dedup(np.zeros((1, 3)), 1e-7, 1.0)
        with pytest.raises(ValueError):
            hf.reachable_cloud(0.36, n_steps=2, dedup=1e-7)


class TestCsvExport:
    def test_regime_table(self):
        from hypoflow.quadratic import regime_table_csv

        rows = [
            (Regime.FAR, (0.0, 0.0, 1.0, 0.0, 2.0, 0.0), 0.1, 0.09),
            (Regime.ZERO, (0.0, 1.0, 1.0, 0.0, 0.0, 0.0), 0.0, 0.0),
        ]
        text = regime_table_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0].startswith("regime,")
        assert lines[1].startswith("far,")
        assert lines[2].startswith("zero,")


class TestShapeFits:
    def test_far_and_near_r2(self):
        batch = hf.euler_maruyama(hf.QUADRATIC_LIFTED, [0.0, 0.0, 0.0], 1.0, 1e-3,
                                  1_000_000, seed=21)
        fits = far_near_shape_fits(batch.endpoints)
        assert fits["far_slope"] < 0
        assert fits["near_slope"] < 0
        assert fits["far_r2"] >= 0.98
        assert fits["near_r2"] >= 0.95
