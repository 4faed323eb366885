import inspect
import os
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.stats import ks_2samp, multivariate_normal

import hypoflow as hf
from hypoflow.montecarlo import CHUNK, CORES, _chunk_rng, chi_square_gof, column_moments

from conftest import all_models

_SIGMA = {"sqrt2": np.sqrt(2.0), "unit": 1.0}


class TestGaussianExact:
    def test_zero_covariance(self):
        law = hf.GaussianLaw([1.0, -2.0], np.zeros((2, 2)))
        batch = hf.sample_gaussian_exact(law, 1000, seed=0)
        np.testing.assert_allclose(batch.endpoints, np.tile([1.0, -2.0], (1000, 1)))

    def test_langevin_sample_covariance(self):
        # Var X = 2 at s = 1; sampling noise is ~0.003 at this n
        law = hf.exact_law(hf.KOLMOGOROV, [0.0, 0.0], 1.0)
        batch = hf.sample_gaussian_exact(law, 1_000_000, seed=42)
        cov = np.cov(batch.endpoints.T)
        assert cov[0, 0] == pytest.approx(2.0, abs=0.01)
        assert cov[0, 1] == pytest.approx(1.0, abs=0.01)
        assert cov[1, 1] == pytest.approx(2.0 / 3.0, abs=0.01)

    def test_thread_count_invariance(self):
        law = hf.exact_law(hf.KOLMOGOROV, [0.3, -0.7], 0.8)
        a = hf.sample_gaussian_exact(law, 200_000, seed=9, threads=1)
        b = hf.sample_gaussian_exact(law, 200_000, seed=9, threads=4)
        np.testing.assert_array_equal(a.endpoints, b.endpoints)

    def test_chunk_prefix_stability(self):
        # growing n extends the batch without changing earlier chunks
        law = hf.exact_law(hf.KOLMOGOROV, [0.0, 0.0], 1.0)
        small = hf.sample_gaussian_exact(law, CHUNK, seed=3)
        big = hf.sample_gaussian_exact(law, CHUNK + 777, seed=3)
        np.testing.assert_array_equal(big.endpoints[:CHUNK], small.endpoints)


def test_cores_is_the_affinity_set():
    expected = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count() or 1)
    assert CORES == expected >= 1


@pytest.mark.parametrize("fn", [hf.sample_gaussian_exact, hf.euler_maruyama,
                                hf.verify_kolmogorov, hf.verify_heat, hf.verify_heisenberg])
def test_threads_default_to_the_core_count(fn):
    assert inspect.signature(fn).parameters["threads"].default == CORES


@pytest.mark.parametrize("sample", [
    lambda n: hf.sample_gaussian_exact(hf.exact_law(hf.KOLMOGOROV, [0.0, 0.0], 1.0), n, seed=1),
    lambda n: hf.euler_maruyama(hf.KOLMOGOROV, [0.0, 0.0], 1.0, 0.01, n, seed=1),
], ids=["exact", "euler"])
@pytest.mark.parametrize("n", [0, -1])
def test_sample_size_is_checked(sample, n):
    with pytest.raises(ValueError, match="need n >= 1"):
        sample(n)


class TestExactLaw:
    @settings(max_examples=200, deadline=None)
    @given(st.floats(1e-3, 10.0))
    @example(0.8)
    def test_kolmogorov_is_langevin_law(self, horizon):
        law = hf.exact_law(hf.KOLMOGOROV, [0.3, -0.7], horizon)
        np.testing.assert_array_equal(law.mean, [0.3, -0.7 + horizon * 0.3])
        np.testing.assert_array_equal(
            law.cov, [[2.0 * horizon, horizon**2], [horizon**2, 2.0 * horizon**3 / 3.0]])

    def test_iterated_start_is_transported(self):
        # X^j(s) = sum_k x0_{j-k} s^k / k! for the chain dX^{j+1} = X^j dt
        law = hf.exact_law(hf.iterated_kolmogorov(3), [5.0, 5.0, 5.0], 1.0)
        np.testing.assert_allclose(law.mean, [5.0, 10.0, 12.5], rtol=1e-15)
        np.testing.assert_allclose(
            law.cov, [[2.0, 1.0, 1 / 3], [1.0, 2 / 3, 0.25], [1 / 3, 0.25, 0.1]], rtol=1e-15)

    def test_iterated_mean_matches_euler(self):
        start = [1.0, -2.0, 0.5]
        law = hf.exact_law(hf.iterated_kolmogorov(3), start, 1.0)
        batch = hf.euler_maruyama(hf.iterated_kolmogorov(3), start, 1.0, 1e-3, 20_000, seed=5)
        se = np.sqrt(np.diag(law.cov) / batch.n)
        assert np.all(np.abs(batch.endpoints.mean(axis=0) - law.mean) < 5 * se)

    def test_heat1_em_law_is_the_exact_law(self):
        # the heat EM step adds sqrt(2) dW and nothing else, so the endpoint of a
        # 200-step EM path is N(0, 2h) exactly; verify_heat draws from that law.
        # False-failure rate: each variance is within 4 standard errors,
        # 2h sqrt(2/(n-1)), except with probability 6.3e-5, and the KS p-value
        # is below 1e-4 with probability 1e-4: about 2.3e-4 in all.
        n, h = 200_000, 1.0
        em = hf.euler_maruyama(hf.heat(1), [0.0], h, h / 200, n, seed=31).endpoints[:, 0]
        law = hf.exact_law(hf.heat(1), [0.0], h)
        exact = hf.sample_gaussian_exact(law, n, seed=32).endpoints[:, 0]
        se = 2 * h * np.sqrt(2 / (n - 1))
        for x in (em, exact):
            assert abs(x.var(ddof=1) - 2 * h) < 4 * se
        assert ks_2samp(em, exact).pvalue > 1e-4

    def test_heat_mean_is_start(self):
        law = hf.exact_law(hf.heat(2), [1.5, -0.5], 0.5)
        np.testing.assert_array_equal(law.mean, [1.5, -0.5])
        np.testing.assert_array_equal(law.cov, np.eye(2))

    @pytest.mark.parametrize("model", [hf.HEISENBERG, hf.ASIAN, hf.QUADRATIC_LIFTED])
    def test_no_exact_law(self, model):
        with pytest.raises(hf.DomainError):
            hf.exact_law(model, np.ones(model.dim), 1.0)

    @pytest.mark.parametrize("model", [hf.heat(1), hf.KOLMOGOROV, hf.iterated_kolmogorov(3)],
                             ids=lambda m: m.name)
    @pytest.mark.parametrize("horizon", [0.0, -0.5])
    def test_horizon_must_be_positive(self, model, horizon):
        with pytest.raises(ValueError, match=f"^horizon must be positive, got {horizon}$"):
            hf.exact_law(model, np.zeros(model.dim), horizon)

    def test_exact_cov_is_all_a_gaussian_family_adds(self):
        # unit-rate Brownian motion on the line: only exact_cov is new, and
        # exact_law and the exact sampler take it with no change elsewhere
        class UnitLine(hf.Model):
            name, dim = "unit_line", 1

            def compose(self, z0, z):
                z0, z = self._pair(z0, z)
                return z0 + z

            def exact_cov(self, h):
                return np.array([[h]])

        law = hf.exact_law(UnitLine(), [0.5], 2.0)
        np.testing.assert_array_equal(law.mean, [0.5])
        np.testing.assert_array_equal(law.cov, [[2.0]])
        # at twice the horizon it is the heat law (variance 2h), draw for draw
        batch = hf.sample_gaussian_exact(law, 1000, seed=4)
        heat = hf.sample_gaussian_exact(hf.exact_law(hf.heat(1), [0.5], 1.0), 1000, seed=4)
        np.testing.assert_array_equal(batch.endpoints, heat.endpoints)


class TestEulerMaruyama:
    @pytest.mark.parametrize("threads", [1, 2])
    def test_kolmogorov_recurrence_written_out(self, threads):
        # y += x dt; x += sqrt(2) dW on each chunk's stream, bit for bit
        n, dt, seed = CHUNK + 5, 0.01, 9
        batch = hf.euler_maruyama(hf.KOLMOGOROV, [0.4, -1.2], 1.0, dt, n, seed,
                                  threads=threads)
        chunks = []
        for i, k in enumerate([CHUNK, 5]):
            rng = _chunk_rng(seed, i)
            x, y = np.full(k, 0.4), np.full(k, -1.2)
            for _ in range(100):
                dw = rng.standard_normal(k) * np.sqrt(dt)
                y += x * dt
                x += np.sqrt(2.0) * dw
            chunks.append(np.stack([x, y], axis=1))
        np.testing.assert_array_equal(batch.endpoints, np.concatenate(chunks))

    @staticmethod
    def _written_out(seed, n, run):
        """Chunks of run(rng, k) on each chunk's own stream, in chunk order."""
        return np.concatenate([run(_chunk_rng(seed, i), k)
                               for i, k in enumerate([CHUNK, n - CHUNK])])

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("variant", ["sqrt2", "unit"])
    def test_heisenberg_recurrence_written_out(self, threads, variant):
        # w += sigma/2 (x dW2 - y dW1); x += sigma dW1; y += sigma dW2, bit for bit
        n, dt, seed, sigma = CHUNK + 5, 0.01, 9, _SIGMA[variant]
        batch = hf.euler_maruyama(hf.HEISENBERG, [0.3, -0.2, 0.5], 1.0, dt, n, seed,
                                  variant=variant, threads=threads)

        def run(rng, k):
            x, y, w = np.full(k, 0.3), np.full(k, -0.2), np.full(k, 0.5)
            for _ in range(100):
                dw1 = rng.standard_normal(k) * np.sqrt(dt)
                dw2 = rng.standard_normal(k) * np.sqrt(dt)
                w += sigma / 2.0 * (x * dw2 - y * dw1)
                x += sigma * dw1
                y += sigma * dw2
            return np.stack([x, y, w], axis=1)

        np.testing.assert_array_equal(batch.endpoints, self._written_out(seed, n, run))

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("variant", ["sqrt2", "unit"])
    def test_quadratic_recurrence_written_out(self, threads, variant):
        # y += x^2 dt; w += x dt; x += sigma dW, bit for bit
        n, dt, seed, sigma = CHUNK + 5, 0.01, 9, _SIGMA[variant]
        batch = hf.euler_maruyama(hf.QUADRATIC_LIFTED, [0.7, 0.1, -0.4], 1.0, dt, n, seed,
                                  variant=variant, threads=threads)

        def run(rng, k):
            x, y, w = np.full(k, 0.7), np.full(k, 0.1), np.full(k, -0.4)
            for _ in range(100):
                dw = rng.standard_normal(k) * np.sqrt(dt)
                y += x * x * dt
                w += x * dt
                x += sigma * dw
            return np.stack([x, y, w], axis=1)

        np.testing.assert_array_equal(batch.endpoints, self._written_out(seed, n, run))

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("variant, horizon, dt", [
        ("sqrt2", 1.0, 0.01),
        ("unit", 1.0, 0.01),
        # sigma sqrt(dt) ~ 1.41: the price step goes negative and is clipped
        ("sqrt2", 100.0, 1.0),
    ])
    def test_asian_recurrence_written_out(self, threads, variant, horizon, dt):
        # geometric EM price, clipped at the smallest normal float; Y by trapezoid
        n, seed, sigma = CHUNK + 5, 9, _SIGMA[variant]
        batch = hf.euler_maruyama(hf.ASIAN, [1.2, 0.3], horizon, dt, n, seed,
                                  variant=variant, threads=threads)
        clipped = []

        def run(rng, k):
            x, y = np.full(k, 1.2), np.full(k, 0.3)
            for _ in range(100):
                dw = rng.standard_normal(k) * np.sqrt(dt)
                x_new = x + sigma * x * dw + 0.5 * sigma**2 * x * dt
                bad = x_new <= 0.0
                clipped.append(int(bad.sum()))
                x_new[bad] = np.finfo(float).tiny
                y += 0.5 * (x + x_new) * dt
                x = x_new
            return np.stack([x, y], axis=1)

        np.testing.assert_array_equal(batch.endpoints, self._written_out(seed, n, run))
        assert batch.floored == sum(clipped)
        assert (batch.floored > 0) == (horizon == 100.0)

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("horizon, dt", [(1.0, 0.01), (100.0, 1.0)])
    def test_asian_half_rate_halves_the_average(self, threads, horizon, dt):
        # from y0 = 0 the half-rate trapezoid is the full-rate one halved, bit for bit
        n, seed = CHUNK + 5, 4
        full = hf.euler_maruyama(hf.ASIAN, [1.0, 0.0], horizon, dt, n, seed, threads=threads)
        half = hf.euler_maruyama(hf.ASIAN, [1.0, 0.0], horizon, dt, n, seed,
                                 variant="sqrt2-half", threads=threads)
        np.testing.assert_array_equal(half.endpoints[:, 0], full.endpoints[:, 0])
        np.testing.assert_array_equal(half.endpoints[:, 1], 0.5 * full.endpoints[:, 1])
        assert half.floored == full.floored

    def test_quadratic_support(self):
        batch = hf.euler_maruyama(hf.QUADRATIC_LIFTED, [0.0, 0.0, 0.0], 1.0, 1e-2,
                                  50_000, seed=12)
        assert hf.support_fraction(batch.endpoints, 0.0) == 0.0

    def test_yor_variance_example(self):
        # sample Var(X) distribution has std ~9 at this n; the seed is fixed
        # and the value checked against the closed form e^2(e^2-1) = 47.21
        batch = hf.euler_maruyama(hf.ASIAN, [1.0, 0.0], 1.0, 1e-3, 100_000, seed=1)
        assert batch.endpoints[:, 0].var(ddof=1) == pytest.approx(47.2091, abs=1.5)

    def test_heisenberg_moments(self):
        batch = hf.euler_maruyama(hf.HEISENBERG, [0.0, 0.0, 0.0], 1.0, 1e-2,
                                  200_000, seed=4)
        var = batch.endpoints.var(axis=0, ddof=1)
        assert var[0] == pytest.approx(2.0, abs=0.05)
        assert var[1] == pytest.approx(2.0, abs=0.05)

    def test_iterated_matches_exact_law(self):
        batch = hf.euler_maruyama(hf.iterated_kolmogorov(3), np.zeros(3), 1.0, 1e-3,
                                  200_000, seed=8)
        cov = hf.iterated_kolmogorov(3).exact_cov(1.0)
        emp = np.cov(batch.endpoints.T)
        np.testing.assert_allclose(emp, cov, rtol=0.05, atol=0.01)

    def test_weak_convergence_quadratic(self):
        # E[Y_T] -> x0^2 T + T^2 at rate O(dt)
        x0, T = 0.7, 1.0
        exact = x0**2 * T + T**2
        errs = []
        for dt in (1e-2, 5e-3, 2.5e-3):
            batch = hf.euler_maruyama(hf.QUADRATIC_LIFTED, [x0, 0.0, 0.0], T, dt,
                                      400_000, seed=31)
            errs.append(abs(batch.endpoints[:, 1].mean() - exact))
        assert errs[0] < 0.02
        assert errs[-1] <= errs[0]

    def test_validation(self):
        with pytest.raises(ValueError):
            hf.euler_maruyama(hf.KOLMOGOROV, [0.0, 0.0], 1.0, 0.5, 10, seed=0)
        with pytest.raises(ValueError):
            hf.euler_maruyama(hf.KOLMOGOROV, [0.0, 0.0], 1.0, 1e-3, 10, seed=0,
                              variant="bogus")
        with pytest.raises(ValueError):
            hf.euler_maruyama(hf.KOLMOGOROV, [0.0, 0.0], 1.0, 1e-3, 10, seed=0,
                              variant="sqrt2-half")

    @pytest.mark.parametrize("model, start", [
        (hf.heat(2), [0.0]),
        (hf.heat(2), [0.0, 0.0, 0.0, 0.0]),
        (hf.HEISENBERG, [0.0, 0.0]),
        (hf.ASIAN, [-1.0, 0.0]),
        (hf.ASIAN, [np.nan, 0.0]),
    ], ids=["heat2-short", "heat2-long", "heisenberg-short", "asian-negative", "asian-nan"])
    def test_start_is_checked(self, model, start):
        with pytest.raises(ValueError):
            hf.euler_maruyama(model, start, 1.0, 1e-2, 10, seed=0)

    def test_trailing_time_coordinate_ignored(self):
        a = hf.euler_maruyama(hf.HEISENBERG, [0.1, 0.2, 0.3], 1.0, 1e-2, 10, seed=0)
        b = hf.euler_maruyama(hf.HEISENBERG, [0.1, 0.2, 0.3, 7.0], 1.0, 1e-2, 10, seed=0)
        np.testing.assert_array_equal(a.endpoints, b.endpoints)

    @pytest.mark.parametrize("model", all_models(), ids=lambda m: m.name)
    def test_endpoints_c_contiguous(self, model):
        start = np.ones(model.dim)
        for n in (10, CHUNK + 5):
            batch = hf.euler_maruyama(model, start, 1.0, 1e-2, n, seed=0)
            assert batch.endpoints.flags.c_contiguous
            assert batch.endpoints.shape == (n, model.dim)

    def test_seed_bit_independence(self):
        n = 100_000
        a = hf.euler_maruyama(hf.KOLMOGOROV, [0.0, 0.0], 1.0, 1e-2, n, seed=1024)
        b = hf.euler_maruyama(hf.KOLMOGOROV, [0.0, 0.0], 1.0, 1e-2, n, seed=1025)
        for j in range(2):
            r = np.corrcoef(a.endpoints[:, j], b.endpoints[:, j])[0, 1]
            assert abs(r) <= 3.0 / np.sqrt(n)


class TestDensityEstimate:
    def test_uniform_flat(self):
        rng = np.random.default_rng(5)
        pts = rng.random((200_000, 2))
        batch = hf.SampleBatch("uniform", pts, 0.0, 200_000, 5, "synthetic")
        est = hf.estimate_density(batch, [(0.0, 1.0, 10), (0.0, 1.0, 10)])
        flat = 1.0
        # 99% CIs across 100 cells: expect ~1 excursion, tolerate a few
        inside = np.abs(est.density - flat) <= est.ci99
        assert inside.mean() >= 0.95

    def test_counts_sum(self):
        law = hf.exact_law(hf.KOLMOGOROV, [0.0, 0.0], 1.0)
        batch = hf.sample_gaussian_exact(law, 50_000, seed=2)
        est = hf.estimate_density(batch, [(-5, 5, 20), (-4, 4, 20)])
        assert est.n_in_grid <= batch.n
        assert est.counts.sum() == est.n_in_grid
        assert est.density.sum() * est.cell_volume <= 1.0 + 1e-12

    def test_chunked_counts_equal_one_histogram(self):
        # n is not a multiple of CHUNK; rows on the first and last edges and
        # outside the grid fall in the first, a middle and the last chunk
        n = 2 * CHUNK + 123
        pts = np.random.default_rng(8).uniform(-1.5, 1.5, (n, 2))
        for row in (0, CHUNK + 5, n - 3):
            pts[row:row + 3] = [[1.0, 1.0], [-1.0, 0.25], [1.0, 2.0]]
        batch = hf.SampleBatch("uniform", pts, 0.0, n, 8, "synthetic")
        edges = [np.linspace(-1.0, 1.0, 11), np.linspace(-1.0, 1.0, 8)]
        est = hf.estimate_density(batch, [(-1.0, 1.0, 10), (-1.0, 1.0, 7)])
        whole, _ = np.histogramdd(pts, bins=edges)
        np.testing.assert_array_equal(est.counts, whole)
        assert est.counts[-1, -1] >= 6

    def test_ci_scaling(self):
        law = hf.exact_law(hf.KOLMOGOROV, [0.0, 0.0], 1.0)
        grid = [(-4, 4, 15), (-3, 3, 15)]
        small = hf.estimate_density(hf.sample_gaussian_exact(law, 100_000, seed=2), grid)
        big = hf.estimate_density(hf.sample_gaussian_exact(law, 400_000, seed=2), grid)
        ratio = big.ci99.mean() / small.ci99.mean()
        # doubling n halves the average radius (n quadrupled here)
        assert ratio == pytest.approx(0.5, rel=0.2)

    def test_langevin_chi_square(self):
        law = hf.exact_law(hf.KOLMOGOROV, [0.0, 0.0], 1.0)
        n = 200_000
        batch = hf.sample_gaussian_exact(law, n, seed=14)
        grid = [(-6, 6, 50), (-4, 4, 50)]
        est = hf.estimate_density(batch, grid)
        mvn = multivariate_normal(mean=law.mean, cov=law.cov)
        xs, ys = est.edges
        cdf = mvn.cdf(np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1).reshape(-1, 2))
        cdf = cdf.reshape(51, 51)
        probs = cdf[1:, 1:] - cdf[:-1, 1:] - cdf[1:, :-1] + cdf[:-1, :-1]
        stat, dof, p = chi_square_gof(est.counts, probs, n)
        assert p >= 0.001


def _law_grid(model, width, nb):
    """The (lo, hi, nb) axes verify builds: mean -+ width standard deviations."""
    law = hf.exact_law(model, np.zeros(model.dim), 1.0)
    sd = np.sqrt(np.diag(law.cov))
    return [(m - width * s, m + width * s, nb) for m, s in zip(law.mean, sd)]


# the grids of verify_kolmogorov, verify_heat and verify_heisenberg
_VERIFY_GRIDS = [
    _law_grid(hf.KOLMOGOROV, 4, 50),
    [(-5.0, 5.0, 60)],
    [(-3.5, 3.5, 16), (-3.5, 3.5, 16), (-2.0, 2.0, 12)],
]
_AXIS = st.tuples(st.floats(-1e3, 1e3), st.floats(1e-3, 1e3), st.integers(1, 60)).map(
    lambda t: (t[0], t[0] + t[1], t[2]))


def _awkward_points(grid, n, seed):
    """n rows that hold, on each axis, every edge and its two neighbouring
    floats, NaN, +-inf and +-1e300 (as far as n allows, at random rows), and
    repeat a quarter of the rows; the rest are uniform on the grid widened by
    a quarter on each side."""
    rng = np.random.default_rng(seed)
    cols = []
    for lo, hi, nb in grid:
        e = np.linspace(lo, hi, nb + 1)
        special = np.concatenate([e, np.nextafter(e, -np.inf), np.nextafter(e, np.inf),
                                  [np.nan, np.inf, -np.inf, 1e300, -1e300]])
        col = rng.uniform(lo - (hi - lo) / 4, hi + (hi - lo) / 4, n)
        rows = rng.permutation(n)[:special.size]
        col[rows] = special[:rows.size]
        cols.append(col)
    pts = np.stack(cols, axis=1)
    pts[rng.integers(0, n, n // 4)] = pts[rng.integers(0, n, n // 4)]
    return pts


class TestBinning:
    @settings(max_examples=40, deadline=None)
    @given(grid=st.lists(_AXIS, min_size=1, max_size=3),
           n=st.sampled_from([1, 2, 17, 1000, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 123]),
           seed=st.integers(0, 2**32 - 1))
    @example(grid=_VERIFY_GRIDS[0], n=CHUNK + 1, seed=0)
    @example(grid=_VERIFY_GRIDS[1], n=2 * CHUNK + 123, seed=1)
    @example(grid=_VERIFY_GRIDS[2], n=CHUNK - 1, seed=2)
    def test_counts_equal_histogramdd(self, grid, n, seed):
        pts = _awkward_points(grid, n, seed)
        batch = hf.SampleBatch("synthetic", pts, 0.0, n, seed, "synthetic")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = hf.estimate_density(batch, grid)
        edges = [np.linspace(lo, hi, nb + 1) for lo, hi, nb in grid]
        whole, _ = np.histogramdd(pts, bins=edges)
        np.testing.assert_array_equal(est.counts, whole)
        assert est.counts.dtype == whole.dtype

    @pytest.mark.parametrize("grid, message", [
        ([(1.0, 1.0, 10)], "finite lo < hi"),
        ([(2.0, 1.0, 10)], "finite lo < hi"),
        ([(np.nan, 1.0, 10)], "finite lo < hi"),
        ([(0.0, np.nan, 10)], "finite lo < hi"),
        ([(0.0, np.inf, 10)], "finite lo < hi"),
        ([(-np.inf, 0.0, 10)], "finite lo < hi"),
        ([(0.0, 1.0, 0)], "integer >= 1"),
        ([(0.0, 1.0, -3)], "integer >= 1"),
        ([(0.0, 1.0, 2.5)], "integer >= 1"),
        ([(0.0, 1.0, 10.0)], "integer >= 1"),
        ([(0.0, 5e-324, 4)], "strictly increasing"),
        ([(0.0, 1.0, 10), (0.0, 1.0, 10)], "2 axes; the batch has 1 columns"),
    ], ids=["lo=hi", "lo>hi", "lo-nan", "hi-nan", "hi-inf", "lo-inf", "nb-0", "nb-negative",
            "nb-2.5", "nb-float", "edges-repeat", "axes"])
    def test_bad_grid_raises(self, grid, message):
        batch = hf.SampleBatch("uniform", np.linspace(0.0, 1.0, 100)[:, None], 0.0, 100, 0,
                               "synthetic")
        with pytest.raises(ValueError, match=message):
            hf.estimate_density(batch, grid)


class TestColumnMoments:
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", [2, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 123])
    def test_bit_equal_to_numpy(self, n, d):
        rng = np.random.default_rng(n + d)
        a = rng.standard_normal((n, d)) * rng.uniform(0.1, 10.0, d) + rng.uniform(-5, 5, d)
        # left-to-right and pairwise sums of this column differ
        a[:, 0] = np.resize([1e16, 1.0, -1e16, 1.0], n)
        want, copy = (a.mean(axis=0), a.var(axis=0, ddof=1)), a.copy()
        got = column_moments(a)
        np.testing.assert_array_equal(a, copy)
        # bytes, so that -0.0 and 0.0 differ too
        assert [x.tobytes() for x in got] == [x.tobytes() for x in want]
        if d >= 2 and n >= CHUNK - 1:
            assert got[1][0] != a[:, 0].var(ddof=1)  # numpy's pairwise sum of one column

    @pytest.mark.parametrize("a", [
        np.full((CHUNK + 5, 3), -0.0),
        np.asfortranarray(np.random.default_rng(3).standard_normal((CHUNK + 5, 2))),
        np.random.default_rng(4).standard_normal((CHUNK + 5, 4))[:, ::2],
    ], ids=["negative-zero", "fortran-order", "strided"])
    def test_other_inputs_bit_equal(self, a):
        want, copy = (a.mean(axis=0), a.var(axis=0, ddof=1)), a.copy()
        got = column_moments(a)
        np.testing.assert_array_equal(a, copy)
        assert [x.tobytes() for x in got] == [x.tobytes() for x in want]

    def test_one_row_raises(self):
        with pytest.raises(ValueError, match="n >= 2"):
            column_moments(np.zeros((1, 2)))


class TestCompareBounds:
    def _estimate(self, n=100_000, seed=2):
        law = hf.exact_law(hf.KOLMOGOROV, [0.0, 0.0], 1.0)
        batch = hf.sample_gaussian_exact(law, n, seed=seed)
        return hf.estimate_density(batch, [(-5, 5, 25), (-3.5, 3.5, 25)])

    def test_trivial_bounds(self):
        est = self._estimate()
        report = hf.compare_bounds(est, lambda c: np.zeros(len(c)),
                                   lambda c: np.full(len(c), np.inf))
        assert report.lower_violations == 0
        assert report.upper_violations == 0
        assert report.violation_fraction == 0.0

    def test_lower_above_peak_flagged(self):
        est = self._estimate()
        peak = est.density.max()
        report = hf.compare_bounds(est, lambda c: np.full(len(c), 2 * peak),
                                   lambda c: np.full(len(c), np.inf))
        assert report.lower_violations > 0

    def test_heat_kernel_fit_then_verify(self):
        # e-keystone-shaped envelopes fitted on one seed, verified on another
        model = hf.heat(1)
        T, dt, n = 1.0, 5e-3, 400_000
        grid = [(-5.0, 5.0, 50)]
        fit_est = hf.estimate_density(hf.euler_maruyama(model, [0.0], T, dt, n, seed=100), grid)
        centers = fit_est.center_grid()[:, 0]
        stat = centers**2 / T
        mask = fit_est.counts.ravel() >= 25
        logd = np.log(fit_est.density.ravel()[mask])
        lo = hf.fit_log_envelope(stat[mask], logd, "lower", slack=0.05)
        up = hf.fit_log_envelope(stat[mask], logd, "upper", slack=0.05)

        est = hf.estimate_density(hf.euler_maruyama(model, [0.0], T, dt, n, seed=200), grid)
        report = hf.compare_bounds(
            est,
            lambda c: lo[0] * np.exp(-lo[1] * c[:, 0] ** 2 / T),
            lambda c: up[0] * np.exp(-up[1] * c[:, 0] ** 2 / T),
        )
        assert report.violation_fraction <= 0.01


class TestVarianceSlopes:
    def test_synthetic_exact(self):
        times = np.array([0.5, 1.0, 2.0, 4.0, 8.0])
        slopes = hf.fit_loglog_slopes(times, (times**2)[:, None])
        assert slopes[0] == pytest.approx(2.0, abs=1e-12)

    def test_iterated_exact_sampler(self):
        times = np.geomspace(0.3, 3.0, 5)
        slopes = hf.variance_slope(hf.iterated_kolmogorov(3), times, 100_000, seed=6)
        np.testing.assert_allclose(slopes, [1.0, 3.0, 5.0], atol=0.05)

    def test_kolmogorov_slopes(self):
        times = np.geomspace(0.3, 3.0, 5)
        slopes = hf.variance_slope(hf.KOLMOGOROV, times, 100_000, seed=7)
        np.testing.assert_allclose(slopes, [1.0, 3.0], atol=0.05)

    def test_validation(self):
        with pytest.raises(ValueError):
            hf.variance_slope(hf.KOLMOGOROV, [1.0, 2.0], 100, seed=0)
        with pytest.raises(ValueError):
            hf.fit_loglog_slopes([1.0, 2.0, 4.0, 16.0], np.zeros((4, 1)))


class TestPersistence:
    def test_roundtrip(self, tmp_path):
        batch = hf.euler_maruyama(hf.KOLMOGOROV, [0.5, -0.5], 1.0, 1e-2, 1000, seed=77)
        path = tmp_path / "batch.bin"
        hf.save_batch(batch, path)
        loaded = hf.load_batch(path)
        assert loaded.model == batch.model
        assert loaded.n == batch.n
        assert loaded.seed == batch.seed
        assert loaded.scheme == batch.scheme
        assert loaded.horizon == batch.horizon
        np.testing.assert_array_equal(loaded.endpoints, batch.endpoints)

    @settings(max_examples=60, deadline=None)
    @given(
        model=st.text(st.characters(min_codepoint=33, max_codepoint=126), max_size=32),
        scheme=st.text(st.characters(min_codepoint=33, max_codepoint=126), max_size=32),
        seed=st.integers(0, 2**64 - 1),
        horizon=st.floats(allow_nan=False),
        dt=st.floats(allow_nan=False),
        floored=st.integers(0, 2**64 - 1),
        endpoints=arrays(np.float64, st.tuples(st.integers(1, 5), st.integers(1, 4))),
    )
    @example(model="asian", scheme="euler(1.23457e-05)", seed=1, horizon=1.0,
             dt=1.23457e-05, floored=7, endpoints=np.ones((2, 2)))
    def test_roundtrip_is_lossless(self, model, scheme, seed, horizon, dt, floored, endpoints):
        batch = hf.SampleBatch(model, endpoints, horizon, endpoints.shape[0], seed, scheme,
                               dt, floored)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "batch.bin"
            hf.save_batch(batch, path)
            loaded = hf.load_batch(path)
        for field in ("model", "horizon", "n", "seed", "scheme", "dt", "floored"):
            assert getattr(loaded, field) == getattr(batch, field), field
        np.testing.assert_array_equal(loaded.endpoints, batch.endpoints)

    @pytest.mark.parametrize("edit", [lambda raw: raw[:-8], lambda raw: raw[:-3],
                                      lambda raw: raw + bytes(8), lambda raw: raw + b"x"],
                             ids=["truncated-row", "truncated-byte", "trailing-row",
                                  "trailing-byte"])
    def test_rejects_malformed_payload(self, tmp_path, edit):
        batch = hf.euler_maruyama(hf.KOLMOGOROV, [0.0, 0.0], 1.0, 1e-2, 100, seed=3)
        path = tmp_path / "batch.bin"
        hf.save_batch(batch, path)
        path.write_bytes(edit(path.read_bytes()))
        with pytest.raises(ValueError, match="100 rows of 2 columns need 1600"):
            hf.load_batch(path)

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not a batch file at all................")
        with pytest.raises(ValueError):
            hf.load_batch(path)
