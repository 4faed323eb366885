"""Fit-then-verify pipelines: simulate, bin, fit envelopes, count violations.

The bound constants of the two-sided estimates are non-constructive, so each
pipeline fits (amplitude, rate) per side on one seed and verifies the
envelope on a batch drawn from a disjoint seed; a cell violates only when
its 99% confidence interval excludes the envelope.

Kolmogorov and heat draw their batches from the exact Gaussian law.  Heat
needs no Euler-Maruyama (EM) run: its EM step is a pure Brownian increment,
so the EM endpoint already has the exact law N(0, 2h) and one normal per
path gives the same distribution as horizon/dt of them.  Heisenberg's batches
come from EM, whose area term makes the endpoint law differ from the exact
one at finite dt.

The fit and check batches are independent, so with two or more threads they
are drawn concurrently, each on its share of the threads; the chunk contract
of `montecarlo` keeps both batches independent of that split.
"""

from __future__ import annotations

import numpy as np

from . import heisenberg, kolmogorov, models, montecarlo

__all__ = ["verify_kolmogorov", "verify_heat", "verify_heisenberg"]


def verify_kolmogorov(n: int, seed: int, horizon: float = 1.0, band: float = 0.1,
                      threads: int = montecarlo.CORES) -> montecarlo.BoundReport:
    """Exact Kolmogorov batch against the closed-form kernel scaled by 1 -+ band."""
    law = montecarlo.exact_law(models.KOLMOGOROV, [0.0, 0.0], horizon)
    batch = montecarlo.sample_gaussian_exact(law, n, seed, threads=threads)
    sx, sy = np.sqrt(law.cov[0, 0]), np.sqrt(law.cov[1, 1])
    grid = [(law.mean[0] - 4 * sx, law.mean[0] + 4 * sx, 50),
            (law.mean[1] - 4 * sy, law.mean[1] + 4 * sy, 50)]
    est = montecarlo.estimate_density(batch, grid)

    def kernel(centers):
        return kolmogorov.gamma0(0.0, 0.0, horizon, centers[:, 0], centers[:, 1], 0.0)

    return montecarlo.compare_bounds(
        est, lambda c: (1 - band) * kernel(c), lambda c: (1 + band) * kernel(c)
    )


def _draw_pair(draw, fit_seed, seed, threads):
    """(draw(fit_seed, .), draw(seed, .)): with two or more threads the check
    batch is drawn on a worker while this thread draws the fit batch, and the
    worker is joined before return, also when a draw raises."""
    if threads < 2:
        return draw(fit_seed, 1), draw(seed, 1)
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=1) as pool:
        check = pool.submit(draw, seed, threads // 2)
        fit = draw(fit_seed, threads - threads // 2)
        return fit, check.result()


def _fit_then_verify(draw, grid, stat_of, seed, fit_seed, threads,
                     window=np.inf) -> montecarlo.BoundReport:
    """Fit exp(a - b*stat) envelopes per side on the batch `draw(fit_seed, .)`,
    then count the violations of the independent batch `draw(seed, .)`.

    `draw(seed, threads)` returns a SampleBatch; `fit_seed` defaults to
    seed + 1.  `stat_of` maps the (n_cells, d) cell centers to the envelope
    statistic; only cells with stat <= window enter the fit and the check.
    """
    fit_seed = fit_seed if fit_seed is not None else seed + 1
    fit_batch, check_batch = _draw_pair(draw, fit_seed, seed, threads)
    fit_est = montecarlo.estimate_density(fit_batch, grid)
    stat = stat_of(fit_est.center_grid())
    in_window = stat <= window
    mask = in_window & (fit_est.counts.ravel() >= 25)
    if mask.sum() < 2:
        raise ValueError(f"{mask.sum()} window cells hold >= 25 fit paths; the fit needs 2")
    logd = np.log(fit_est.density.ravel()[mask])
    lo = montecarlo.fit_log_envelope(stat[mask], logd, "lower", slack=0.05)
    up = montecarlo.fit_log_envelope(stat[mask], logd, "upper", slack=0.05)

    est = montecarlo.estimate_density(check_batch, grid)
    return montecarlo.compare_bounds(
        est,
        lambda c: lo[0] * np.exp(-lo[1] * stat),
        lambda c: up[0] * np.exp(-up[1] * stat),
        where=lambda c: in_window,
    )


def verify_heat(n: int, seed: int, fit_seed: int | None = None, horizon: float = 1.0,
                threads: int = montecarlo.CORES) -> montecarlo.BoundReport:
    """1-D heat kernel batch against fitted Gaussian-shaped envelopes.

    The batches are exact N(0, 2*horizon) draws, one normal per path: the
    heat Euler-Maruyama step adds sqrt(2)*dW and nothing else, so its
    endpoint has this law at every dt, and an EM batch would spend
    horizon/dt normals per path on the same distribution.
    """
    law = montecarlo.exact_law(models.heat(1), [0.0], horizon)
    return _fit_then_verify(
        lambda s, k: montecarlo.sample_gaussian_exact(law, n, s, threads=k),
        [(-5.0, 5.0, 60)], lambda c: c[:, 0] ** 2 / horizon, seed, fit_seed, threads)


def verify_heisenberg(n: int, seed: int, fit_seed: int | None = None,
                      horizon: float = 1.0, dt: float | None = None,
                      window: float = 8.0,
                      threads: int = montecarlo.CORES) -> montecarlo.BoundReport:
    """Heisenberg heat-kernel EM batch against fitted sub-Riemannian envelopes.

    At the fixed horizon gap the envelopes have the shape
    amplitude * exp(-rate d_CC^2/gap), the volume factor 1/|B_sqrt(gap)| of
    `heisenberg.cc_envelope` being absorbed into the fitted amplitude; the
    comparison is restricted to cells with d_CC^2/gap <= window, and the
    constants come from the disjoint fit seed.  `dt` defaults to horizon/200.
    """
    dt = dt if dt is not None else horizon / 200.0
    start = np.zeros(models.HEISENBERG.dim)
    return _fit_then_verify(
        lambda s, k: montecarlo.euler_maruyama(models.HEISENBERG, start, horizon, dt, n, s,
                                               threads=k),
        [(-3.5, 3.5, 16), (-3.5, 3.5, 16), (-2.0, 2.0, 12)],
        lambda c: heisenberg.cc_distance_batch(c).distance ** 2 / horizon,
        seed, fit_seed, threads, window)
