"""Fit-then-verify pipelines: simulate, bin, fit envelopes, count violations.

The bound constants of the two-sided estimates are non-constructive, so each
pipeline fits (amplitude, rate) per side on one seed and verifies the
envelope on a batch drawn from a disjoint seed; a cell violates only when
its 99% confidence interval excludes the envelope.
"""

from __future__ import annotations

import numpy as np

from . import heisenberg, kolmogorov, models, montecarlo

__all__ = ["verify_kolmogorov", "verify_heat", "verify_heisenberg"]


def verify_kolmogorov(n: int, seed: int, horizon: float = 1.0, band: float = 0.1,
                      threads: int = 1) -> montecarlo.BoundReport:
    """Exact Langevin batch against the closed-form kernel scaled by 1 -+ band."""
    law = kolmogorov.langevin_law(0.0, 0.0, horizon)
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


def _fit_then_verify(model, grid, stat_of, n, seed, fit_seed, horizon, dt, threads,
                     window=np.inf) -> montecarlo.BoundReport:
    """Fit exp(a - b*stat) envelopes per side on the fit seed's EM batch, then
    count the violations of an independent EM batch on `seed`.

    `stat_of` maps the (n_cells, d) cell centers to the envelope statistic;
    only cells with stat <= window enter the fit and the check.
    """
    dt = dt if dt is not None else horizon / 200.0
    fit_seed = fit_seed if fit_seed is not None else seed + 1
    start = np.zeros(model.dim)

    fit_est = montecarlo.estimate_density(
        montecarlo.euler_maruyama(model, start, horizon, dt, n, fit_seed, threads=threads),
        grid,
    )
    stat = stat_of(fit_est.center_grid())
    in_window = stat <= window
    mask = in_window & (fit_est.counts.ravel() >= 25)
    if mask.sum() < 2:
        raise ValueError(f"{mask.sum()} window cells hold >= 25 fit paths; the fit needs 2")
    logd = np.log(fit_est.density.ravel()[mask])
    lo = montecarlo.fit_log_envelope(stat[mask], logd, "lower", slack=0.05)
    up = montecarlo.fit_log_envelope(stat[mask], logd, "upper", slack=0.05)

    est = montecarlo.estimate_density(
        montecarlo.euler_maruyama(model, start, horizon, dt, n, seed, threads=threads),
        grid,
    )
    return montecarlo.compare_bounds(
        est,
        lambda c: lo[0] * np.exp(-lo[1] * stat),
        lambda c: up[0] * np.exp(-up[1] * stat),
        where=lambda c: in_window,
    )


def verify_heat(n: int, seed: int, fit_seed: int | None = None, horizon: float = 1.0,
                dt: float | None = None, threads: int = 1) -> montecarlo.BoundReport:
    """1-D heat kernel batch against fitted Gaussian-shaped envelopes."""
    return _fit_then_verify(models.heat(1), [(-5.0, 5.0, 60)],
                            lambda c: c[:, 0] ** 2 / horizon,
                            n, seed, fit_seed, horizon, dt, threads)


def verify_heisenberg(n: int, seed: int, fit_seed: int | None = None,
                      horizon: float = 1.0, dt: float | None = None,
                      window: float = 8.0, threads: int = 1) -> montecarlo.BoundReport:
    """Heisenberg heat-kernel batch against fitted sub-Riemannian envelopes.

    At the fixed horizon gap the envelopes have the shape
    amplitude * exp(-rate d_CC^2/gap), the volume factor 1/|B_sqrt(gap)| of
    `heisenberg.cc_envelope` being absorbed into the fitted amplitude; the
    comparison is restricted to cells with d_CC^2/gap <= window, and the
    constants come from the disjoint fit seed.
    """
    return _fit_then_verify(models.HEISENBERG,
                            [(-3.5, 3.5, 16), (-3.5, 3.5, 16), (-2.0, 2.0, 12)],
                            lambda c: heisenberg.cc_distance_batch(c).distance ** 2 / horizon,
                            n, seed, fit_seed, horizon, dt, threads, window)
