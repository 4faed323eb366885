"""Seeded, chunk-deterministic samplers, histogram densities and bound checks.

Reproducibility contract: batches are a pure function of
(model, z0, T, dt | exact, n, seed).  Sampling is split into fixed chunks of
2^16 draws; chunk i uses its own Philox stream keyed by (seed, i) and writes
rows [i * 2^16, (i + 1) * 2^16) of the batch, so the batch is identical no
matter how many workers produced it.  Samplers default to `CORES` threads.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

from .kolmogorov import GaussianLaw
from .models import Model

__all__ = [
    "CHUNK",
    "CORES",
    "SampleBatch",
    "DensityEstimate",
    "BoundReport",
    "exact_law",
    "sample_gaussian_exact",
    "euler_maruyama",
    "estimate_density",
    "column_moments",
    "compare_bounds",
    "chi_square_gof",
    "fit_log_envelope",
    "variance_slope",
    "fit_loglog_slopes",
    "save_batch",
    "load_batch",
]

CHUNK = 1 << 16
# The cores this process may run on: the default thread count of every sampler
CORES = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
         else os.cpu_count() or 1)
_Z99 = 2.575829303548901  # two-sided 99% normal quantile
MIN_EXPECTED = 5.0  # chi-square cells expecting fewer counts are pooled


@dataclass(frozen=True)
class SampleBatch:
    """Endpoint matrix of a simulated process with its provenance."""

    model: str
    endpoints: np.ndarray
    horizon: float
    n: int
    seed: int
    scheme: str
    dt: float = 0.0
    floored: int = 0  # asian path-steps clipped at the price floor np.finfo(float).tiny

    def __post_init__(self):
        endpoints = np.atleast_2d(np.asarray(self.endpoints, dtype=float))
        if endpoints.shape[0] != self.n:
            raise ValueError("endpoint count does not match n")
        object.__setattr__(self, "endpoints", endpoints)


def _chunk_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.array([seed, index], dtype=np.uint64)))


def _chunk_sizes(n: int):
    if n < 1:
        raise ValueError("need n >= 1")
    sizes = [CHUNK] * (n // CHUNK)
    if n % CHUNK:
        sizes.append(n % CHUNK)
    return sizes


def _run_chunks(worker, sizes, threads: int):
    """Evaluate worker(i, size) for each chunk; merge order is fixed by index,
    so the thread count cannot change the result.  A single chunk, or a
    single thread, runs inline."""
    if threads <= 1 or len(sizes) == 1:
        return [worker(i, k) for i, k in enumerate(sizes)]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=min(threads, len(sizes))) as pool:
        return list(pool.map(worker, range(len(sizes)), sizes))


def exact_law(model: Model, start, horizon: float) -> GaussianLaw:
    """Exact Gaussian law of the endpoint after `horizon` > 0 from the spatial `start`.

    The covariance is the origin law's, `model.exact_cov(horizon)`; left
    translation by (start, 0) moves the mean to the group-law transport of
    `start`.  Raises DomainError for models without a Gaussian transition law.
    """
    if not horizon > 0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    cov = model.exact_cov(horizon)
    mean = model.compose([*start, 0.0], [0.0] * model.dim + [-horizon])[:-1]
    return GaussianLaw(mean, cov)


def sample_gaussian_exact(law: GaussianLaw, n: int, seed: int,
                          threads: int = CORES) -> SampleBatch:
    """Exact Gaussian endpoints: sqrt-of-covariance transform of iid normals."""
    root = law.sqrt_cov()
    dim = law.mean.size
    sizes = _chunk_sizes(n)
    out = np.empty((n, dim))

    def worker(i, k):
        z = _chunk_rng(seed, i).standard_normal((k, dim))
        rows = out[i * CHUNK:i * CHUNK + k]
        np.matmul(z, root.T, out=rows)
        rows += law.mean

    _run_chunks(worker, sizes, threads)
    return SampleBatch("gaussian", out, 0.0, n, seed, "exact")


def _em_chunk(model: Model, z0, n_steps, dt, rng, rows):
    """Run len(rows) paths and write their endpoints into `rows`; returns the
    number of floored path-steps."""
    z = np.repeat(z0[:, None], len(rows), axis=1)
    floored = 0
    for _ in range(n_steps):
        dw = rng.standard_normal((model.n_controls, len(rows))) * np.sqrt(dt)
        floored += model.em_step(z, dw, dt)
    rows[...] = z.T
    return floored


def euler_maruyama(
    model: Model, z0, T: float, dt: float, n: int, seed: int, threads: int = CORES,
) -> SampleBatch:
    """Strong Euler-Maruyama endpoints of the model's own SDE at horizon T from
    the spatial start z0, model.dim coordinates in the model's domain.  T and
    dt must be finite and positive, with dt dividing T and dt <= T/100."""
    if not (0.0 < T < np.inf and 0.0 < dt < np.inf):
        raise ValueError(f"need finite T > 0 and dt > 0, got T={T}, dt={dt}")
    if dt > T / 100.0 + 1e-15:
        raise ValueError("need dt <= T/100")
    if abs(round(T / dt) - T / dt) > 1e-9:
        raise ValueError("dt must divide T")
    z0 = np.asarray(z0, dtype=float).ravel()
    if z0.size != model.dim:
        raise ValueError(f"{model.name}: start needs {model.dim} coordinates, got {z0.size}")
    z0 = model.check_point(np.append(z0, 0.0))[:-1]
    n_steps = int(round(T / dt))
    sizes = _chunk_sizes(n)
    out = np.empty((n, z0.size))

    def worker(i, k):
        return _em_chunk(model, z0, n_steps, dt, _chunk_rng(seed, i),
                         out[i * CHUNK:i * CHUNK + k])

    floored = _run_chunks(worker, sizes, threads)
    return SampleBatch(model.name, out, T, n, seed, f"euler({dt:g})", dt, sum(floored))


# ---------------------------------------------------------------------------
# Histogram density estimation and bound comparison
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DensityEstimate:
    """Histogram density with per-cell 99% Poisson confidence radii."""

    edges: list
    counts: np.ndarray
    density: np.ndarray
    ci99: np.ndarray
    n: int
    n_in_grid: int

    @property
    def centers(self):
        return [0.5 * (e[1:] + e[:-1]) for e in self.edges]

    def center_grid(self):
        """(n_cells, d) matrix of cell centers in C order."""
        mesh = np.meshgrid(*self.centers, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)

    @property
    def cell_volume(self) -> float:
        return float(np.prod([e[1] - e[0] for e in self.edges]))


def _grid_edges(grid, dim: int):
    """Per-axis linspace edges of the (lo, hi, nbins) triples; each axis needs
    finite lo < hi, an integer nbins >= 1 and strictly increasing edges."""
    if len(grid) != dim:
        raise ValueError(f"grid has {len(grid)} axes; the batch has {dim} columns")
    edges = []
    for lo, hi, nb in grid:
        if isinstance(nb, bool) or not isinstance(nb, (int, np.integer)) or nb < 1:
            raise ValueError(f"nbins must be an integer >= 1, got {nb!r}")
        if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
            raise ValueError(f"grid axis needs finite lo < hi, got ({lo}, {hi})")
        e = np.linspace(lo, hi, nb + 1)
        if not np.all(e[1:] > e[:-1]):
            raise ValueError(f"{nb} bins on ({lo}, {hi}) do not have strictly increasing edges")
        edges.append(e)
    return edges


def _bin_index(x, e):
    """Bin of each x on the increasing edges e, as np.histogramdd bins it:
    i with e[i] <= x < e[i+1], and nb - 1 for x == e[-1]; -1 below the grid,
    nb above it or NaN.

    The guess from the uniform spacing is kept where the exact edges confirm
    it; the few points it misses (outside the grid, NaN, or within rounding
    of an edge) are placed by a binary search on the same edges.
    """
    nb = e.size - 1
    with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN cast to junk
        i = ((x - e[0]) * (nb / (e[-1] - e[0]))).astype(np.intp)
    np.clip(i, 0, nb - 1, out=i)
    ok = np.take(e, i) <= x
    ok &= x < np.take(e[1:], i)
    miss = np.flatnonzero(~ok)
    if miss.size:
        xm = x[miss]
        j = np.searchsorted(e, xm, side="right") - 1
        j[xm == e[-1]] = nb - 1
        i[miss] = j
    return i


def estimate_density(batch: SampleBatch, grid) -> DensityEstimate:
    """Bin the batch endpoints on a rectangular grid, CHUNK rows at a time.

    `grid` is a list of per-axis (lo, hi, nbins) triples with finite
    lo < hi and integer nbins >= 1 (else ValueError).  Counts equal
    np.histogramdd's on the linspace edges: a point on the last edge counts
    in the last bin, points outside the grid and NaN are dropped.  Density =
    count/(n * cell volume); the CI radius uses the Poisson normal
    approximation z99 * sqrt(count + 1)/(n * cell volume) (the +1 keeps
    empty cells honest).
    """
    if batch.n == 0:
        raise ValueError("empty batch")
    edges = _grid_edges(grid, batch.endpoints.shape[1])
    # one padding bin per side of each axis takes the points outside the grid
    shape = [e.size + 1 for e in edges]
    pad = int(np.ravel_multi_index([1] * len(edges), shape))
    tally = np.zeros(int(np.prod(shape)), dtype=np.intp)
    pts = batch.endpoints
    for start in range(0, len(pts), CHUNK):
        block = pts[start:start + CHUNK]
        flat = 0
        for ax, e in enumerate(edges):
            flat = flat * shape[ax] + _bin_index(np.ascontiguousarray(block[:, ax]), e)
        flat += pad
        tally += np.bincount(flat, minlength=tally.size)
    counts = tally.reshape(shape)[(slice(1, -1),) * len(edges)].astype(float)
    vol = float(np.prod([e[1] - e[0] for e in edges]))
    density = counts / (batch.n * vol)
    ci = _Z99 * np.sqrt(counts + 1.0) / (batch.n * vol)
    return DensityEstimate(edges, counts, density, ci, batch.n, int(counts.sum()))


def column_moments(a):
    """(a.mean(axis=0), a.var(axis=0, ddof=1)) of an (n, d) array, n >= 2,
    bit for bit, without numpy's row-at-a-time reduction.

    On a C-ordered array with d >= 2 columns numpy sums along axis 0 strictly
    left to right from 0.0, one row per step.  Here each CHUNK of rows is
    summed by a cumulative sum seeded with the running total, which groups
    the additions the same way; the squared deviations are formed a chunk at
    a time.  Any other layout (one column, or not C-ordered) goes to numpy
    itself, which may sum it pairwise.
    """
    a = np.asarray(a, dtype=float)
    n, d = a.shape
    if n < 2:
        raise ValueError("need n >= 2 rows for a ddof=1 variance")
    if d == 1 or not a.flags.c_contiguous:
        return a.mean(axis=0), a.var(axis=0, ddof=1)
    buf = np.empty((min(n, CHUNK), d))

    def column_sums(fill):
        total = np.zeros(d)
        for start in range(0, n, CHUNK):
            rows = buf[:min(CHUNK, n - start)]
            fill(rows, a[start:start + CHUNK])
            rows[0] += total
            np.cumsum(rows, axis=0, out=rows)
            total = rows[-1].copy()
        return total

    mean = column_sums(np.copyto) / n

    def squared_deviations(rows, block):
        np.subtract(block, mean, out=rows)
        np.multiply(rows, rows, out=rows)

    return mean, column_sums(squared_deviations) / (n - 1)


@dataclass(frozen=True)
class BoundReport:
    """Per-cell comparison of an empirical density against envelopes."""

    cells_checked: int
    lower_violations: int
    upper_violations: int
    violation_fraction: float
    policy: str = "violation iff the 99% CI excludes the envelope"

    def to_json_dict(self):
        return {
            "cells_checked": self.cells_checked,
            "lower_violations": self.lower_violations,
            "upper_violations": self.upper_violations,
            "violation_fraction": self.violation_fraction,
            "policy": self.policy,
        }


def compare_bounds(est: DensityEstimate, lower, upper, where=None) -> BoundReport:
    """Count cells whose CI lies strictly below `lower` or above `upper`.

    `lower` and `upper` map an (n_cells, d) array of cell centers to envelope
    values; `where` optionally masks the cells entering the check.
    """
    centers = est.center_grid()
    lo = np.asarray(lower(centers), dtype=float).ravel()
    up = np.asarray(upper(centers), dtype=float).ravel()
    if not np.all(np.isfinite(lo)):
        raise ValueError("lower envelope must be finite on the grid")
    if np.any(np.isnan(up)) or np.any(up < 0):
        raise ValueError("upper envelope must be nonnegative (+inf allowed)")
    dens = est.density.ravel()
    ci = est.ci99.ravel()
    mask = np.ones(dens.size, dtype=bool) if where is None else np.asarray(where(centers), bool)
    low_bad = mask & (dens + ci < lo)
    up_bad = mask & (dens - ci > up)
    checked = int(mask.sum())
    lv, uv = int(low_bad.sum()), int(up_bad.sum())
    frac = (lv + uv) / checked if checked else 0.0
    return BoundReport(checked, lv, uv, frac)


def fit_log_envelope(stat, log_density, side: str, slack: float = 0.0):
    """Fit (amplitude, rate) of an envelope exp(a - b*stat) hugging the data.

    Least-squares line through (stat, log_density), then the intercept is
    shifted to the extreme residual (minus/plus `slack`) so the fitted side
    clears every point of the fitting sample.  Returns (amplitude, rate).
    """
    stat = np.asarray(stat, dtype=float)
    log_density = np.asarray(log_density, dtype=float)
    b, a = np.polyfit(stat, log_density, 1)
    resid = log_density - (a + b * stat)
    if side == "lower":
        a_shift = a + resid.min() - slack
    elif side == "upper":
        a_shift = a + resid.max() + slack
    else:
        raise ValueError("side must be 'lower' or 'upper'")
    return float(np.exp(a_shift)), float(-b)


# ---------------------------------------------------------------------------
# Variance scaling
# ---------------------------------------------------------------------------

def chi_square_gof(counts, expected_probs, n: int):
    """Pearson chi-square of binned counts against exact cell probabilities.

    Cells with expected count below MIN_EXPECTED are pooled, and the mass
    outside the grid becomes one extra bucket, so the statistic is honest for
    unbounded supports.  Returns (statistic, dof, p_value).
    """
    from scipy.stats import chi2

    counts = np.asarray(counts, dtype=float).ravel()
    probs = np.asarray(expected_probs, dtype=float).ravel()
    if probs.size != counts.size:
        raise ValueError("expected_probs must match counts")
    outside_p = max(1.0 - probs.sum(), 0.0)
    outside_c = n - counts.sum()
    expected = probs * n
    big = expected >= MIN_EXPECTED
    obs = list(counts[big])
    exp = list(expected[big])
    pool_o = counts[~big].sum() + outside_c
    pool_e = expected[~big].sum() + outside_p * n
    if pool_e > 0:
        obs.append(pool_o)
        exp.append(pool_e)
    obs = np.array(obs)
    exp = np.array(exp)
    stat = float(np.sum((obs - exp) ** 2 / exp))
    dof = obs.size - 1
    return stat, dof, float(chi2.sf(stat, dof))


def fit_loglog_slopes(times, variances):
    """Least-squares slope of log Var against log t, one per coordinate."""
    times = np.asarray(times, dtype=float)
    var = np.atleast_2d(np.asarray(variances, dtype=float))
    if var.shape[0] != times.size:
        raise ValueError("variances must have one row per time")
    if np.any(var <= 0):
        raise ValueError("degenerate (non-positive) variance")
    lt = np.log(times)
    return np.array([np.polyfit(lt, np.log(var[:, j]), 1)[0] for j in range(var.shape[1])])


def variance_slope(model: Model, times, n: int, seed: int):
    """Fitted variance-growth exponents per coordinate across the time battery.

    Each time is sampled from the model's closed-form Gaussian law
    (`exact_law`), on seed + its index in the sorted battery.  Requires at
    least four times spanning a decade.
    """
    times = np.sort(np.asarray(times, dtype=float))
    if times.size < 4 or times[-1] / times[0] < 10.0 - 1e-9:
        raise ValueError("need >= 4 times spanning at least a decade")
    rows = []
    for i, t in enumerate(times):
        batch = sample_gaussian_exact(exact_law(model, np.zeros(model.dim), t), n, seed + i)
        rows.append(column_moments(batch.endpoints)[1])
    return fit_loglog_slopes(times, np.array(rows))


# ---------------------------------------------------------------------------
# Flat binary persistence
# ---------------------------------------------------------------------------

_MAGIC = b"HYPF"
_VERSION = 2
_HEADER = "<4sI32sQQd32sdQQ"


def save_batch(batch: SampleBatch, path):
    """Flat binary layout: fixed header then row-major float64 endpoints."""
    name = batch.model.encode()[:32].ljust(32, b"\0")
    scheme = batch.scheme.encode()[:32].ljust(32, b"\0")
    header = struct.pack(
        _HEADER,
        _MAGIC,
        _VERSION,
        name,
        batch.n,
        batch.seed,
        batch.horizon,
        scheme,
        batch.dt,
        batch.endpoints.shape[1],
        batch.floored,
    )
    with open(path, "wb") as fh:
        fh.write(header)
        np.ascontiguousarray(batch.endpoints, dtype="<f8").tofile(fh)


def load_batch(path) -> SampleBatch:
    """The batch `save_batch` wrote; a payload that is not exactly n rows of
    the header's column count raises ValueError."""
    with open(path, "rb") as fh:
        head = fh.read(struct.calcsize(_HEADER))
        try:
            magic, version, name, n, seed, horizon, scheme, dt, ncols, floored = struct.unpack(
                _HEADER, head
            )
        except struct.error as exc:
            raise ValueError(f"not a hypoflow batch file: {exc}") from exc
        if magic != _MAGIC:
            raise ValueError("not a hypoflow batch file")
        if version != _VERSION:
            raise ValueError(f"unsupported batch version {version}")
        payload = os.fstat(fh.fileno()).st_size - len(head)
        if payload != 8 * n * ncols:
            raise ValueError(f"batch payload holds {payload} bytes; "
                             f"{n} rows of {ncols} columns need {8 * n * ncols}")
        data = np.fromfile(fh, dtype="<f8", count=n * ncols).reshape(n, ncols)
    return SampleBatch(
        name.rstrip(b"\0").decode(),
        data,
        horizon,
        n,
        seed,
        scheme.rstrip(b"\0").decode(),
        dt,
        floored,
    )
