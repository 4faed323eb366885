"""hypoflow benchmark: run one workload for one seed and print its metrics.

usage: python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (the package is imported from ``src/``).  One
closed-loop client in one process sends the workload's fixed operation list
again and again for ``--seconds`` seconds, each operation only after the last
one finished; the CLI runs with its default ``--threads``.  Outputs are
checked after every operation, outside its timed region.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of a
separate traced run (see bench/README.md).  The last line of standard output
is one JSON object {"correct", "attempted", "failed", "metrics"}; the line
before it, prefixed ``record``, carries the environment, the tail percentile
and sample count, the per-kind latencies and every failure message.  Both go
to .bench_work/records/ as well, with the spans of a traced run.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
MIN_PASSES = 4      # with at least 7 ops a pass, more than TAIL_BEYOND latencies
TAIL_BEYOND = 10


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def tail_latency(samples):
    """Highest percentile with at least TAIL_BEYOND samples above it.

    Returns (value, percentile, sample count): the value is the
    (TAIL_BEYOND + 1)-th largest sample, at percentile 100 (n - 10) / n.
    """
    n = len(samples)
    if n <= TAIL_BEYOND:
        raise ValueError(f"need more than {TAIL_BEYOND} samples for a tail, got {n}")
    return sorted(samples)[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def fail_fraction(attempted: int, failed: int) -> float:
    if attempted < 1:
        raise ValueError("no operation attempted")
    return failed / attempted


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------

@dataclass
class PassResult:
    latencies: list = field(default_factory=list)   # (kind, seconds)
    failures: list = field(default_factory=list)    # (kind, message)
    work: float = 0.0
    spans: tuple = (0, 0)                           # tracer span index range

    @property
    def wall(self) -> float:
        return sum(s for _, s in self.latencies)


def run_pass(ops, tracer=None, digests=None) -> PassResult:
    """Run every op once, timing only its call; check it afterwards.

    An exception, a failed check or CLI artifacts that differ from the ones
    this op wrote in an earlier pass (``digests``) each count as one failure.
    """
    from workloads import artifact_digest

    result = PassResult()
    first = tracer.mark() if tracer else 0
    for i, op in enumerate(ops):
        if tracer:
            tracer.enabled = True
        t0 = time.perf_counter()
        try:
            out, failure = op.call(), None
        except Exception as exc:  # an operation failing is a result, not a crash
            out, failure = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        if tracer:
            tracer.enabled = False
        if failure is None:
            try:
                failure = op.check(out)
                if failure is None and op.outdir is not None and digests is not None:
                    digest = artifact_digest(op.outdir)
                    if digests.setdefault(i, digest) != digest:
                        failure = "CLI artifacts differ from an earlier repeat"
            except Exception as exc:
                failure = f"check raised {type(exc).__name__}: {exc}"
        result.latencies.append((op.kind, elapsed))
        result.work += op.work
        if failure is not None:
            result.failures.append((op.kind, failure))
    result.spans = (first, tracer.mark() if tracer else 0)
    return result


def measure(ops, seconds, tracer=None, midway=None):
    """Repeat the op list for `seconds`; with a tracer, alternate untraced and traced passes.

    `midway`, if given, runs once between passes after half the time.
    """
    digests = {}
    plain, traced = [], []
    start = time.perf_counter()
    k = 0
    while True:
        if midway is not None and time.perf_counter() - start >= seconds / 2:
            midway()
            midway = None
        if tracer is None:
            plain.append(run_pass(ops, digests=digests))
        else:
            order = (None, tracer) if k % 2 == 0 else (tracer, None)
            for tr in order:
                (traced if tr else plain).append(run_pass(ops, tr, digests))
        k += 1
        # the tail needs the passes; a traced run reports no tail
        enough = len(plain) >= (MIN_PASSES if tracer is None else 2)
        if enough and time.perf_counter() - start >= seconds:
            return plain, traced


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def end_to_end(passes, setup):
    """Pass time and throughput are totals over the run, not medians of passes:
    the machine's speed switches between states that last seconds, and a
    median of a dozen passes jumps between those states where a total does not."""
    lat = [s for p in passes for _, s in p.latencies]
    tail, pct, n = tail_latency(lat)
    busy = sum(p.wall for p in passes)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (busy / len(passes), "s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "op_tail_ms": (tail * 1e3, "ms"),
        "work_per_s": (sum(p.work for p in passes) / busy, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return metrics, {"tail_percentile": pct, "latency_samples": n, "passes": len(passes)}


def _extractors():
    def arg(args, kwargs, i, name):
        return args[i] if len(args) > i else kwargs[name]

    return {
        "montecarlo.sample_gaussian_exact": lambda a, k, r: {"units": r.n},
        "montecarlo.estimate_density": lambda a, k, r: {"units": r.n},
        "montecarlo.euler_maruyama": lambda a, k, r: {
            "model": r.model, "units": r.n * round(r.horizon / r.dt)},
        "montecarlo.save_batch": lambda a, k, r: {
            "units": arg(a, k, 0, "batch").endpoints.nbytes},
        "heisenberg.cc_distance_batch": lambda a, k, r: {"units": len(r[0])},
        "heisenberg.cc_distance": lambda a, k, r: {"fallback": r.solver == "brute-force"},
        "asian.yor_density": lambda a, k, r: {"mpmath": arg(a, k, 2, "t") < 0.6},
        "kolmogorov.gamma0": lambda a, k, r: {"units": int(getattr(r, "size", 1))},
        "paths.integrate_path": lambda a, k, r: {"units": len(r.samples) - 1},
    }


def per_layer(tracer, sample, probe, overhead):
    """Per-layer metrics over the traced sample: the median traced pass plus the probes."""
    from tracing import MODULES, self_times

    own = self_times(tracer.spans)
    idx = [i for lo, hi in (sample.spans, probe.spans) for i in range(lo, hi)]
    spans = [tracer.spans[i] for i in idx]
    wall = sample.wall + probe.wall
    metrics = {}
    for m in MODULES:
        mine = [i for i in idx if tracer.spans[i].module == m]
        metrics[f"{m}.calls"] = (len(mine), "count")
        metrics[f"{m}.self_s"] = (sum(own[i] for i in mine), "s")
    top = sum(s.duration for s in spans if s.parent < 0)
    metrics["harness.self_s"] = (wall - top, "s")
    workload_profile = {m: sum(own[i] for i in range(*sample.spans)
                               if tracer.spans[i].module == m) for m in MODULES}

    def per_unit(name, scale, where=lambda s: True, by_units=True):
        sel = [s for s in spans if s.name == name and where(s)]
        units = sum(s.work["units"] for s in sel) if by_units else len(sel)
        if not units:
            raise RuntimeError(f"traced sample has no {name} call")
        return sum(s.duration for s in sel) * scale / units

    mc, hz, asn = "montecarlo.", "heisenberg.", "asian."
    metrics[mc + "exact_ns_per_draw"] = (per_unit(mc + "sample_gaussian_exact", 1e9), "ns")
    metrics[mc + "hist_ns_per_point"] = (per_unit(mc + "estimate_density", 1e9), "ns")
    for model in ("heat1", "heisenberg", "asian"):
        metrics[f"{mc}em_ns_per_path_step.{model}"] = (per_unit(
            mc + "euler_maruyama", 1e9, lambda s, m=model: s.work["model"] == m), "ns")
    metrics[mc + "save_batch_MBps"] = (1.0 / per_unit(mc + "save_batch", 1e6), "MB/s")
    singles = [s for s in spans if s.name == hz + "cc_distance"]
    metrics[hz + "single_ms_per_pair"] = (per_unit(hz + "cc_distance", 1e3, by_units=False), "ms")
    metrics[hz + "brute_ms_per_solve"] = (
        per_unit(hz + "cc_distance_brute", 1e3, by_units=False), "ms")
    metrics[hz + "brute_fallback_frac"] = (
        sum(s.work["fallback"] for s in singles) / len(singles), "fraction")
    # batch calls made for a single pair or for the ball volume are not batch throughput
    metrics[hz + "batch_us_per_cell"] = (per_unit(
        hz + "cc_distance_batch", 1e6,
        lambda s: s.parent < 0 or not tracer.spans[s.parent].name.startswith(hz)), "us")
    metrics[hz + "ball_volume_s"] = (
        per_unit(hz + "estimate_unit_ball_volume", 1.0, by_units=False), "s")
    metrics[asn + "yor_float_ms_per_point"] = (per_unit(
        asn + "yor_density", 1e3, lambda s: not s.work["mpmath"], by_units=False), "ms")
    metrics[asn + "yor_mpmath_ms_per_point"] = (per_unit(
        asn + "yor_density", 1e3, lambda s: s.work["mpmath"], by_units=False), "ms")
    for name in ("value_psi", "hjb_residual", "g_inverse"):
        metrics[f"{asn}{name}_us"] = (per_unit(asn + name, 1e6, by_units=False), "us")
    metrics["kolmogorov.gamma0_ns_per_point"] = (per_unit("kolmogorov.gamma0", 1e9), "ns")
    metrics["paths.rk4_us_per_step"] = (per_unit("paths.integrate_path", 1e6), "us")
    chains = [s for s in spans if s.name in ("harnack.build_parabolic_chain",
                                             "harnack.build_path_chain")]
    metrics["harnack.chain_ms"] = (sum(s.duration for s in chains) * 1e3 / len(chains), "ms")
    metrics["quadratic.certify_s"] = (
        per_unit("quadratic.certify_grid_reachability", 1.0, by_units=False), "s")
    metrics["tracing_overhead_frac"] = (overhead, "fraction")
    return metrics, {"traced_sample_wall_s": wall,
                     "module_self_s_sum": sum(metrics[f"{m}.self_s"][0] for m in MODULES),
                     "median_traced_pass_s": sample.wall,
                     "median_traced_pass_self_s": workload_profile}


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------

def _cpu_model() -> str:
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    with contextlib.suppress(OSError):
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown (not a git checkout)"


def _with_cli_threads(fn, *args):
    """fn(*args) and the --threads value the CLI parsed during it."""
    seen = {}
    parse = argparse.ArgumentParser.parse_args

    def spy(self, *a, **kw):
        ns = parse(self, *a, **kw)
        seen.setdefault("threads", getattr(ns, "threads", None))
        return ns

    argparse.ArgumentParser.parse_args = spy
    try:
        return fn(*args), seen.get("threads")
    finally:
        argparse.ArgumentParser.parse_args = parse


def environment(args, cli_threads):
    import mpmath
    import numpy
    import scipy

    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": _cpu_model(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "mpmath": mpmath.__version__, "commit": _git_commit(),
            "cli_threads": cli_threads}


# ---------------------------------------------------------------------------
# Running one workload
# ---------------------------------------------------------------------------

def time_setup(workload, workdir, times):
    """Time one fresh set-up process and append its wall time to `times`."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("setup_probe.py")), workload,
         str(workdir / f"setup-{len(times)}")], cwd=ROOT, stdout=subprocess.DEVNULL, timeout=120)
    times.append(time.perf_counter() - t0)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe exited {proc.returncode}")


def parse_args(argv):
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                    help="'all' runs each workload in its own process and lists every metric")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "hypoflow" / "__init__.py").is_file():
        print(f"no hypoflow sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    workdir = WORK / f"run-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        return _run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_all(args) -> int:
    """Each workload in a fresh process; prints every metric by name and unit."""
    from workloads import WORKLOADS

    correct = True
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        correct = correct and result["correct"]
        frac = fail_fraction(result["attempted"], result["failed"])
        print(f"{workload}: fail_frac = {frac:.6g} ({result['failed']} of {result['attempted']})")
        for name, metric in result["metrics"].items():
            print(f"  {workload}.{name} = {metric['value']:.6g} {metric['unit']}")
    return 0 if correct else 1


def _run(args, workdir) -> int:
    # Set-up is timed before, halfway through and after the passes, so that
    # its median does not hang on one state of the machine.
    setup = []
    if not args.trace:
        time_setup(args.workload, workdir, setup)
    import hypoflow
    import workloads
    from setup_probe import WARMUP

    if Path(hypoflow.__file__).resolve().parent != SRC / "hypoflow":
        print(f"imported hypoflow from {hypoflow.__file__}, not {SRC}", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    ops = [workloads.materialize(spec, workdir / f"op-{i}")
           for i, spec in enumerate(workloads.specs(args.workload, args.seed))]
    record = {"prepare_s": time.perf_counter() - t0}
    warm = [workloads.materialize(spec, workdir / f"warmup-{i}")
            for i, spec in enumerate(WARMUP[args.workload])]
    with open(os.devnull, "w") as devnull, contextlib.redirect_stdout(devnull):
        warmup, threads = _with_cli_threads(run_pass, warm)
        if args.trace:
            metrics, runs = traced_run(ops, args, workdir, record)
        else:
            runs, _ = measure(ops, args.seconds,
                              midway=lambda: time_setup(args.workload, workdir, setup))
            while len(setup) < 3:
                time_setup(args.workload, workdir, setup)
            metrics, extra = end_to_end(runs, setup)
            record.update(extra)
    runs.insert(0, warmup)
    failures = [f for p in runs for f in p.failures]
    attempted = sum(len(p.latencies) for p in runs)
    kinds = {}
    for p in runs:
        for kind, s in p.latencies:
            kinds.setdefault(kind, []).append(s)
    diagnostics = {}
    for op in ops:
        if op.diagnostics:
            diagnostics.setdefault(op.kind, []).append(op.diagnostics)
    record.update(
        env=environment(args, threads), setup_s=setup,
        fail_frac=fail_fraction(attempted, len(failures)),
        kind_median_ms={k: statistics.median(v) * 1e3 for k, v in kinds.items()},
        diagnostics=diagnostics,
        failures=[f"{k}: {m}" for k, m in failures[:50]])
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if declared != {k: u for k, (_, u) in metrics.items()}:
        print("metrics do not match BENCHMARK.json", file=sys.stderr)
        return 1
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    _write_record(f"{stem}.json", {"record": record, "result": result})
    print("record " + json.dumps(record, default=float))
    print(json.dumps(result, default=float))
    return 0


def traced_run(ops, args, workdir, record):
    """Untraced and traced passes, then the layer probes; returns (metrics, passes)."""
    import probes
    from tracing import Tracer, install

    speedup, single_ns, nproc, thread_failure = probes.threads_speedup(args.seed)
    probe_ops = probes.layer_probes(args.seed, workdir)
    tracer = Tracer()
    undo = install(tracer, _extractors())
    try:
        passes, traced = measure(ops, args.seconds, tracer)
        probe = run_pass(probe_ops, tracer)
    finally:
        undo()
    if thread_failure:
        probe.failures.append(("probe:em_threads", thread_failure))
    # passes alternate, so neighbours share the machine's state
    overhead = statistics.median(t.wall / p.wall for t, p in zip(traced, passes)) - 1.0
    sample = sorted(traced, key=lambda p: p.wall)[(len(traced) - 1) // 2]
    metrics, extra = per_layer(tracer, sample, probe, overhead)
    metrics["montecarlo.em_threads_speedup"] = (speedup, "x")
    record.update(extra, em_threads={"threads": nproc, "speedup": speedup,
                                     "single_thread_ns_per_path_step": single_ns})
    _write_record(f"spans-{args.workload}-seed{args.seed}.json",
                  [[s.name, s.parent, s.start, s.end, s.work] for s in tracer.spans])
    return metrics, passes + traced + [probe]


def _write_record(name, payload):
    records = WORK / "records"
    records.mkdir(parents=True, exist_ok=True)
    (records / name).write_text(json.dumps(payload, default=float))


if __name__ == "__main__":
    sys.exit(main())
