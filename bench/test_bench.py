"""Self-tests for the benchmark harness (not part of tier-1).

Run from the repository root: python3 -m pytest -q bench/test_bench.py
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Span, Tracer, install, self_times  # noqa: E402
from workloads import Op  # noqa: E402


class TestTailRule:
    def test_at_least_ten_samples_beyond(self):
        for n in (11, 12, 37, 100, 1000):
            samples = [float(i) for i in range(n)][::-1]
            value, pct, count = run.tail_latency(samples)
            assert count == n
            assert sum(s > value for s in samples) == 10
            assert pct == pytest.approx(100.0 * (n - 10) / n)

    def test_hundred_samples_give_p90(self):
        value, pct, _ = run.tail_latency([float(i) for i in range(1, 101)])
        assert (value, pct) == (90.0, 90.0)

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            run.tail_latency([1.0] * 10)


class TestSelfTime:
    def test_nested_spans(self):
        #  A [0, 10]: B [1, 4] (D [2, 3] inside), C [5, 9]
        spans = [Span("a.f", -1, 0.0, 10.0), Span("b.g", 0, 1.0, 4.0),
                 Span("d.h", 1, 2.0, 3.0), Span("c.k", 0, 5.0, 9.0)]
        assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])
        assert sum(self_times(spans)) == pytest.approx(spans[0].duration)

    def test_tracer_records_parents(self):
        ticks = iter(range(100))
        tracer = Tracer(clock=lambda: float(next(ticks)))
        tracer.enabled = True

        def inner():
            return 1

        def outer():
            return tracer.call("m.inner", inner, None, (), {}) + 1

        assert tracer.call("m.outer", outer, None, (), {}) == 2
        outer_span, inner_span = tracer.spans
        assert inner_span.parent == 0 and outer_span.parent == -1
        assert self_times(tracer.spans) == [outer_span.duration - inner_span.duration,
                                            inner_span.duration]

    def test_install_traces_internal_calls_and_undoes(self):
        from hypoflow import montecarlo, verify

        original = montecarlo.sample_gaussian_exact
        tracer = Tracer()
        undo = install(tracer, run._extractors())
        try:
            tracer.enabled = True
            verify.verify_kolmogorov(5000, 1)
        finally:
            tracer.enabled = False
            undo()
        assert montecarlo.sample_gaussian_exact is original
        names = [s.name for s in tracer.spans]
        assert names[0] == "verify.verify_kolmogorov"
        child = tracer.spans[names.index("montecarlo.sample_gaussian_exact")]
        assert child.parent == 0 and child.work == {"units": 5000}
        # top-level span time = sum of the self times below it
        assert sum(self_times(tracer.spans)) == pytest.approx(tracer.spans[0].duration)


class TestFailureCounting:
    def test_each_kind_of_failure_counts_once(self, tmp_path):
        def boom():
            raise RuntimeError("no")

        def bad_check(_):
            raise KeyError("missing")

        ops = [Op("ok", lambda: 1, lambda r: None, 1),
               Op("raises", boom, lambda r: None, 1),
               Op("wrong", lambda: 2, lambda r: "2 is wrong", 1),
               Op("check-raises", lambda: 3, bad_check, 1)]
        result = run.run_pass(ops)
        assert [k for k, _ in result.failures] == ["raises", "wrong", "check-raises"]
        assert len(result.latencies) == 4
        assert run.fail_fraction(len(result.latencies), len(result.failures)) == 0.75

    def test_artifacts_must_repeat(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        counter = iter(range(10))

        def write():
            (out / "a.csv").write_text(str(next(counter)))
            (out / "run.log").write_text(str(next(counter)))

        op = Op("cli", write, lambda r: None, 1, outdir=out)
        digests = {}
        assert run.run_pass([op], digests=digests).failures == []
        assert run.run_pass([op], digests=digests).failures != []

    def test_no_attempts_is_an_error(self):
        with pytest.raises(ValueError):
            run.fail_fraction(0, 0)


class TestSeededInputs:
    @pytest.mark.parametrize("workload", workloads.WORKLOADS)
    def test_same_seed_same_inputs(self, workload):
        a = workloads.specs(workload, 7)
        assert json.dumps(a) == json.dumps(workloads.specs(workload, 7))
        assert json.dumps(a) != json.dumps(workloads.specs(workload, 8))


class TestBranchSwitchRows:
    # q sits 4e-5 below 2/pi; float64 gives a residual of -1.02e-3 here
    AT_SWITCH = [0.832368405642, -0.144853943908, 1.407939551339,
                 0.845083227932, 0.229736142982, 0.706327726004]
    AWAY = [0.6639148554, -0.398139747672, 1.955380542961,
            0.808100516291, -0.125757020099, 1.206527124676]

    def test_flagging_and_reference(self):
        import reference

        assert reference.asian_stencil_near_switch(self.AT_SWITCH, 1e-4)
        assert not reference.asian_stencil_near_switch(self.AWAY, 1e-4)
        assert abs(reference.asian_hjb_residual(self.AT_SWITCH, 1e-4)) < 1e-5

    def _check(self, tmp_path, residuals, switch_ref):
        lines = ["psi,hjb_residual"] + [f"1.0,{r!r}" for r in residuals]
        (tmp_path / "value_fn.csv").write_text("\n".join(lines) + "\n")
        config = {"parameters": {"endpoints": [None] * len(residuals)}}
        diagnostics = {}
        return workloads._check_value_fn(tmp_path, config, switch_ref, diagnostics), diagnostics

    def test_only_flagged_rows_with_a_good_reference_are_excused(self, tmp_path):
        failure, diag = self._check(tmp_path, [1e-6, -1e-3], {1: -6e-6})
        assert failure is None
        assert diag["hjb_residual_at_branch_switch"][0]["row"] == 1
        failure, _ = self._check(tmp_path, [1e-6, -1e-3], {})
        assert "row 1" in failure
        failure, _ = self._check(tmp_path, [1e-6, -1e-3], {1: 2e-4})
        assert "row 1" in failure

