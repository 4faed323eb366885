import json
import os
import subprocess
import sys
import time
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import hypoflow as hf
from hypoflow import cli, models, montecarlo
from hypoflow.cli import main


def run_config(tmp_path, config, name="cfg.json", outdir="out", extra=()):
    cfg = tmp_path / name
    cfg.write_text(json.dumps(config))
    out = tmp_path / outdir
    code = main(["--config", str(cfg), "--output", str(out), *extra])
    return code, out


def _run_python(code, *args):
    """Run `code` in a fresh interpreter that imports hypoflow from this checkout."""
    src = str(Path(hf.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, env=env)


def _shipped_schema():
    return json.loads(resources.files("hypoflow").joinpath("config_schema.json").read_text())


class TestSchema:
    def test_unknown_key_rejected(self, tmp_path):
        code, _ = run_config(tmp_path, {
            "command": "density-eval",
            "parameters": {"kernel": "gamma0", "points": [[0, 0, 1, 0, 0, 0]]},
            "bogus": 1,
        })
        assert code == 2

    def test_unknown_parameter_rejected(self, tmp_path, capsys):
        code, _ = run_config(tmp_path, {
            "command": "density-eval",
            "parameters": {"kernel": "gamma0", "points": [[0, 0, 1, 0, 0, 0]], "x": 1},
        })
        assert code == 2
        assert capsys.readouterr().err == (
            "domain error: Additional properties are not allowed ('x' was unexpected)\n"
            "\n"
            "Failed validating 'additionalProperties' in schema:\n"
            "    {'type': 'object',\n"
            "     'required': ['kernel', 'points'],\n"
            "     'additionalProperties': False,\n"
            "     'properties': {'kernel': {'enum': ['gamma0', 'yor']},\n"
            "                    'points': {'type': 'array',\n"
            "                               'items': {'type': 'array',\n"
            "                                         'items': {'type': 'number'}},\n"
            "                               'minItems': 1}}}\n"
            "\n"
            "On instance:\n"
            "    {'kernel': 'gamma0', 'points': [[0, 0, 1, 0, 0, 0]], 'x': 1}\n"
        )

    def test_bad_command(self, tmp_path):
        code, _ = run_config(tmp_path, {"command": "frobnicate", "parameters": {}})
        assert code == 2

    def test_shipped_schema_is_valid(self):
        import jsonschema

        schema = _shipped_schema()
        cls = jsonschema.validators.validator_for(schema)
        cls.check_schema(schema)
        for sub in schema["$defs"].values():
            assert jsonschema.validators.validator_for(sub) is cls

    def test_schema_checked_once_per_process(self, tmp_path, monkeypatch):
        import jsonschema

        cls = jsonschema.validators.validator_for(_shipped_schema())
        real = cls.check_schema.__func__
        checked = []

        def spy(klass, schema, *args, **kwargs):
            checked.append(schema.get("title"))
            return real(klass, schema, *args, **kwargs)

        monkeypatch.setattr(cls, "check_schema", classmethod(spy))
        cli._validators.cache_clear()
        config = {"command": "density-eval",
                  "parameters": {"kernel": "gamma0", "points": [[0, 0, 1, 0, 0, 0]]}}
        for i in range(3):
            code, _ = run_config(tmp_path, config, outdir=f"o{i}")
            assert code == 0
        assert checked == ["hypoflow experiment configuration"]

    def test_import_leaves_jsonschema_unloaded(self):
        # the validators are built on the first config load, not at import
        proc = _run_python("import sys, hypoflow, hypoflow.cli; print('jsonschema' in sys.modules)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_subcommands_leave_scipy_unloaded(self, tmp_path):
        # only the brute-force oracle and the chi-square test import scipy; one
        # config per subcommand, model, kernel, chain kind, verify target and scheme
        configs = [c for c, _, _ in _GOLDEN.values()] + [
            {"command": "verify", "parameters": {"target": "kolmogorov", "n": 20_000, "seed": 1}},
            {"command": "verify",
             "parameters": {"target": "heat", "n": 20_000, "seed": 1}},
            {"command": "verify",
             "parameters": {"target": "heisenberg", "n": 20_000, "seed": 1, "dt": 0.01}},
            {"command": "simulate", "model": "heisenberg",
             "parameters": {"n": 1000, "seed": 1, "horizon": 1.0, "dt": 0.01}},
            {"command": "calibrate-hjb", "parameters": {"n_points": 100, "n_asian": 25}},
        ]
        paths = []
        for i, config in enumerate(configs):
            paths.append(tmp_path / f"c{i}.json")
            paths[-1].write_text(json.dumps(config))
        proc = _run_python(
            "import json, sys, hypoflow, hypoflow.cli\n"
            "codes = [hypoflow.cli.main(['--config', c, '--output', c + '.out'])\n"
            "         for c in sys.argv[1:]]\n"
            "print(json.dumps([codes, [m for m in sys.modules if m.split('.')[0] == 'scipy']]))\n",
            *map(str, paths))
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == [[0] * len(configs), []]


class TestNonFiniteNumbers:
    """JSON's NaN, Infinity and -Infinity, and numbers that overflow a float,
    exit 2 with one line and write nothing."""

    @pytest.mark.parametrize("text, token", [
        ('{"command": "density-eval", '
         '"parameters": {"kernel": "gamma0", "points": [[0, NaN, 1, 0, 0, 0]]}}', "NaN"),
        ('{"command": "value-fn", "model": "kolmogorov", '
         '"parameters": {"endpoints": [[0, 0, 1, NaN, 0.5, 0]]}}', "NaN"),
        ('{"command": "density-eval", '
         '"parameters": {"kernel": "yor", "points": [[1, Infinity, 1, 1, 0]]}}', "Infinity"),
        ('{"command": "chain", "parameters": {"kind": "parabolic", '
         '"x0": [-Infinity], "t0": 1, "x": [0], "t": 0.5}}', "-Infinity"),
        ('{"command": "simulate", '
         '"parameters": {"n": 10, "seed": 1, "horizon": 1e999}}', "1e999"),
    ], ids=["gamma0-nan", "value-fn-kolmogorov-nan", "yor-infinity", "chain-minus-infinity",
            "simulate-overflow"])
    def test_rejected(self, tmp_path, capsys, text, token):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        out = tmp_path / "out"
        code = main(["--config", str(cfg), "--output", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"domain error: non-finite number {token} in the config\n"
        assert not out.exists()


class TestIOErrors:
    def test_missing_config_exits_2(self, tmp_path, capsys):
        code = main(["--config", str(tmp_path / "missing.json"),
                     "--output", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("i/o error: ") and "missing.json" in err
        assert err.count("\n") == 1

    def test_output_is_a_file_exits_2(self, tmp_path, capsys):
        (tmp_path / "taken").write_text("")
        code, _ = run_config(tmp_path, {
            "command": "density-eval",
            "parameters": {"kernel": "gamma0", "points": [[0, 0, 1, 0, 0, 0]]},
        }, outdir="taken")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("i/o error: ") and err.count("\n") == 1
        assert (tmp_path / "taken").read_text() == ""


class TestDensityEval:
    def test_gamma0_diagonal_fixture(self, tmp_path):
        code, out = run_config(tmp_path, {
            "command": "density-eval",
            "parameters": {"kernel": "gamma0", "points": [[0, 0, 1, 0, 0, 0]]},
        })
        assert code == 0
        row = (out / "density.csv").read_text().strip().split("\n")[1]
        assert float(row.split(",")[-1]) == pytest.approx(0.275664, abs=1e-6)

    def test_yor_accuracy_window_exit_code(self, tmp_path):
        code, _ = run_config(tmp_path, {
            "command": "density-eval",
            "parameters": {"kernel": "yor", "points": [[1.0, 0.5, 0.05, 1.0, 0.0]]},
        })
        assert code == 3

    def test_yor_domain_exit_code(self, tmp_path):
        code, _ = run_config(tmp_path, {
            "command": "density-eval",
            "parameters": {"kernel": "yor", "points": [[-1.0, 0.5, 1.0, 1.0, 0.0]]},
        })
        assert code == 2


class TestValueFn:
    def test_zero_psi_fixture(self, tmp_path):
        code, out = run_config(tmp_path, {
            "command": "value-fn",
            "model": "asian",
            "parameters": {"endpoints": [[1.0, 0.0, 1.0, 1.0, 1.0, 0.0]]},
        })
        assert code == 0
        lines = (out / "value_fn.csv").read_text().strip().split("\n")
        row = lines[1].split(",")
        header = lines[0].split(",")
        assert float(row[header.index("psi")]) == pytest.approx(0.0, abs=1e-12)
        assert row[header.index("branch")] == "first"

    def test_kolmogorov_values(self, tmp_path):
        code, out = run_config(tmp_path, {
            "command": "value-fn",
            "model": "kolmogorov",
            "parameters": {"endpoints": [[0.0, 0.0, 1.0, 1.0, 0.5, 0.0]]},
        })
        assert code == 0
        row = (out / "value_fn.csv").read_text().strip().split("\n")[1]
        assert float(row.split(",")[-1]) == pytest.approx(1.0, rel=1e-12)


    def test_fd_step_rejected(self, tmp_path):
        code, _ = run_config(tmp_path, {
            "command": "value-fn",
            "model": "asian",
            "parameters": {"endpoints": [[1.0, 0.0, 1.0, 1.0, 1.0, 0.0]], "fd_step": 1e-2},
        })
        assert code == 2


class TestChainAndDistance:
    def test_parabolic_chain(self, tmp_path):
        code, out = run_config(tmp_path, {
            "command": "chain",
            "parameters": {"kind": "parabolic", "x0": [0.0], "t0": 1.0,
                           "x": [1.0], "t": 0.6},
        })
        assert code == 0
        lines = (out / "chain.csv").read_text().strip().split("\n")
        assert lines[0] == "step,x1,t,cumulative_cost"
        assert len(lines) >= 3

    def test_parabolic_chain_link_cap(self, tmp_path, capsys):
        # |x - x0|^2 / (t0 - t) = 1e9 links: refused before any is built
        start = time.perf_counter()
        code, _ = run_config(tmp_path, {
            "command": "chain",
            "parameters": {"kind": "parabolic", "x0": [0.0], "t0": 1.0,
                           "x": [1e4], "t": 0.9},
        })
        assert code == 2
        assert time.perf_counter() - start < 1.0
        assert "links" in capsys.readouterr().err

    def test_path_chain(self, tmp_path):
        code, out = run_config(tmp_path, {
            "command": "chain",
            "model": "kolmogorov",
            "parameters": {"kind": "path", "start": [0.0, 0.0, 1.0],
                           "control_grid": [0.0, 1.0], "control_values": [[1.5]],
                           "step": 0.01, "h": 0.72},
        })
        assert code == 0
        text = (out / "chain.csv").read_text()
        assert "cumulative_cost" in text

    @pytest.mark.parametrize("params, missing", [
        ({"kind": "parabolic", "x0": [0.0], "t0": 2.0}, "x, t"),
        ({"kind": "path", "start": [0.0, 0.0, 1.0], "control_grid": [0.0, 1.0]},
         "control_values, step"),
    ])
    def test_missing_chain_keys(self, tmp_path, capsys, params, missing):
        code, _ = run_config(tmp_path, {"command": "chain", "parameters": params})
        assert code == 2
        assert f"chain needs {missing}" in capsys.readouterr().err

    def test_cc_distance(self, tmp_path):
        code, out = run_config(tmp_path, {
            "command": "cc-distance",
            "parameters": {"pairs": [[[0, 0, 0], [1, 0, 0]], [[0, 0, 0], [0, 0, 1]]]},
        })
        assert code == 0
        lines = (out / "cc_distance.csv").read_text().strip().split("\n")
        assert float(lines[1].split(",")[6]) == pytest.approx(1.0, abs=1e-8)
        assert float(lines[2].split(",")[6]) == pytest.approx(np.sqrt(4 * np.pi), rel=1e-5)
        assert lines[1].split(",")[7] == "closed-form"


class TestSimulateAndVerify:
    def test_simulate_exact_and_reload(self, tmp_path):
        code, out = run_config(tmp_path, {
            "command": "simulate",
            "model": "kolmogorov",
            "parameters": {"n": 5000, "seed": 3, "horizon": 1.0, "scheme": "exact"},
        })
        assert code == 0
        import hypoflow as hf

        batch = hf.load_batch(out / "batch.bin")
        assert batch.n == 5000
        assert batch.scheme == "exact"
        assert batch.model == "kolmogorov"
        assert batch.horizon == 1.0
        text = (out / "batch_summary.csv").read_text()
        assert text.startswith("coordinate,mean,variance")

    def test_verify_kolmogorov_report(self, tmp_path):
        # full-pipeline fixture: n = 1e6, seed 42
        code, out = run_config(tmp_path, {
            "command": "verify",
            "parameters": {"target": "kolmogorov", "n": 1_000_000, "seed": 42},
        })
        assert code == 0
        report = json.loads((out / "bound_report.json").read_text())
        assert report["violation_fraction"] <= 0.01
        assert report["cells_checked"] > 0

    def test_simulate_exact_honours_start(self, tmp_path):
        code, out = run_config(tmp_path, {
            "command": "simulate",
            "model": "iterated_kolmogorov3",
            "parameters": {"n": 20_000, "seed": 2, "horizon": 1.0, "scheme": "exact",
                           "start": [5.0, 5.0, 5.0]},
        })
        assert code == 0
        rows = (out / "batch_summary.csv").read_text().strip().split("\n")[1:4]
        means = [float(r.split(",")[1]) for r in rows]
        np.testing.assert_allclose(means, [5.0, 10.0, 12.5], atol=0.05)

    def test_simulate_exact_wide_chain_law(self, tmp_path):
        # the horizon-716 covariance spans 27 decades; eigvalsh's rounding
        # gives it a negative eigenvalue about 1e-16 of the largest
        code, out = run_config(tmp_path, {
            "command": "simulate",
            "model": "iterated_kolmogorov6",
            "parameters": {"n": 1000, "seed": 1, "horizon": 716.0, "scheme": "exact"},
        })
        assert code == 0
        batch = hf.load_batch(out / "batch.bin")
        assert batch.model == "iterated_kolmogorov6"
        assert np.all(np.isfinite(batch.endpoints))

    def test_iterated_two_is_kolmogorov(self, tmp_path):
        assert models.by_name("iterated_kolmogorov2") is hf.KOLMOGOROV
        params = {"n": 1000, "seed": 3, "horizon": 1.0, "dt": 0.01}
        batches = []
        for name in ("iterated_kolmogorov2", "kolmogorov"):
            code, out = run_config(tmp_path, {"command": "simulate", "model": name,
                                              "parameters": params}, outdir=name)
            assert code == 0
            batches.append((out / "batch.bin").read_bytes())
        assert hf.load_batch(tmp_path / "iterated_kolmogorov2" / "batch.bin").model == "kolmogorov"
        assert batches[0] == batches[1]

    @pytest.mark.parametrize("scheme", ["exact", "euler"])
    def test_short_start_exits_2(self, tmp_path, capsys, scheme):
        code, _ = run_config(tmp_path, {
            "command": "simulate",
            "model": "kolmogorov",
            "parameters": {"n": 100, "seed": 1, "horizon": 1.0, "scheme": scheme,
                           "start": [1.0]},
        })
        assert code == 2
        assert "start needs 2 coordinates" in capsys.readouterr().err

    @pytest.mark.parametrize("model, start", [
        ("asian", [-1.0, 0.0]),
        ("heat2", [0.0]),
        ("heisenberg", [0.0, 0.0]),
    ])
    def test_euler_start_outside_the_domain_exits_2(self, tmp_path, model, start):
        code, out = run_config(tmp_path, {
            "command": "simulate",
            "model": model,
            "parameters": {"n": 100, "seed": 1, "horizon": 1.0, "start": start},
        })
        assert code == 2
        assert not (out / "batch.bin").exists()

    def test_simulate_single_path_exits_2(self, tmp_path, capsys):
        # a sample variance needs two paths; n = 1 used to write nan
        code, out = run_config(tmp_path, {
            "command": "simulate",
            "model": "kolmogorov",
            "parameters": {"n": 1, "seed": 1, "horizon": 1.0, "scheme": "exact"},
        })
        assert code == 2
        assert capsys.readouterr().err == (
            "domain error: 1 is less than the minimum of 2\n"
            "\n"
            "Failed validating 'minimum' in schema['properties']['n']:\n"
            "    {'type': 'integer', 'minimum': 2, 'maximum': 4294967296}\n"
            "\n"
            "On instance['n']:\n"
            "    1\n"
        )

        assert not (out / "batch_summary.csv").exists()

    @pytest.mark.parametrize("target, params", [
        ("heat", {"band": 0.5, "window": 3}),
        ("kolmogorov", {"dt": 0.01}),
        ("heisenberg", {"band": 0.2}),
        ("heat", {"dt": 0.01}),
    ])
    def test_verify_rejects_unused_parameters(self, tmp_path, capsys, target, params):
        code, out = run_config(tmp_path, {
            "command": "verify",
            "parameters": {"target": target, "n": 1000, "seed": 1, **params},
        })
        assert code == 2
        assert not (out / "bound_report.json").exists()
        assert ", ".join(sorted(params)) in capsys.readouterr().err

    def test_verify_too_few_fit_cells_exits_2(self, tmp_path, capsys):
        # n = 1000 fills no heisenberg cell with the 25 paths the fit needs
        code, _ = run_config(tmp_path, {
            "command": "verify",
            "parameters": {"target": "heisenberg", "n": 1000, "seed": 0},
        })
        assert code == 2
        assert "the fit needs 2" in capsys.readouterr().err

    def test_simulate_asian_euler_matches_the_sampler(self, tmp_path):
        code, out = run_config(tmp_path, {
            "command": "simulate",
            "model": "asian",
            "parameters": {"n": 2000, "seed": 7, "horizon": 1.0, "dt": 0.01},
        })
        assert code == 0
        batch = hf.euler_maruyama(hf.ASIAN, [1.0, 0.0], 1.0, 0.01, 2000, 7)
        hf.save_batch(batch, tmp_path / "direct.bin")
        assert (out / "batch.bin").read_bytes() == (tmp_path / "direct.bin").read_bytes()

    def test_simulate_exact_heat(self, tmp_path):
        code, out = run_config(tmp_path, {
            "command": "simulate",
            "model": "heat2",
            "parameters": {"n": 2000, "seed": 1, "horizon": 0.5, "scheme": "exact"},
        })
        assert code == 0
        import hypoflow as hf

        batch = hf.load_batch(out / "batch.bin")
        assert batch.endpoints.shape == (2000, 2)

    def test_calibrate_hjb(self, tmp_path):
        code, out = run_config(tmp_path, {
            "command": "calibrate-hjb",
            "parameters": {"n_points": 100, "n_asian": 25},
        })
        assert code == 0
        payload = json.loads((out / "hjb_calibration.json").read_text())
        assert payload["winner"] == {"triple": "second", "drift_sign": 1}
        assert payload["asian_max_residual"] <= 1e-4


class TestDeterminism:
    def test_rerun_byte_identical(self, tmp_path):
        config = {
            "command": "simulate",
            "model": "heisenberg",
            "parameters": {"n": 20_000, "seed": 5, "horizon": 1.0, "dt": 0.01},
        }
        _, out1 = run_config(tmp_path, config, outdir="a")
        _, out2 = run_config(tmp_path, config, outdir="b")
        assert (out1 / "batch.bin").read_bytes() == (out2 / "batch.bin").read_bytes()
        assert (out1 / "batch_summary.csv").read_bytes() == (out2 / "batch_summary.csv").read_bytes()

    def test_threads_do_not_change_results(self, tmp_path):
        config = {
            "command": "simulate",
            "model": "quadratic_lifted",
            "parameters": {"n": 150_000, "seed": 9, "horizon": 1.0, "dt": 0.01},
        }
        outs = []
        for threads in (1, 4, 16):
            _, out = run_config(tmp_path, config, outdir=f"t{threads}",
                                extra=("--threads", str(threads)))
            outs.append((out / "batch.bin").read_bytes())
        assert outs[0] == outs[1] == outs[2]

    # n = 70_000 spans two sampler chunks, so two threads also split each
    # batch's draws; n = 50_000, the benchmark's size, is one chunk, so two
    # threads only draw the fit and the check batch concurrently
    @pytest.mark.parametrize("target, n", [
        pytest.param("heat", 70_000, id="heat"),
        pytest.param("heisenberg", 70_000, id="heisenberg"),
        ("heat", 50_000),
        ("heisenberg", 50_000),
    ])
    def test_verify_report_independent_of_threads(self, tmp_path, target, n):
        config = {"command": "verify",
                  "parameters": {"target": target, "n": n, "seed": 1}}
        reports = []
        for threads in ("1", "2"):
            code, out = run_config(tmp_path, config, outdir=f"t{threads}",
                                   extra=("--threads", threads))
            assert code == 0
            reports.append((out / "bound_report.json").read_bytes())
        assert reports[0] == reports[1]

    def test_default_threads_is_the_core_count(self, tmp_path, monkeypatch):
        seen = []
        handler = cli._HANDLERS["density-eval"]

        def spy(config, outdir, threads):
            seen.append(threads)
            return handler(config, outdir, threads)

        monkeypatch.setitem(cli._HANDLERS, "density-eval", spy)
        code, _ = run_config(tmp_path, {
            "command": "density-eval",
            "parameters": {"kernel": "gamma0", "points": [[0, 0, 1, 0, 0, 0]]},
        })
        assert code == 0
        assert seen == [montecarlo.CORES]

    @pytest.mark.parametrize("target", ["heat", "heisenberg"])
    def test_verify_at_default_threads_matches_one_thread(self, tmp_path, target):
        config = {"command": "verify",
                  "parameters": {"target": target, "n": 50_000, "seed": 4}}
        _, default = run_config(tmp_path, config, outdir="default")
        _, single = run_config(tmp_path, config, outdir="single", extra=("--threads", "1"))
        assert ((default / "bound_report.json").read_bytes()
                == (single / "bound_report.json").read_bytes())

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_threads_below_one_exit_2(self, tmp_path, capsys, threads):
        with pytest.raises(SystemExit) as exc:
            run_config(tmp_path, {
                "command": "density-eval",
                "parameters": {"kernel": "gamma0", "points": [[0, 0, 1, 0, 0, 0]]},
            }, extra=("--threads", threads))
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.endswith(f"error: argument --threads: {threads} is less than 1\n")
        assert not (tmp_path / "out").exists()

    def test_seed_override(self, tmp_path):
        config = {
            "command": "simulate",
            "model": "kolmogorov",
            "parameters": {"n": 1000, "seed": 3, "horizon": 1.0, "scheme": "exact"},
        }
        _, out1 = run_config(tmp_path, config, outdir="s3")
        _, out2 = run_config(tmp_path, config, outdir="s4", extra=("--seed", "4"))
        assert (out1 / "batch.bin").read_bytes() != (out2 / "batch.bin").read_bytes()
        # --seed is the config's seed: a config with seed 4 writes the same batch
        config["parameters"]["seed"] = 4
        _, out3 = run_config(tmp_path, config, outdir="c4")
        assert (out3 / "batch.bin").read_bytes() == (out2 / "batch.bin").read_bytes()


_SIM = {"n": 100, "seed": 1, "horizon": 1.0}
_SEED_MAX = 2**63 - 1  # seed + 1, the Philox uint64 key and the batch header all hold it
_N_MAX = 2**32  # paths per simulate or verify run


class TestIntegersAndSeeds:
    """An integer parameter must be a JSON integer, a seed lies in
    [0, 2^63 - 1], --seed included, and n is at most 2^32; anything else exits
    2 without a traceback."""

    @pytest.mark.parametrize("command, params, extra, first_line", [
        ("simulate", {**_SIM, "seed": 2.0}, (), "2.0 is not of type 'integer'"),
        ("simulate", {**_SIM, "n": 100.0}, (), "100.0 is not of type 'integer'"),
        ("calibrate-hjb", {"n_points": 10.0}, (), "10.0 is not of type 'integer'"),
        ("simulate", {**_SIM, "seed": 1e300}, (), "1e+300 is not of type 'integer'"),
        ("simulate", {**_SIM, "seed": 10**23}, (),
         f"{10**23} is greater than the maximum of {_SEED_MAX}"),
        ("simulate", _SIM, ("--seed", "-1"), "-1 is less than the minimum of 0"),
        ("simulate", _SIM, ("--seed", "99999999999999999999999"),
         f"99999999999999999999999 is greater than the maximum of {_SEED_MAX}"),
        ("verify", {"target": "heisenberg", "n": 1000, "seed": 2**64 - 1}, (),
         f"{2**64 - 1} is greater than the maximum of {_SEED_MAX}"),
        ("verify", {"target": "heisenberg", "n": 1000, "seed": 1, "fit_seed": 1e300}, (),
         "1e+300 is not of type 'integer'"),
        ("simulate", {**_SIM, "n": 10**30}, (),
         f"{10**30} is greater than the maximum of {_N_MAX}"),
        ("verify", {"target": "kolmogorov", "n": _N_MAX + 1, "seed": 1}, (),
         f"{_N_MAX + 1} is greater than the maximum of {_N_MAX}"),
    ], ids=["float-seed", "float-n", "float-n_points", "seed-1e300", "seed-1e23",
            "cli-seed-negative", "cli-seed-huge", "verify-seed-2^64-1", "fit_seed-1e300",
            "n-1e30", "verify-n-2^32+1"])
    def test_rejected(self, tmp_path, capsys, command, params, extra, first_line):
        code, out = run_config(tmp_path, {"command": command, "parameters": params},
                               extra=extra)
        assert code == 2
        err = capsys.readouterr().err
        assert err.split("\n")[0] == f"domain error: {first_line}"
        assert "Traceback" not in err
        assert not out.exists()

    def test_largest_seed_runs(self, tmp_path):
        code, out = run_config(tmp_path, {
            "command": "simulate",
            "parameters": {"n": 2, "seed": _SEED_MAX, "horizon": 1.0, "scheme": "exact"},
        })
        assert code == 0
        assert hf.load_batch(out / "batch.bin").seed == _SEED_MAX

    def test_largest_seed_keys_the_fit_seed(self, tmp_path, capsys):
        # fit_seed = seed + 1 = 2^63 still keys Philox; n = 1000 is too few to fit
        code, _ = run_config(tmp_path, {
            "command": "verify",
            "parameters": {"target": "heisenberg", "n": 1000, "seed": _SEED_MAX},
        })
        assert code == 2
        assert capsys.readouterr().err == (
            "domain error: 0 window cells hold >= 25 fit paths; the fit needs 2\n"
        )

    @pytest.mark.parametrize("command, params", [
        ("density-eval", {"kernel": "gamma0", "points": [[0, 0, 1, 0, 0, 0]]}),
        ("value-fn", {"endpoints": [[1, 0, 1, 1, 1, 0]]}),
        ("chain", {"kind": "parabolic", "x0": [0], "t0": 1, "x": [1], "t": 0.6}),
        ("cc-distance", {"pairs": [[[0, 0, 0], [1, 0, 0]]]}),
    ], ids=["density-eval", "value-fn", "chain", "cc-distance"])
    def test_cli_seed_refused_without_a_seed(self, tmp_path, capsys, command, params):
        code, out = run_config(tmp_path, {"command": command, "parameters": params},
                               extra=("--seed", "1"))
        assert code == 2
        assert capsys.readouterr().err == f"domain error: {command} takes no --seed\n"
        assert not out.exists()


_GAMMA0 = {"kernel": "gamma0", "points": [[0, 0, 1, 0, 0, 0]]}
_PARABOLIC = {"kind": "parabolic", "x0": [0], "t0": 1, "x": [1], "t": 0.6}
_PATH = {"kind": "path", "start": [0, 0, 1], "control_grid": [0, 1],
         "control_values": [[1.5]], "step": 0.05}


@pytest.mark.parametrize("config, reason", [
    ({"command": "density-eval", "parameters": _GAMMA0, "output": "elsewhere"},
     "Additional properties are not allowed ('output' was unexpected)"),
    ({"command": "chain", "parameters": {**_PARABOLIC, "M": 2.0}},
     "Additional properties are not allowed ('M' was unexpected)"),
    ({"command": "simulate", "model": "kolmogorov",
      "parameters": {**_SIM, "scheme": "exact", "variant": "unit", "dt": 0.3}},
     "Additional properties are not allowed ('variant' was unexpected)"),
    ({"command": "simulate", "parameters": {**_SIM, "scheme": "exact", "dt": 0.01}},
     "exact simulate takes no parameter dt"),
    ({"command": "value-fn", "model": "heisenberg",
      "parameters": {"endpoints": [[1, 0, 1, 1, 1, 0]]}},
     "value-fn takes model asian or kolmogorov, not heisenberg"),
    ({"command": "density-eval", "model": "kolmogorov", "parameters": _GAMMA0},
     "density-eval takes no model"),
    ({"command": "cc-distance", "model": "heisenberg",
      "parameters": {"pairs": [[[0, 0, 0], [1, 0, 0]]]}},
     "cc-distance takes no model"),
    ({"command": "verify", "model": "heat1",
      "parameters": {"target": "kolmogorov", "n": 1000, "seed": 1}},
     "verify takes no model"),
    ({"command": "calibrate-hjb", "model": "asian",
      "parameters": {"n_points": 10, "n_asian": 0}},
     "calibrate-hjb takes no model"),
    ({"command": "chain", "model": "kolmogorov", "parameters": _PARABOLIC},
     "parabolic chain takes no model"),
    ({"command": "chain",
      "parameters": {**_PARABOLIC, "control_grid": [0, 1], "step": 0.1, "h": 0.5}},
     "parabolic chain takes no parameter control_grid, h, step"),
    ({"command": "chain", "model": "kolmogorov",
      "parameters": {**_PATH, "c": 0.25, "theta": 0.25, "x0": [0]}},
     "path chain takes no parameter c, theta, x0"),
], ids=["output", "chain-M", "exact-dt-variant", "exact-dt", "value-fn-heisenberg",
        "density-eval-model", "cc-distance-model", "verify-model", "calibrate-hjb-model",
        "parabolic-chain-model", "parabolic-chain-path-keys", "path-chain-parabolic-keys"])
def test_unread_keys_refused(tmp_path, capsys, config, reason):
    """A key the run would not read exits 2 with one domain error and writes nothing."""
    code, out = run_config(tmp_path, config)
    assert code == 2
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if line.startswith("domain error:")] == [
        f"domain error: {reason}"]
    assert err.startswith("domain error:")
    assert not out.exists()


# Full bytes of every CSV artifact, one small config each: the header, 17
# significant digits, integer inputs and the chain step written as "0", the
# solver and branch strings, and the trailing newline.
_GOLDEN = {
    "density-gamma0": (
        {"command": "density-eval",
         "parameters": {"kernel": "gamma0", "points": [[0, 0, 1, 0, 0, 0], [1, 0.5, 2, 0, 0, 1]]}},
        "density.csv",
        "x,y,t,xi,eta,tau,density\n"
        "0,0,1,0,0,0,0.27566444771089604\n"
        "1,0.5,2,0,0,1,0.010688670587359148\n",
    ),
    "density-yor": (
        {"command": "density-eval",
         "parameters": {"kernel": "yor", "points": [[1, 1.5, 1, 1, 0], [1, 0, 1, 1, 0.5]]}},
        "density.csv",
        "x,y,t,x0,y0,density\n"
        "1,1.5,1,1,0,0.010845977312228784\n"
        "1,0,1,1,0.5,0\n",
    ),
    "value-fn-asian": (
        {"command": "value-fn", "model": "asian",
         "parameters": {"endpoints": [[1, 0, 1, 1, 1, 0], [1, 0, 1, 1, 0.5, 0]]}},
        "value_fn.csv",
        "x1,y1,t1,x0,y0,t0,q,r,E,psi,branch,hjb_residual\n"
        "1,0,1,1,1,0,1,0,0,0,first,-3.6000087650911349e-07\n"
        "1,0,1,1,0.5,0,0.5,-3.5928985163586886,-14.371594065434754,6.732766320847146,"
        "second,-2.6122825111940529e-06\n",
    ),
    "value-fn-kolmogorov": (
        {"command": "value-fn", "model": "kolmogorov",
         "parameters": {"endpoints": [[0, 0, 1, 1, 0.5, 0]]}},
        "value_fn.csv",
        "x,y,t,xi,eta,tau,psi\n"
        "0,0,1,1,0.5,0,1\n",
    ),
    "chain-parabolic": (
        {"command": "chain",
         "parameters": {"kind": "parabolic", "x0": [0], "t0": 1, "x": [1], "t": 0.6}},
        "chain.csv",
        "step,x1,t,cumulative_cost\n"
        "0,0,1,0\n"
        "1,0.40000000000000002,0.83999999999999997,0\n"
        "2,0.80000000000000004,0.67999999999999994,0\n"
        "3,1,0.59999999999999998,0\n",
    ),
    "chain-path": (
        {"command": "chain", "model": "kolmogorov",
         "parameters": {"kind": "path", "start": [0, 0, 1], "control_grid": [0, 1],
                        "control_values": [[1.5]], "step": 0.05, "h": 0.72}},
        "chain.csv",
        "step,x1,x2,t,cumulative_cost\n"
        "0,0,0,1,0\n"
        "1,0.52500000000000002,0.091875000000000012,0.64999999999999991,0.7875000000000002\n"
        "2,1.05,0.36750000000000005,0.29999999999999993,1.5750000000000002\n"
        "3,1.5,0.75,0,2.25\n",
    ),
    "cc-distance": (
        {"command": "cc-distance",
         "parameters": {"pairs": [[[0, 0, 0], [1, 0, 0]], [[0, 0, 0], [0, 0, 1]]]}},
        "cc_distance.csv",
        "px,py,pw,qx,qy,qw,distance,solver,residual\n"
        "0,0,0,1,0,0,1,closed-form,2.2707477200577028e-19\n"
        "0,0,0,0,0,1,3.5449077018110318,closed-form,1.4891951698788336e-16\n",
    ),
    "batch-summary": (
        {"command": "simulate", "model": "kolmogorov",
         "parameters": {"n": 1000, "seed": 3, "horizon": 1, "scheme": "exact"}},
        "batch_summary.csv",
        "coordinate,mean,variance\n"
        "0,0.011909069634148841,2.0816526209747233\n"
        "1,0.009331846378687305,0.71259551087156459\n"
        "floored,0,0\n",
    ),
    # Euler batches of each model's own sqrt(2) diffusion; the floored one
    # clips price steps at horizon 100, dt 1
    "batch-summary-asian-euler": (
        {"command": "simulate", "model": "asian",
         "parameters": {"n": 1000, "seed": 3, "horizon": 1, "dt": 0.01}},
        "batch_summary.csv",
        "coordinate,mean,variance\n"
        "0,2.5044260494682904,35.844155467396071\n"
        "1,1.6343910751644533,3.9292035774776544\n"
        "floored,0,0\n",
    ),
    "batch-summary-asian-floored": (
        {"command": "simulate", "model": "asian",
         "parameters": {"n": 1000, "seed": 3, "horizon": 100, "dt": 1}},
        "batch_summary.csv",
        "coordinate,mean,variance\n"
        "0,3.9462647194908114e-289,0\n"
        "1,6.9412685342792955e+20,4.8174295641009147e+44\n"
        "floored,7899,0\n",
    ),
    "batch-summary-heisenberg-euler": (
        {"command": "simulate", "model": "heisenberg",
         "parameters": {"n": 1000, "seed": 3, "horizon": 1, "dt": 0.01}},
        "batch_summary.csv",
        "coordinate,mean,variance\n"
        "0,-0.006860379007199215,2.0644021265152657\n"
        "1,-0.059702504157360864,1.8883732603901682\n"
        "2,-0.023487649258872496,0.98278134546642193\n"
        "floored,0,0\n",
    ),
}


@pytest.mark.parametrize("config, artifact, text", _GOLDEN.values(), ids=_GOLDEN.keys())
def test_artifact_bytes(tmp_path, config, artifact, text):
    code, out = run_config(tmp_path, config)
    assert code == 0
    assert (out / artifact).read_bytes() == text.encode()


def test_key_error_is_not_a_domain_error(tmp_path, monkeypatch):
    def broken(*args):
        raise KeyError("bug")

    monkeypatch.setitem(cli._HANDLERS, "value-fn", broken)
    with pytest.raises(KeyError):
        run_config(tmp_path, {
            "command": "value-fn",
            "parameters": {"endpoints": [[1.0, 0.0, 1.0, 1.0, 1.0, 0.0]]},
        })


# Coordinates stay in [-3, 3] to keep the test fast.
_num = st.one_of(st.floats(-3.0, 3.0), st.integers(-3, 3))
_models = st.sampled_from(["kolmogorov", "heisenberg", "heat1", "heat2", "iterated_kolmogorov3",
                           "quadratic_lifted", "asian", "heat0", "nope"])


def _maybe(params, draw_pairs):
    """Drop each optional key independently."""
    return {k: v for k, v, keep in draw_pairs if keep} | params


@st.composite
def _simulate(draw):
    horizon = draw(st.sampled_from([0.0, 0.05, 0.5, 1.0, 2.0]))
    optional = [
        ("start", draw(st.lists(_num, max_size=4)), draw(st.booleans())),
        ("dt", draw(st.sampled_from([1e-3, 0.005, 0.01, 0.03, 0.5])), draw(st.booleans())),
        ("scheme", draw(st.sampled_from(["exact", "euler"])), draw(st.booleans())),
    ]
    params = _maybe({"n": draw(st.integers(0, 300)), "seed": draw(st.integers(0, 5)),
                     "horizon": horizon}, optional)
    return {"command": "simulate", "model": draw(_models), "parameters": params}


@st.composite
def _verify(draw):
    optional = [
        ("fit_seed", draw(st.integers(0, 5)), draw(st.booleans())),
        ("horizon", draw(st.sampled_from([0.1, 1.0, 50.0])), draw(st.booleans())),
        ("dt", draw(st.sampled_from([0.001, 0.005, 0.003])), draw(st.booleans())),
        ("band", draw(st.sampled_from([0.1, 0.5])), draw(st.booleans())),
        ("window", draw(st.sampled_from([0.5, 8.0])), draw(st.booleans())),
    ]
    params = _maybe({"target": draw(st.sampled_from(["kolmogorov", "heat", "heisenberg"])),
                     "n": draw(st.sampled_from([500, 1000, 2000])),
                     "seed": draw(st.integers(0, 5))}, optional)
    return {"command": "verify", "parameters": params}


@st.composite
def _chain(draw):
    dim = draw(st.integers(0, 3))
    optional = [
        ("x0", draw(st.lists(_num, min_size=dim, max_size=dim)), draw(st.booleans())),
        ("t0", draw(st.sampled_from([1.0, 2.0])), draw(st.booleans())),
        ("x", draw(st.lists(_num, min_size=dim, max_size=dim)), draw(st.booleans())),
        ("t", draw(st.sampled_from([0.5, 1.5, 1.9])), draw(st.booleans())),
        ("start", draw(st.lists(_num, min_size=dim, max_size=4)), draw(st.booleans())),
        ("control_grid", draw(st.sampled_from([[0.0, 0.5], [0.0, 0.2, 0.4], [0.0]])),
         draw(st.booleans())),
        ("control_values", draw(st.lists(st.lists(_num, min_size=1, max_size=2), max_size=2)),
         draw(st.booleans())),
        ("step", draw(st.sampled_from([0.01, 0.05, 0.3])), draw(st.booleans())),
        ("h", draw(st.sampled_from([0.5, 1.0])), draw(st.booleans())),
    ]
    params = _maybe({"kind": draw(st.sampled_from(["parabolic", "path"]))}, optional)
    return {"command": "chain", "model": draw(_models), "parameters": params}


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(config=st.one_of(_simulate(), _verify(), _chain()))
def test_generated_configs_exit_cleanly(tmp_path, config):
    """Every generated config succeeds or fails with a domain or accuracy error."""
    code, _ = run_config(tmp_path, config)
    assert code in (0, 2, 3)


def test_console_script_smoke(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "command": "density-eval",
        "parameters": {"kernel": "gamma0", "points": [[0, 0, 1, 0, 0, 0]]},
    }))
    proc = subprocess.run(
        [sys.executable, "-m", "hypoflow.cli", "--config", str(cfg),
         "--output", str(tmp_path / "o")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
