"""Command-line surface: flags, config files, artifacts, exit codes."""

import csv
import dataclasses
import inspect
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import qswarm.cli
import qswarm.experiments
from qswarm.cli import (
    _FIELD_KEYS,
    BENCHMARK_ROWS,
    CONFIG_KEYS,
    DEFAULT_PARAMS,
    PAPER_RUNS,
    VARIANT_CHOICES,
    VARIANT_RUNS,
    ConfigError,
    build_parser,
    effective_config,
    load_config_file,
    main,
)
from qswarm.swarm import VARIANT_STANDARD, VARIANT_SURROGATE, SwarmConfig


def run_cli(*argv):
    return main(list(argv))


class TestEffectiveConfig:
    def test_defaults_match_reference_parameter_set(self):
        cfg, _ = effective_config({}, {"objective": "sphere"})
        assert cfg["params"] == {
            "omega0": 0.72984,
            "c1_0": 2.8,
            "c2_0": 2.05,
            "vmax0": 2.0,
            "S": 52,
            "tau": 1.2,
            "gamma_floor": 1e-12,
        }
        assert cfg["dimension"] == 2
        assert cfg["particles"] == 6  # interpolation count for 2D
        assert cfg["iterations"] == 200
        assert cfg["runs"] == 1
        assert cfg["variant"] == "both"
        assert cfg["bounds"] == [[-10.0, 10.0], [-10.0, 10.0]]

    def test_flag_overrides_win(self):
        cfg, _ = effective_config(
            {"objective": "sphere", "runs": 7}, {"objective": "ackley", "runs": None}
        )
        assert cfg["objective"] == "ackley"
        assert cfg["runs"] == 7
        assert cfg["bounds"] == [[-32.768, 32.768], [-32.768, 32.768]]

    def test_unknown_objective_names_valid_choices(self):
        with pytest.raises(ConfigError) as err:
            effective_config({}, {"objective": "rosenbrok"})
        message = str(err.value)
        assert "objective" in message
        for name in ("ackley", "flower", "griewank", "sphere"):
            assert name in message

    def test_bounds_dimension_mismatch(self):
        with pytest.raises(ConfigError, match="bounds"):
            effective_config(
                {"objective": "sphere", "dimension": 3, "bounds": [[-1, 1], [-1, 1]]}, {}
            )

    def test_bad_values_name_the_key(self):
        for key, cfg in [
            ("dimension", {"dimension": 0}),
            ("particles", {"particles": -1}),
            ("iterations", {"iterations": 0}),
            ("runs", {"runs": 0}),
            ("variant", {"variant": "mixed"}),
            # JSON booleans are ints to isinstance, but no count or number.
            ("dimension", {"dimension": True}),
            ("particles", {"particles": True}),
            ("iterations", {"iterations": True}),
            ("runs", {"runs": True}),
            ("seed", {"seed": False}),
            ("bounds", {"bounds": [[True, 5], [2, 5]]}),
            ("bounds", {"bounds": [[-1e308, 1e308], [-1, 1]]}),  # width overflows
            ("bounds", {"bounds": [[-(10**400), 1], [-1, 1]]}),  # no double holds it
            # JSON null is no value; defaults fill missing keys only.
            ("particles", {"particles": None}),
            ("bounds", {"bounds": None}),
            ("params.S", {"params": {"S": True}}),
            ("params.tau", {"params": {"tau": True}}),
            # Python's json reads NaN and Infinity; neither is a coefficient.
            ("params.omega0", {"params": {"omega0": math.nan}}),
            ("params.vmax0", {"params": {"vmax0": math.inf}}),
            ("params.c2_0", {"params": {"c2_0": -math.inf}}),
            ("params.c1_0", {"params": {"c1_0": 10**400}}),  # no double holds it
            ("particles", {"particles": 0}),
            ("params.tau", {"params": {"tau": 0}}),
            ("params.gamma_floor", {"params": {"gamma_floor": 0}}),
            ("params.gamma_floor", {"params": {"gamma_floor": -1}}),
            ("params.vmax0", {"params": {"vmax0": 0}}),
            ("params.vmax0", {"params": {"vmax0": -1}}),
            # No number is a str or null, and no objective name a number or list.
            ("objective", {"objective": 5}),
            ("objective", {"objective": ["sphere"]}),
            ("bounds", {"bounds": [["1", 5], [2, 5]]}),
            ("bounds", {"bounds": 5}),
            ("params.omega0", {"params": {"omega0": "0.7"}}),
            ("params.tau", {"params": {"tau": None}}),
        ]:
            with pytest.raises(ConfigError, match=re.escape(key)):
                effective_config({"objective": "sphere", **cfg}, {})

    def test_the_message_after_the_key_is_that_of_the_model_class(self):
        names = ", ".join(("ackley", "flower", "griewank", "sphere"))
        for cfg, message in [
            ({"dimension": 0}, "'dimension': dimension must be >= 1"),
            ({"objective": 5}, f"'objective': objective 5 is unknown; valid names: {names}"),
            # The registry checks the name before the default box checks the dimension.
            ({"dimension": 0, "objective": "nope"}, f"'objective': objective 'nope' is unknown; valid names: {names}"),
            ({"bounds": [[1, 2], [True, 5]]}, "'bounds': lo[1] must be a finite number, not True"),
            ({"bounds": [[True, 5], [0, 1]]}, "'bounds': lo[0] must be a finite number, not True"),
            ({"params": {"omega0": "0.7"}}, "'params.omega0': omega0 must be a finite number, not '0.7'"),
            ({"params": {"tau": 0}}, "'params.tau': tau must be positive"),
        ]:
            with pytest.raises(ConfigError) as err:
                effective_config({"objective": "sphere", **cfg}, {})
            assert str(err.value) == f"invalid value for {message}"

    def test_echo_holds_the_coefficients_as_floats(self):
        params = effective_config({"objective": "sphere", "params": {"vmax0": 3, "S": 7}}, {})[0]["params"]
        assert type(params["vmax0"]) is float and params["vmax0"] == 3.0
        assert type(params["S"]) is int and params["S"] == 7

    def test_every_swarm_config_field_is_set_by_a_config_key(self):
        params = {f"params.{key}" for key in DEFAULT_PARAMS}
        for field in dataclasses.fields(SwarmConfig):
            key = _FIELD_KEYS.get(field.name, field.name)
            assert key in CONFIG_KEYS or key in params, field.name

    def test_non_integer_counts_name_the_key(self):
        # The model classes refuse them; the message names the config key.
        for key, cfg in [
            ("particles", {"particles": 6.5}),
            ("iterations", {"iterations": 20.5}),
            ("iterations", {"iterations": None}),
            ("runs", {"runs": 2.5}),
            ("seed", {"seed": 1.5}),
            ("seed", {"seed": "7"}),
            ("params.S", {"params": {"S": 3.5}}),
            ("dimension", {"dimension": 2.0}),
        ]:
            with pytest.raises(ConfigError, match=re.escape(f"invalid value for {key!r}")):
                effective_config({"objective": "sphere", **cfg}, {})

    def test_derived_tables(self):
        assert VARIANT_RUNS == {
            "standard": (VARIANT_STANDARD,),
            "qs": (VARIANT_SURROGATE,),
            "both": (VARIANT_STANDARD, VARIANT_SURROGATE),
        }
        assert VARIANT_CHOICES == ("standard", "qs", "both")
        effective, _ = effective_config({}, {"objective": "sphere"})
        assert sorted(effective) == sorted(CONFIG_KEYS)
        assert len(set(CONFIG_KEYS)) == len(CONFIG_KEYS)


class TestConfigFile:
    def test_unknown_top_level_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"objective": "sphere", "particels": 6}))
        with pytest.raises(ConfigError, match="particels"):
            load_config_file(str(path))

    def test_unknown_param_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"objective": "sphere", "params": {"omega": 0.7}}))
        with pytest.raises(ConfigError, match="params.omega"):
            load_config_file(str(path))

    def test_missing_file_is_config_error(self):
        with pytest.raises(ConfigError):
            load_config_file("/nonexistent/config.json")

    @pytest.mark.parametrize(
        "text,match",
        [
            ('{"objective": "sphere",', "not valid JSON"),
            ('["sphere"]', "JSON object"),
            ('{"objective": "sphere", "params": [0.7]}', "'params'"),
        ],
    )
    def test_malformed_file_exits_2_before_any_output(self, tmp_path, capsys, text, match):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        with pytest.raises(ConfigError, match=match):
            load_config_file(str(path))
        out = tmp_path / "out"
        assert run_cli("run", "--config", str(path), "--out", str(out)) == 2
        captured = capsys.readouterr()
        assert match in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_param_validation(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"objective": "sphere", "params": {"S": 0}}))
        with pytest.raises(ConfigError, match="params.S"):
            effective_config(load_config_file(str(path)), {})


class TestRunCommand:
    def test_smoke_run_writes_artifacts(self, tmp_path, capsys):
        out = tmp_path / "artifacts"
        code = run_cli(
            "run",
            "--objective", "sphere",
            "--dim", "2",
            "--particles", "6",
            "--runs", "1",
            "--seed", "42",
            "--variant", "qs",
            "--iterations", "30",
            "--out", str(out),
        )
        assert code == 0
        assert (out / "config.echo.json").exists()
        assert (out / "trace_qs.csv").exists()
        with open(out / "runs.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 1
        assert rows[0]["variant"] == "quadratic_surrogate"
        assert int(rows[0]["seed"]) == 42
        assert "artifacts written" in capsys.readouterr().out

    def test_both_variants_emit_comparison(self, tmp_path, capsys):
        out = tmp_path / "artifacts"
        code = run_cli(
            "run",
            "--objective", "flower",
            "--runs", "2",
            "--iterations", "20",
            "--variant", "both",
            "--out", str(out),
            "--no-timing",
        )
        assert code == 0
        assert (out / "comparison.csv").exists()
        assert (out / "trace_standard.csv").exists()
        assert (out / "trace_qs.csv").exists()
        with open(out / "runs.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 4  # 2 runs x 2 variants
        assert "Rel.Diff" in capsys.readouterr().out

    def test_box_without_the_origin_runs(self, tmp_path):
        path = tmp_path / "cfg.json"
        config = {"objective": "sphere", "bounds": [[2, 5], [2, 5]], "runs": 3, "iterations": 40}
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert run_cli("run", "--config", str(path), "--out", str(out), "--no-timing") == 0
        with open(out / "runs.csv", newline="") as handle:
            finals = [float(row["final_value"]) for row in csv.DictReader(handle)]
        assert len(finals) == 6
        assert all(value >= 8.0 for value in finals)  # sphere's least value on the box

    def test_bad_box_exits_2_before_any_output(self, tmp_path, capsys):
        for bounds in [
            [[-1e308, 1e308], [-1, 1]],  # finite ends, but hi - lo overflows
            5,
            [5, 6],
            [[1, None]],
            [[-(10**400), 1], [-1, 1]],  # no double holds the low end
            [["a", "b"]],
            [[1, 2, 3]],
            {"lo": 1},
            [[2, 1]],
            [],
        ]:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps({"objective": "sphere", "bounds": bounds}))
            out = tmp_path / "out"
            assert run_cli("run", "--config", str(path), "--out", str(out)) == 2
            assert "'bounds'" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize(
        "key,literal", [("omega0", "NaN"), ("vmax0", "Infinity"), ("c2_0", "-Infinity")]
    )
    def test_non_finite_coefficient_exits_2_before_any_output(self, tmp_path, capsys, key, literal):
        # A hand-written file may hold these literals, and Python's json reads them.
        path = tmp_path / "cfg.json"
        path.write_text(f'{{"objective": "sphere", "params": {{"{key}": {literal}}}}}')
        out = tmp_path / "out"
        assert run_cli("run", "--config", str(path), "--out", str(out)) == 2
        captured = capsys.readouterr()
        assert f"params.{key}" in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_unknown_objective_exits_2_listing_names(self, tmp_path, capsys):
        code = run_cli("run", "--objective", "rosenbrok", "--out", str(tmp_path / "x"))
        assert code == 2
        err = capsys.readouterr().err
        for name in ("ackley", "flower", "griewank", "sphere"):
            assert name in err

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"objective": "sphere", "particels": 6}))
        code = run_cli("run", "--config", str(path), "--out", str(tmp_path / "x"))
        assert code == 2
        assert "particels" in capsys.readouterr().err

    def test_config_echo_round_trip_reproduces_csvs(self, tmp_path):
        first = tmp_path / "first"
        code = run_cli(
            "run",
            "--objective", "griewank",
            "--runs", "2",
            "--seed", "3",
            "--iterations", "25",
            "--variant", "both",
            "--out", str(first),
            "--no-timing",
        )
        assert code == 0
        second = tmp_path / "second"
        code = run_cli(
            "run",
            "--config", str(first / "config.echo.json"),
            "--out", str(second),
            "--no-timing",
        )
        assert code == 0
        for name in ("runs.csv", "trace_standard.csv", "trace_qs.csv", "comparison.csv", "config.echo.json"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_row_count_scales_with_runs(self, tmp_path):
        out = tmp_path / "many"
        code = run_cli(
            "run",
            "--objective", "sphere",
            "--runs", "5",
            "--iterations", "10",
            "--variant", "standard",
            "--out", str(out),
            "--no-timing",
        )
        assert code == 0
        with open(out / "runs.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 5
        assert [int(r["run_index"]) for r in rows] == [0, 1, 2, 3, 4]
        # seeds derive from the default base seed 0 by XOR with the run index
        assert [int(r["seed"]) for r in rows] == [0, 1, 2, 3, 4]

    def test_jobs_flag_does_not_change_run_artifacts(self, tmp_path):
        outputs = {}
        for jobs in (1, 3):
            out = tmp_path / f"jobs{jobs}"
            code = run_cli(
                "run",
                "--objective", "ackley",
                "--runs", "4",
                "--iterations", "25",
                "--variant", "both",
                "--jobs", str(jobs),
                "--out", str(out),
                "--no-timing",
            )
            assert code == 0
            outputs[jobs] = out
        for name in ("runs.csv", "trace_standard.csv", "trace_qs.csv", "comparison.csv"):
            assert (outputs[1] / name).read_bytes() == (outputs[3] / name).read_bytes()

    def test_env_var_provides_output_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QSWARM_OUT", str(tmp_path / "root"))
        code = run_cli(
            "run",
            "--objective", "sphere",
            "--runs", "1",
            "--iterations", "5",
            "--variant", "standard",
        )
        assert code == 0
        created = list((tmp_path / "root").iterdir())
        assert len(created) == 1
        assert (created[0] / "runs.csv").exists()


class TestBenchmarkCommand:
    def test_reduced_scale_benchmark(self, tmp_path, capsys):
        out = tmp_path / "bench"
        code = run_cli(
            "benchmark",
            "--runs", "2",
            "--seed", "0",
            "--out", str(out),
            "--no-timing",
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "reduced statistical power" in output
        for name, dimension, *_ in BENCHMARK_ROWS:
            assert f"{name} {dimension}D" in output
        assert output.count("PASS:") + output.count("FAIL:") == 6
        with open(out / "comparison.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 6
        assert (out / "comparison.txt").exists()
        for name, dimension, *_ in BENCHMARK_ROWS:
            assert (out / f"runs_{name}_{dimension}d.csv").exists()

    def test_emit_traces_writes_band_files(self, tmp_path):
        out = tmp_path / "bench"
        code = run_cli(
            "benchmark",
            "--runs", "1",
            "--out", str(out),
            "--no-timing",
            "--emit-traces",
        )
        assert code == 0
        for name, dimension, *_ in BENCHMARK_ROWS:
            for label in ("standard", "qs"):
                assert (out / f"trace_{name}_{dimension}d_{label}.csv").exists()


class TestFlagValidation:
    @pytest.mark.parametrize(
        "argv,flag",
        [
            (("benchmark", "--runs", "0"), "--runs"),
            (("benchmark", "--jobs", "0"), "--jobs"),
            (("run", "--objective", "sphere", "--jobs", "0"), "--jobs"),
        ],
    )
    def test_bad_flag_exits_2_before_any_output(self, tmp_path, capsys, argv, flag):
        out = tmp_path / "out"
        assert run_cli(*argv, "--out", str(out)) == 2
        captured = capsys.readouterr()
        assert flag in captured.err
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ("run", "--objective", "sphere", "--runs", "2", "--iterations", "10", "--no-timing"),
            ("benchmark", "--runs", "2", "--no-timing"),
        ],
    )
    @pytest.mark.parametrize("kind", ["non-empty directory", "file"])
    def test_an_out_that_is_no_empty_directory_exits_2(self, tmp_path, capsys, argv, kind):
        # Artifacts of an earlier invocation would otherwise sit beside the
        # new ones; the CLI refuses and deletes nothing.
        out = tmp_path / "out"
        if kind == "file":
            out.write_text("keep\n")
            before = out.read_bytes()
        else:
            out.mkdir()
            (out / "comparison.csv").write_text("earlier\n")
            before = {path.name: path.read_bytes() for path in out.iterdir()}
        assert run_cli(*argv, "--out", str(out)) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: invalid value for '--out': {out} is not an empty directory\n"
        assert captured.out == ""
        if kind == "file":
            assert out.read_bytes() == before
        else:
            assert {path.name: path.read_bytes() for path in out.iterdir()} == before

    def test_an_empty_out_directory_is_used(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        assert run_cli("run", "--objective", "sphere", "--iterations", "10", "--out", str(out)) == 0
        assert (out / "config.echo.json").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ("run", "--objective", "sphere", "--runs", "2", "--iterations", "10", "--no-timing"),
            ("benchmark", "--runs", "2", "--no-timing"),
        ],
    )
    def test_an_empty_out_is_the_working_directory(self, tmp_path, monkeypatch, capsys, argv):
        # '' names a path, the working directory, so the default root under
        # $QSWARM_OUT is not used and the empty-directory rule applies.
        work = tmp_path / "work"
        work.mkdir()
        (work / "comparison.csv").write_text("earlier\n")
        root = tmp_path / "root"
        monkeypatch.setenv("QSWARM_OUT", str(root))
        monkeypatch.chdir(work)
        assert run_cli(*argv, "--out", "") == 2
        captured = capsys.readouterr()
        assert captured.err == "error: invalid value for '--out': . is not an empty directory\n"
        assert captured.out == ""
        assert [path.name for path in work.iterdir()] == ["comparison.csv"]
        assert (work / "comparison.csv").read_text() == "earlier\n"
        assert not root.exists() or not list(root.glob("qswarm_*"))


class TestDefaults:
    def test_benchmark_rows_cover_the_six_configurations(self):
        # objective, dim, particles, box limit, gate op, gate ratio
        assert BENCHMARK_ROWS == (
            ("ackley", 2, 6, 32.768, "lt", 0.1),
            ("griewank", 2, 6, 600.0, "lt", 1.0),
            ("sphere", 2, 6, 10.0, "le", 2.0),
            ("sphere", 3, 10, 10.0, "lt", 0.1),
            ("flower", 2, 6, 100.0, "lt", 0.01),
            ("flower", 3, 10, 100.0, "lt", 0.01),
        )

    def test_default_params_table(self):
        assert DEFAULT_PARAMS["omega0"] == 0.72984
        assert DEFAULT_PARAMS["c1_0"] == 2.8
        assert DEFAULT_PARAMS["c2_0"] == 2.05
        assert DEFAULT_PARAMS["vmax0"] == 2.0
        assert DEFAULT_PARAMS["S"] == 52
        assert DEFAULT_PARAMS["tau"] == 1.2
        assert DEFAULT_PARAMS["gamma_floor"] == 1e-12

    def test_paper_run_count_is_written_once(self):
        # PAPER_RUNS is the one place the 400-run protocol is written out.
        assert re.findall(r"\b400\b", inspect.getsource(qswarm.cli)) == ["400"]
        assert build_parser().parse_args(["benchmark"]).runs == PAPER_RUNS == 400

    def test_help_names_the_defaults_that_apply(self, capsys):
        def help_text(command):
            with pytest.raises(SystemExit):
                main([command, "--help"])
            return " ".join(capsys.readouterr().out.split())

        cfg, _ = effective_config({}, {"objective": "sphere"})
        run_args = build_parser().parse_args(["run"])
        run_help = help_text("run")
        assert f"problem dimension (default {cfg['dimension']})" in run_help
        assert f"independent runs per variant (default {cfg['runs']})" in run_help
        assert f"run j uses base XOR j (default {cfg['seed']})" in run_help
        assert f"default: {cfg['variant']}" in run_help
        assert f"worker processes (default {run_args.jobs})" in run_help
        bench_args = build_parser().parse_args(["benchmark"])
        bench_help = help_text("benchmark")
        assert f"runs per variant per row (default {bench_args.runs})" in bench_help
        assert f"base seed (default {bench_args.seed})" in bench_help
        assert f"worker processes (default {bench_args.jobs})" in bench_help

    def test_iteration_default_is_read_from_swarm_config(self):
        # SwarmConfig.iterations is the one place the default is written out.
        literal = re.compile(rf"\b{SwarmConfig.iterations}\b")
        for module in (qswarm.cli, qswarm.experiments):
            assert not literal.search(inspect.getsource(module)), module.__name__
        cfg, _ = effective_config({}, {"objective": "sphere"})
        assert cfg["iterations"] == SwarmConfig.iterations
        # So is the seed default of both commands.
        assert cfg["seed"] == build_parser().parse_args(["benchmark"]).seed == SwarmConfig.seed


ROOT = Path(__file__).resolve().parents[1]

SETUP_PROBE = """
import runpy, sys
runpy.run_path("perfbench/probe.py", run_name="__main__")
names = ("multiprocessing", "concurrent.futures.process", "numpy.random", "scipy", "scipy.linalg._flapack")
print("loaded", *(name in sys.modules for name in names))
"""


def test_the_benchmark_set_up_probe_loads_no_pool_random_or_scipy_stack():
    # The probe is the set-up path the benchmark times: import the package
    # through the command-line module, build the first row's objective and
    # configuration. None of that needs a process pool, a random generator
    # or LAPACK.
    path = os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")]))
    words = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    ).stdout.split()
    assert words[0] == "ready" and float(words[1]) > 0
    assert words[2:] == ["loaded", "False", "False", "False", "False", "False"]
