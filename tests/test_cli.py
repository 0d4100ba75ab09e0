"""Command-line surface: flags, config files, artifacts, exit codes."""

import csv
import inspect
import json
import math
import re

import pytest

import qswarm.cli
import qswarm.experiments
from qswarm.cli import (
    BENCHMARK_ROWS,
    DEFAULT_PARAMS,
    PAPER_RUNS,
    ConfigError,
    build_parser,
    effective_config,
    load_config_file,
    main,
)
from qswarm.experiments import BatchSpec
from qswarm.swarm import SwarmConfig


def run_cli(*argv):
    return main(list(argv))


class TestEffectiveConfig:
    def test_defaults_match_reference_parameter_set(self):
        cfg = effective_config({}, {"objective": "sphere"})
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
        cfg = effective_config(
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
            ("params.S", {"params": {"S": True}}),
            ("params.tau", {"params": {"tau": True}}),
            # Python's json reads NaN and Infinity; neither is a coefficient.
            ("params.omega0", {"params": {"omega0": math.nan}}),
            ("params.vmax0", {"params": {"vmax0": math.inf}}),
            ("params.c2_0", {"params": {"c2_0": -math.inf}}),
            ("params.c1_0", {"params": {"c1_0": 10**400}}),  # no double holds it
        ]:
            with pytest.raises(ConfigError, match=re.escape(key)):
                effective_config({"objective": "sphere", **cfg}, {})


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

    def test_box_of_infinite_width_exits_2_before_any_output(self, tmp_path, capsys):
        # Both ends are finite doubles, but hi - lo overflows.
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"objective": "sphere", "bounds": [[-1e308, 1e308], [-1, 1]]}))
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

    def test_iteration_default_is_read_from_swarm_config(self):
        # SwarmConfig.iterations is the one place the default is written out.
        literal = re.compile(rf"\b{SwarmConfig.iterations}\b")
        for module in (qswarm.cli, qswarm.experiments):
            assert not literal.search(inspect.getsource(module)), module.__name__
        assert BatchSpec("sphere", 2, 6, 1).iterations == SwarmConfig.iterations
        cfg = effective_config({}, {"objective": "sphere"})
        assert cfg["iterations"] == SwarmConfig.iterations
