"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import main
from repro.faults.__main__ import main as faults_main
from repro.model.__main__ import main as model_main
from repro.sweep.__main__ import main as sweep_main
from repro.telemetry.__main__ import main as telemetry_main


class TestList:
    def test_lists_benchmarks_and_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("2DCON", "HS", "BP", "vips", "fig10_gpu_perf",
                     "fig19_sensitivity", "ablations"):
            assert name in out


class TestRun:
    def test_run_baseline(self, capsys):
        rc = main(["run", "HS", "--cycles", "200", "--warmup", "100"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "gpu_ipc" in out
        assert "mechanism:           baseline" in out

    def test_run_dr_prints_breakdown(self, capsys):
        rc = main([
            "run", "HS", "bodytrack", "--mechanism", "dr",
            "--cycles", "200", "--warmup", "100",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "delegated_fraction" in out
        assert "cpu_latency_avg" in out

    def test_unknown_benchmark_raises(self, capsys):
        """``main`` turns the lookup's ``KeyError`` into the one-line
        usage error, choices included."""
        assert main(["run", "NOPE", "--cycles", "100", "--warmup", "50"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unknown GPU benchmark 'NOPE'; choose from")
        assert "HS" in err and err.count("\n") == 1


class TestExperiment:
    def test_experiment_runs_and_prints_table(self, capsys):
        rc = main([
            "experiment", "fig07_adaptive",
            "--cycles", "200", "--warmup", "150", "--benchmarks", "HS",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Fig. 7" in out

    def test_unknown_experiment_fails_cleanly(self, capsys):
        rc = main(["experiment", "fig99_nothing"])
        assert rc == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_import_error_inside_a_figure_is_not_an_unknown_name(
        self, monkeypatch
    ):
        """Only the name lookup says "unknown experiment": a figure
        module's own failed import surfaces as what it is."""
        from repro.experiments import fig07_adaptive

        def run(**_kw):
            raise ImportError("No module named 'matplotlib'")

        monkeypatch.setattr(fig07_adaptive, "run", run)
        with pytest.raises(ImportError, match="matplotlib"):
            main(["experiment", "fig07_adaptive"])


FIG = ["experiment", "fig07_adaptive", "--benchmarks", "HS"]


@pytest.mark.parametrize("cli,argv,env,expect", [
    (main, ["run", "NOPE"], {}, "unknown GPU benchmark 'NOPE'; choose from"),
    (sweep_main, ["run", "--benchmarks", "NOPE"], {},
     "unknown GPU benchmark 'NOPE'; choose from"),
    (main, FIG, {"REPRO_CYCLES": "abc"}, "$REPRO_CYCLES must be an integer >= 1"),
    (sweep_main, ["list"], {"REPRO_CYCLES": "abc"},
     "$REPRO_CYCLES must be an integer >= 1"),
    (main, FIG, {"REPRO_CYCLES": "0"}, "$REPRO_CYCLES must be an integer >= 1"),
    (main, FIG, {"REPRO_WARMUP": "abc"}, "$REPRO_WARMUP must be an integer >= 0"),
    (sweep_main, ["list"], {"REPRO_WARMUP": "abc"},
     "$REPRO_WARMUP must be an integer >= 0"),
    (main, FIG + ["--cycles", "100", "--warmup", "50"], {"REPRO_BACKEND": "foo"},
     "unknown backend 'foo'"),
    (sweep_main, ["run", "--benchmarks", "HS", "--cycles", "100"],
     {"REPRO_BACKEND": "foo"}, "unknown backend 'foo'"),
    (main, FIG + ["--cycles", "0"], {}, "argument --cycles: must be >= 1, got 0"),
    (sweep_main, ["list", "--cycles", "0"], {},
     "argument --cycles: must be >= 1, got 0"),
    (model_main, ["predict", "--gpu", "HS", "--topology", "torus"], {},
     "argument --topology: invalid choice: 'torus'"),
    (model_main, ["predict", "--gpu", "NOPE"], {},
     "unknown GPU benchmark 'NOPE'; choose from"),
    (model_main, ["predict", "--gpu", "HS", "--bandwidth-factor", "0.5"], {},
     "noc.bandwidth_factor must be a whole number >= 1, got 0.5"),
    (telemetry_main, ["trace", "--out", "t.jsonl", "--gpu", "NOPE"], {},
     "unknown GPU benchmark 'NOPE'; choose from"),
    (telemetry_main, ["trace", "--out", "t.jsonl", "--sample-rate", "7"], {},
     "telemetry.sample_rate must be in [0, 1], got 7.0"),
    (telemetry_main, ["trace", "--out", "t.jsonl"], {"REPRO_BACKEND": "vector"},
     "backend 'vector' does not support telemetry"),
    (faults_main, ["run", "--gpu", "NOPE"], {},
     "unknown GPU benchmark 'NOPE'; choose from"),
    (main, ["experiment", "nope"], {}, "unknown experiment 'nope'"),
    # importable, but not figure modules: not what `list` prints
    (main, ["experiment", "common"], {}, "unknown experiment 'common'"),
    (main, ["experiment", "__init__"], {}, "unknown experiment '__init__'"),
    (main, ["experiment", "fig10_gpu_perf.x"], {},
     "unknown experiment 'fig10_gpu_perf.x'"),
])
def test_usage_errors_are_one_error_line(
    cli, argv, env, expect, monkeypatch, capsys, tmp_path
):
    """Exit 2, exactly one ``error:`` line on stderr, no traceback."""
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    monkeypatch.setenv("REPRO_SWEEP_CACHE", str(tmp_path / "cache"))
    try:
        status = cli(argv)
    except SystemExit as exc:  # argparse's own exit for a bad flag value
        status = exc.code
    assert status == 2
    err = capsys.readouterr().err
    error_lines = [ln for ln in err.splitlines() if "error:" in ln]
    assert len(error_lines) == 1 and expect in error_lines[0]
    assert "Traceback" not in err


class TestArea:
    def test_area_prints_calibrated_numbers(self, capsys):
        assert main(["area"]) == 0
        out = capsys.readouterr().out
        assert "2.27" in out
        assert "0.172" in out
