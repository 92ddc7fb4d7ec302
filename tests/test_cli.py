"""Tests for ``python -m repro``: the one command tree, the one rule that
turns a command line into a job, and the one error contract."""

import argparse
import importlib
import os
import subprocess
import sys

import pytest

from repro import cli
from repro.__main__ import GROUPS, build_parser, main
from repro.config import TelemetryConfig
from repro.sweep import JobSpec

#: every command of the tree, by group ("" is the top level)
TREE = {
    "": ["list", "run", "experiment", "area"],
    "sweep": ["list", "run", "status", "clean"],
    "telemetry": ["trace", "report", "hist", "timeline", "events", "blame"],
    "faults": ["run", "plan", "sweep"],
    "model": ["predict", "validate", "screen"],
    "explore": ["run", "frontier", "show"],
}

#: the commands that take the job block: the module whose handler asks
#: ``job_from_args`` for its job, the command's own arguments, and its
#: built-in window
JOB_COMMANDS = {
    ("run",): ("repro.__main__", [], (3000, 2000)),
    ("telemetry", "trace"): ("repro.telemetry.cli", ["--out", "t.jsonl"],
                             (2000, 1000)),
    ("faults", "run"): ("repro.faults.cli", ["--intensity", "0.2"],
                        (3000, 1000)),
    ("faults", "plan"): ("repro.faults.cli", [], (3000, 1000)),
    ("model", "predict"): ("repro.model.cli", [], (3000, 2000)),
}


def _subcommands(parser):
    (action,) = [a for a in parser._actions
                 if isinstance(a, argparse._SubParsersAction)]
    return action


class TestTree:
    def test_every_command_is_present_once(self):
        top = _subcommands(build_parser())
        assert list(top.choices) == TREE[""] + list(GROUPS)
        for group in GROUPS:
            sub = _subcommands(_subcommands(build_parser(group)).choices[group])
            assert list(sub.choices) == TREE[group]
        assert sum(len(names) for names in TREE.values()) == 23

    def test_every_leaf_and_every_option_has_help(self):
        for group, names in TREE.items():
            sub = _subcommands(build_parser(group or None))
            if group:
                sub = _subcommands(sub.choices[group])
            listed = {a.dest: a.help for a in sub._choices_actions}
            for name in names:
                assert listed[name], (group, name)
                for action in sub.choices[name]._actions:
                    assert action.help, (group, name, action.dest)

    @pytest.mark.parametrize("path", [
        [g, n] if g else [n] for g, names in TREE.items() for n in names
    ] + [[]] + [[g] for g in GROUPS], ids=" ".join)
    def test_help_exits_zero(self, path, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*path, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith(
            " ".join(["usage: python -m repro", *path])
        )

    def test_a_group_is_imported_only_when_it_is_the_first_argument(self):
        code = (
            "import sys; from repro.__main__ import main; main(['list']); "
            "bad = [m for m in sys.modules if m.count('.') == 2 and m.endswith('.cli')]; "
            "sys.exit(repr(bad) if bad else 0)"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("group", list(GROUPS))
    def test_the_old_entry_points_are_gone(self, group):
        """``python -m repro.<group>`` was folded into ``python -m repro
        <group>`` with no forwarding stub: the interpreter's own one-line
        refusal, nothing of ours."""
        proc = subprocess.run(
            [sys.executable, "-m", f"repro.{group}"],
            capture_output=True, text=True,
        )
        assert proc.returncode != 0
        assert "Traceback" not in proc.stderr
        assert "No module named" in proc.stderr.strip().splitlines()[-1]


class _Captured(Exception):
    """Stops a command once it has said which job it would run."""


def job_of(monkeypatch, command, block):
    """The JobSpec ``command`` builds from the job block ``block``."""
    module, own, _builtin = JOB_COMMANDS[command]

    def spy(*args, **kwargs):
        raise _Captured(cli.job_from_args(*args, **kwargs))

    monkeypatch.setattr(importlib.import_module(module), "job_from_args", spy)
    with pytest.raises(_Captured) as exc:
        main([*command, *own, *block])
    return exc.value.args[0]


def bare_key(spec):
    """``spec.key()`` with the command's own additions set aside."""
    cfg = spec.system_config()
    cfg.telemetry = TelemetryConfig()
    return JobSpec.make(
        cfg, spec.gpu, spec.cpu, cycles=spec.cycles, warmup=spec.warmup
    ).key()


BLOCK = ["--gpu", "HS", "--cpu", "canneal", "--mechanism", "dr",
         "--seed", "7", "--cycles", "60", "--warmup", "40",
         "--set", "noc.vc_depth_flits=8", "--set", "llc.slice_size_bytes=524288"]


class TestOneJobRule:
    def test_same_block_same_job(self, monkeypatch):
        specs = {c: job_of(monkeypatch, c, BLOCK) for c in JOB_COMMANDS}
        assert len({bare_key(s) for s in specs.values()}) == 1
        spec = specs[("run",)]
        assert (spec.gpu, spec.cpu, spec.cycles, spec.warmup) == (
            "HS", "canneal", 60, 40)
        cfg = spec.system_config()
        assert cfg.mechanism.value == "delegated_replies" and cfg.seed == 7
        assert cfg.noc.vc_depth_flits == 8
        assert cfg.llc.slice_size_bytes == 524288
        # what a command adds is its own: only `trace` turns telemetry on
        assert [c for c, s in specs.items()
                if s.system_config().telemetry.enabled] == [("telemetry", "trace")]

    @pytest.mark.parametrize("command", list(JOB_COMMANDS), ids=" ".join)
    def test_cpu_defaults_to_the_first_table2_corunner(self, monkeypatch,
                                                       command):
        assert job_of(monkeypatch, command, ["--gpu", "HS"]).cpu == "bodytrack"

    @pytest.mark.parametrize("command", list(JOB_COMMANDS), ids=" ".join)
    def test_window_is_flag_then_env_then_builtin(self, monkeypatch, command):
        def window(*block):
            spec = job_of(monkeypatch, command, ["--gpu", "HS", *block])
            return spec.cycles, spec.warmup

        monkeypatch.delenv("REPRO_CYCLES", raising=False)
        monkeypatch.delenv("REPRO_WARMUP", raising=False)
        assert window() == JOB_COMMANDS[command][2]
        monkeypatch.setenv("REPRO_CYCLES", "70")
        monkeypatch.setenv("REPRO_WARMUP", "30")
        assert window() == (70, 30)
        assert window("--cycles", "90") == (90, 30)
        assert window("--cycles", "90", "--warmup", "0") == (90, 0)

    @pytest.mark.parametrize("command", list(JOB_COMMANDS), ids=" ".join)
    def test_set_reaches_any_config_leaf(self, monkeypatch, command):
        cfg = job_of(monkeypatch, command, [
            "--gpu", "HS", "--set", "noc.topology=crossbar",
            "--set", "telemetry.sample_rate=0.5",
            "--set", "delegation.frq_merge=true", "--set", "seed=9",
        ]).system_config()
        assert cfg.noc.topology.value == "crossbar"
        assert cfg.telemetry.sample_rate == 0.5
        assert cfg.delegation.frq_merge is True and cfg.seed == 9

    def test_set_after_the_commands_preset(self, monkeypatch):
        trace = ("telemetry", "trace")
        assert job_of(monkeypatch, trace, ["--gpu", "HS"]
                      ).system_config().telemetry.mode == "full"
        assert job_of(monkeypatch, trace, ["--set", "telemetry.mode=light"]
                      ).system_config().telemetry.mode == "light"

    @pytest.mark.parametrize("command", list(JOB_COMMANDS), ids=" ".join)
    @pytest.mark.parametrize("setting,expect", [
        ("nope.x=1", "unknown config field 'nope.x'; SystemConfig has"),
        ("noc.nope=1", "unknown config field 'noc.nope'; NocConfig has"),
        ("noc=1", "unknown config field 'noc'"),
        ("noc.topology", "--set expects PATH=VALUE, got 'noc.topology'"),
        ("telemetry.sample_rate=7",
         "telemetry.sample_rate must be in [0, 1], got 7.0"),
        ("noc.bandwidth_factor=0.5",
         "noc.bandwidth_factor must be a whole number >= 1, got 0.5"),
        ("noc.topology=torus", "noc.topology must be one of"),
        ("telemetry.mode=loud", "telemetry.mode must be one of"),
        ("noc.vc_depth_flits=deep", "noc.vc_depth_flits expects int, got 'deep'"),
        ("telemetry.enabled=maybe",
         "telemetry.enabled expects true or false, got 'maybe'"),
    ])
    def test_hostile_set_is_one_error_line(self, command, setting, expect,
                                           capsys):
        own = JOB_COMMANDS[command][1]
        assert main([*command, *own, "--gpu", "HS", "--set", setting]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and expect in err
        assert err.count("\n") == 1 and "Traceback" not in err


class TestList:
    def test_lists_benchmarks_and_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("2DCON", "HS", "BP", "vips", "fig10_gpu_perf",
                     "fig19_sensitivity", "ablations"):
            assert name in out


class TestRun:
    def test_run_baseline(self, capsys):
        rc = main(["run", "--gpu", "HS", "--cycles", "200", "--warmup", "100"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "gpu_ipc" in out
        assert "workload:            HS + bodytrack" in out
        assert "mechanism:           baseline" in out

    def test_run_dr_prints_breakdown(self, capsys):
        rc = main([
            "run", "--gpu", "HS", "--cpu", "bodytrack", "--mechanism", "dr",
            "--cycles", "200", "--warmup", "100",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "delegated_fraction" in out
        assert "cpu_latency_avg" in out

    def test_unknown_benchmark_raises(self, capsys):
        """``main`` turns the lookup's ``KeyError`` into the one-line
        usage error, choices included."""
        assert main(["run", "--gpu", "NOPE", "--cycles", "100",
                     "--warmup", "50"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unknown GPU benchmark 'NOPE'; choose from")
        assert "HS" in err and err.count("\n") == 1

    def test_predict_runs_on_a_set_design_point(self, capsys):
        assert main(["model", "predict", "--gpu", "HS",
                     "--set", "noc.topology=crossbar",
                     "--set", "telemetry.sample_rate=0.5"]) == 0
        assert "HS/bodytrack @ baseline, crossbar 1x" in capsys.readouterr().out


class TestExperiment:
    def test_experiment_runs_and_prints_table(self, capsys):
        rc = main([
            "experiment", "fig07_adaptive",
            "--cycles", "200", "--warmup", "150", "--benchmarks", "HS",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Fig. 7" in out
        # then the figure's verdicts, one line per claim
        assert out.count("mean(*.") == 3 and "(paper: " in out

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
TRACE = ["telemetry", "trace", "--out", "t.jsonl"]


@pytest.mark.parametrize("argv,env,expect", [
    (["run", "--gpu", "NOPE"], {}, "unknown GPU benchmark 'NOPE'; choose from"),
    (["sweep", "run", "--benchmarks", "NOPE"], {},
     "unknown GPU benchmark 'NOPE'; choose from"),
    (FIG, {"REPRO_CYCLES": "abc"}, "$REPRO_CYCLES must be an integer >= 1"),
    (["sweep", "list"], {"REPRO_CYCLES": "abc"},
     "$REPRO_CYCLES must be an integer >= 1"),
    (["run", "--gpu", "HS"], {"REPRO_CYCLES": "abc"},
     "$REPRO_CYCLES must be an integer >= 1"),
    (FIG, {"REPRO_CYCLES": "0"}, "$REPRO_CYCLES must be an integer >= 1"),
    (FIG, {"REPRO_WARMUP": "abc"}, "$REPRO_WARMUP must be an integer >= 0"),
    (["experiment", "fig07_adaptive"], {"REPRO_BENCH_SUBSET": "0"},
     "$REPRO_BENCH_SUBSET must be an integer >= 1"),
    (["experiment", "fig10_gpu_perf"], {"REPRO_MIXES": "two"},
     "$REPRO_MIXES must be an integer >= 1"),
    (["sweep", "list"], {"REPRO_WARMUP": "abc"},
     "$REPRO_WARMUP must be an integer >= 0"),
    (FIG + ["--cycles", "100", "--warmup", "50"], {"REPRO_BACKEND": "foo"},
     "unknown backend 'foo'"),
    (["sweep", "run", "--benchmarks", "HS", "--cycles", "100"],
     {"REPRO_BACKEND": "foo"}, "unknown backend 'foo'"),
    (FIG + ["--cycles", "0"], {}, "argument --cycles: must be >= 1, got 0"),
    (["sweep", "list", "--cycles", "0"], {},
     "argument --cycles: must be >= 1, got 0"),
    (["model", "predict", "--gpu", "HS", "--set", "noc.topology=torus"], {},
     "noc.topology must be one of"),
    (["model", "predict", "--gpu", "NOPE"], {},
     "unknown GPU benchmark 'NOPE'; choose from"),
    (["model", "predict", "--gpu", "HS", "--set", "noc.bandwidth_factor=0.5"],
     {}, "noc.bandwidth_factor must be a whole number >= 1, got 0.5"),
    (TRACE + ["--gpu", "NOPE"], {}, "unknown GPU benchmark 'NOPE'; choose from"),
    (TRACE + ["--set", "telemetry.sample_rate=7"], {},
     "telemetry.sample_rate must be in [0, 1], got 7.0"),
    (TRACE, {"REPRO_BACKEND": "vector"},
     "backend 'vector' does not support telemetry"),
    (["faults", "run", "--gpu", "NOPE"], {},
     "unknown GPU benchmark 'NOPE'; choose from"),
    (["experiment", "nope"], {}, "unknown experiment 'nope'"),
    # importable, but not figure modules: not what `list` prints
    (["experiment", "common"], {}, "unknown experiment 'common'"),
    (["experiment", "__init__"], {}, "unknown experiment '__init__'"),
    (["experiment", "fig10_gpu_perf.x"], {},
     "unknown experiment 'fig10_gpu_perf.x'"),
    # retired spellings are argparse's own usage error
    (["run", "HS"], {}, "the following arguments are required: --gpu"),
    (["sweep", "run", "--batch", "2"], {}, "unrecognized arguments: --batch 2"),
    (TRACE + ["--format", "bin"], {}, "unrecognized arguments: --format bin"),
])
def test_usage_errors_are_one_error_line(
    argv, env, expect, monkeypatch, capsys, tmp_path
):
    """Exit 2, exactly one ``error:`` line on stderr, no traceback."""
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    monkeypatch.setenv("REPRO_SWEEP_CACHE", str(tmp_path / "cache"))
    monkeypatch.chdir(tmp_path)
    try:
        status = main(argv)
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
