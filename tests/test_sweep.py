"""Tests for the ``repro.sweep`` subsystem.

Covers spec hashing, the on-disk result cache, the runner's retry and
resume behaviour, the warm-pool executor (pool reuse across retry
rounds, one future per job, crash recovery, kill-mid-run resume), the
layering of the job rule, and the determinism contract: a parallel sweep must produce
byte-identical ``SimulationResult`` payloads to the one-worker path and
to the pre-refactor sequential ``run_simulation`` loop.
"""

import ast
import json
import os
import time
from pathlib import Path

import pytest
from conftest import small_dr_config

import repro
from repro.config import baseline_config, delegated_replies_config
from repro.experiments import chaos_sweep
from repro.faults.plan import chaos_plan
from repro.sim.metrics import SimulationResult
from repro.sim.simulator import run_simulation
from repro.sweep import (
    JobOutcome,
    JobSpec,
    ResultCache,
    SweepError,
    SweepRunner,
    dedupe,
    default_jobs,
    mechanism_jobs,
    run_sweep,
)
from repro.sweep.jobs import job
from repro.sweep.runner import simulate_job, stall_shares

TINY = dict(cycles=200, warmup=120)


def tiny_spec(**overrides) -> JobSpec:
    kwargs = dict(
        config=baseline_config(), gpu="HS", cpu="bodytrack", **TINY
    )
    kwargs.update(overrides)
    return JobSpec.make(**kwargs)


def result_bytes(result) -> str:
    return json.dumps(result.to_dict(), sort_keys=True)


class TestJobSpec:
    def test_hashable_and_deduplicates(self):
        a, b = tiny_spec(), tiny_spec()
        assert a == b
        assert len({a, b}) == 1
        assert dedupe([a, b]) == [a]

    def test_key_is_stable(self):
        assert tiny_spec().key() == tiny_spec().key()

    def test_label_excluded_from_key(self):
        assert tiny_spec().key() == tiny_spec(label=("x", "y")).key()

    def test_key_tracks_inputs(self):
        base = tiny_spec()
        assert base.key() != tiny_spec(config=delegated_replies_config()).key()
        assert base.key() != tiny_spec(cycles=TINY["cycles"] + 1).key()
        assert base.key() != tiny_spec(gpu="SC").key()
        assert base.key() != tiny_spec(cpu=None).key()

    def test_salt_invalidates_keys(self, monkeypatch, tmp_path):
        # a key written under an older code version is a clean miss under
        # the current one, not an error
        with monkeypatch.context() as m:
            m.setattr(repro.sweep.jobs, "CODE_VERSION", "sweep-v5")
            stale_key = tiny_spec().key()
        assert repro.sweep.jobs.CODE_VERSION != "sweep-v5"
        assert tiny_spec().key() != stale_key
        assert ResultCache(tmp_path).get(tiny_spec().key()) is None

    def test_wire_round_trip(self):
        spec = tiny_spec(label=("HS", "bodytrack", "baseline"))
        again = JobSpec.from_dict(spec.to_dict())
        assert again == spec
        assert again.key() == spec.key()

    def test_system_config_round_trips(self):
        cfg = delegated_replies_config()
        assert JobSpec.make(cfg, "HS", **TINY).system_config() == cfg


class TestLayering:
    def test_the_job_rule_sits_below_everything_that_uses_it(self):
        """``repro.sweep`` (where ``job()`` lives) and ``repro/cli.py``
        never reach up into ``repro.experiments`` — not at module level,
        not inside a function."""
        src = Path(repro.__file__).parent

        def imported(path):
            names = set()
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names.update(alias.name for alias in node.names)
                elif isinstance(node, ast.ImportFrom) and node.module:
                    names.add(node.module)
                    names.update(
                        f"{node.module}.{alias.name}" for alias in node.names
                    )
            return names

        def reaches(path, package):
            return any(
                name == package or name.startswith(package + ".")
                for name in imported(path)
            )

        sweep = sorted((src / "sweep").glob("*.py"))
        assert len(sweep) >= 5
        assert [
            str(p.relative_to(src))
            for p in [*sweep, src / "cli.py"]
            if reaches(p, "repro.experiments")
        ] == []


class TestJobRule:
    """``job()`` is the one rule for the co-runner and the window; what
    enumerates jobs calls it and so inherits it."""

    @pytest.fixture
    def no_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_CYCLES", raising=False)
        monkeypatch.delenv("REPRO_WARMUP", raising=False)

    def test_window_is_argument_then_env_then_builtin(
        self, no_env, monkeypatch
    ):
        def window(*args, **kwargs):
            spec = job(baseline_config(), "HS", *args, **kwargs)
            return spec.cycles, spec.warmup

        assert window() == (3000, 2000)
        assert window(builtin=(700, 300)) == (700, 300)
        # read at call time, not import time
        monkeypatch.setenv("REPRO_CYCLES", "555")
        monkeypatch.setenv("REPRO_WARMUP", "333")
        assert window() == window(builtin=(700, 300)) == (555, 333)
        assert window(90) == (90, 333)
        assert window(90, 0) == (90, 0)
        monkeypatch.setenv("REPRO_WARMUP", "-1")
        with pytest.raises(ValueError, match=r"\$REPRO_WARMUP must be"):
            window()

    def test_cpu_is_the_argument_else_the_first_table2_corunner(self):
        assert job(baseline_config(), "HS", **TINY).cpu == "bodytrack"
        assert job(baseline_config(), "HS", cpu="canneal", **TINY).cpu == "canneal"
        with pytest.raises(KeyError, match="unknown GPU benchmark"):
            job(baseline_config(), "nope", **TINY)

    @pytest.mark.parametrize("enumerate_jobs", [
        pytest.param(
            lambda **w: mechanism_jobs(["HS"], **w), id="mechanism_jobs"),
        pytest.param(
            lambda **w: _chaos_sweep_jobs(**w), id="chaos_sweep"),
    ])
    def test_enumerators_inherit_the_window_rule(
        self, no_env, monkeypatch, enumerate_jobs
    ):
        def windows(**window):
            return {(s.cycles, s.warmup) for s in enumerate_jobs(**window)}

        assert windows() == {(3000, 2000)}
        monkeypatch.setenv("REPRO_CYCLES", "180")
        monkeypatch.setenv("REPRO_WARMUP", "120")
        assert windows() == {(180, 120)}
        assert windows(cycles=90) == {(90, 120)}
        assert windows(cycles=90, warmup=0) == {(90, 0)}


def _chaos_sweep_jobs(**window):
    """The chaos sweep's specs (nothing simulated)."""
    specs = list(
        chaos_sweep.specs(["HS"], intensities=(0.0, 0.1), **window).values()
    )
    assert [s.faults is not None for s in specs] == [False, True] * 2
    return specs


class TestSameSpecSameRun:
    """One function runs a spec, so the pool worker and the one-job
    commands cannot simulate different jobs from the same spec."""

    def test_every_field_of_the_spec_reaches_the_simulator(self):
        cfg = small_dr_config()
        spec = JobSpec.make(
            cfg, "HS", "bodytrack", cycles=300, warmup=200,
            kernel_flush_interval=200,
            faults=chaos_plan(cfg, 0.1, seed=3, link_down=False),
            backend="vector",
        )
        system = spec.build()
        assert system.backend == "vector"
        assert system.faults is not None
        assert system.faults.plan.plan_hash() == spec.fault_plan().plan_hash()
        assert system.kernel_flush_interval == 200
        result = spec.run()
        assert result.to_dict() == simulate_job(spec.to_dict())["result"]
        assert result == spec.run(system)
        assert result.counters["fault.drops"] > 0 and system.kernel_flushes == 2

    def test_faults_run_executes_a_spec_that_carries_its_plan(self):
        from repro.__main__ import build_parser
        from repro.cli import job_from_args
        from repro.faults import cli as faults_cli

        args = build_parser("faults").parse_args([
            "faults", "run", "--gpu", "HS", "--cycles", "300",
            "--warmup", "200", "--intensity", "0.2",
        ])
        spec = faults_cli._chaos_job(args)
        clean = job_from_args(args)
        assert spec.faults is not None and clean.faults is None
        assert spec.key() != clean.key()
        assert (spec.config_json, spec.gpu, spec.cpu, spec.cycles,
                spec.warmup) == (clean.config_json, clean.gpu, clean.cpu,
                                 clean.cycles, clean.warmup)


class TestResultCache:
    def test_miss_returns_none(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("0" * 64) is None
        assert not cache.contains("0" * 64)

    def test_put_get_bit_identical(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = tiny_spec()
        result = run_simulation(spec.system_config(), "HS", "bodytrack", **TINY)
        key = cache.put(spec, result, meta={"wall_time_s": 0.1})
        assert key == spec.key()
        assert cache.contains(key)
        assert result_bytes(cache.get(key)) == result_bytes(result)

    @pytest.mark.parametrize("raw", [
        b'{"key": "ab', b'{"key": "\xff\xfe", "result": {}}',
        b'["key", "result"]',
        json.dumps({"key": "0" * 64,
                    "result": SimulationResult(cycles=1).to_dict()}).encode(),
    ], ids=["truncated", "invalid_utf8", "not_a_dict", "wrong_key"])
    def test_corrupt_entry_is_a_miss(self, tmp_path, raw):
        """A damaged entry reads as a miss and is evicted, and a sweep
        that meets one runs the job instead of dying on it."""
        cache = ResultCache(tmp_path)
        spec = tiny_spec()
        p = cache.path(spec.key())
        p.parent.mkdir(parents=True)
        p.write_bytes(raw)
        assert cache.get(spec.key()) is None
        assert not p.exists()  # evicted
        p.write_bytes(raw)
        out = SweepRunner(cache=cache, jobs=1, worker=_ok_payload).run([spec])
        assert out[spec.key()].status == "ok"
        assert cache.get(spec.key()) is not None

    def test_traced_spec_does_not_alias_untraced_entry(self, tmp_path):
        # the cached *payload* differs with telemetry on (stall breakdown,
        # telemetry metrics), so a traced spec run after its untraced twin
        # against the same cache must simulate, not come back bare
        traced_cfg = baseline_config()
        traced_cfg.telemetry.enabled = True
        traced_cfg.telemetry.mode = "full"
        untraced, traced = tiny_spec(), tiny_spec(config=traced_cfg)
        plain = run_sweep([untraced], cache=tmp_path)[untraced.key()]
        assert plain.stall_breakdown == {} and not plain.telemetry_metrics
        full = run_sweep([traced], cache=tmp_path)[traced.key()]
        assert full.stall_breakdown and full.telemetry_metrics
        assert full.counters == plain.counters  # observation only

    def test_clear_and_keys(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = tiny_spec()
        result = run_simulation(spec.system_config(), "HS", "bodytrack", **TINY)
        cache.put(spec, result)
        assert list(cache.keys()) == [spec.key()]
        assert cache.size_bytes() > 0
        assert cache.clear() == 1
        assert list(cache.keys()) == []


def _ok_payload(spec_dict):
    """Stand-in worker: a fake result derived from the spec (no simulation)."""
    spec = JobSpec.from_dict(spec_dict)
    result = SimulationResult(cycles=spec.cycles, counters={"gpu.insts": 7.0})
    return {"result": result.to_dict(), "wall_time_s": 0.01}


# -- module-level workers for real-pool tests (must pickle by reference) --

#: directory the cross-process first-attempt flags live in
_FLAG_ENV = "REPRO_TEST_SWEEP_FLAGDIR"


def _attempt_flag(spec_dict) -> Path:
    spec = JobSpec.from_dict(spec_dict)
    return Path(os.environ[_FLAG_ENV]) / spec.key()


def _flaky_worker(spec_dict):
    """Fail each job's first attempt (flagged on disk), then succeed."""
    flag = _attempt_flag(spec_dict)
    if not flag.exists():
        flag.write_text("seen")
        raise RuntimeError("transient first-attempt failure")
    return _ok_payload(spec_dict)


def _crash_g0_once_worker(spec_dict):
    """Kill the worker process on job g0's first attempt; others dawdle.

    The dawdling keeps every other job in flight when g0 takes its
    worker down, so the whole round fails with ``BrokenProcessPool``
    and the retry round must rebuild the pool.
    """
    spec = JobSpec.from_dict(spec_dict)
    if spec.gpu == "g0":
        flag = _attempt_flag(spec_dict)
        if not flag.exists():
            flag.write_text("seen")
            os._exit(1)
    else:
        time.sleep(0.05)
    return _ok_payload(spec_dict)


def _slow_ok_worker(spec_dict):
    time.sleep(0.03)
    return _ok_payload(spec_dict)


def _sc_fails_worker(spec_dict):
    if JobSpec.from_dict(spec_dict).gpu == "SC":
        raise RuntimeError("boom")
    return _ok_payload(spec_dict)


class TestRunner:
    def test_inline_success_persists_to_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        runner = SweepRunner(cache=cache, jobs=1, worker=_ok_payload)
        spec = tiny_spec()
        outcomes = runner.run([spec])
        out = outcomes[spec.key()]
        assert out.status == "ok" and out.attempts == 1
        assert cache.contains(spec.key())

    def test_retries_then_succeeds(self, tmp_path):
        calls = {"n": 0}

        def flaky(spec_dict):
            calls["n"] += 1
            if calls["n"] < 3:
                raise RuntimeError("transient")
            return _ok_payload(spec_dict)

        runner = SweepRunner(
            cache=ResultCache(tmp_path), jobs=1, max_retries=2,
            backoff_base_s=0.0, worker=flaky,
        )
        out = runner.run([tiny_spec()])[tiny_spec().key()]
        assert out.status == "ok"
        assert out.attempts == 3

    def test_backoff_is_capped(self):
        runner = SweepRunner(backoff_base_s=1.0, backoff_cap_s=2.5)
        assert runner._backoff(1) == 1.0
        assert runner._backoff(2) == 2.0
        assert runner._backoff(3) == 2.5
        assert runner._backoff(10) == 2.5

    def test_exhausted_retries_fail_without_aborting(self, tmp_path):
        def broken(spec_dict):
            spec = JobSpec.from_dict(spec_dict)
            if spec.gpu == "SC":
                raise RuntimeError("boom")
            return _ok_payload(spec_dict)

        good, bad = tiny_spec(), tiny_spec(gpu="SC")
        runner = SweepRunner(
            cache=ResultCache(tmp_path), jobs=1, max_retries=1,
            backoff_base_s=0.0, worker=broken,
        )
        outcomes = runner.run([good, bad])
        assert outcomes[good.key()].status == "ok"
        failed = outcomes[bad.key()]
        assert failed.status == "failed"
        assert failed.attempts == 2
        assert "boom" in failed.error

    def test_run_sweep_raises_on_failure(self):
        bad = tiny_spec(gpu="NO_SUCH_BENCH")
        with pytest.raises(SweepError, match="NO_SUCH_BENCH"):
            run_sweep([bad], jobs=1, cache=None, max_retries=0)

    def test_resume_serves_from_cache_without_workers(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = tiny_spec()
        first = SweepRunner(cache=cache, jobs=1, worker=_ok_payload).run([spec])

        def must_not_run(spec_dict):
            raise AssertionError("worker invoked despite cached result")

        second = SweepRunner(cache=cache, jobs=1, worker=must_not_run).run([spec])
        out = second[spec.key()]
        assert out.status == "cached"
        assert result_bytes(out.result) == result_bytes(first[spec.key()].result)

    def test_force_recompute_ignores_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = tiny_spec()
        SweepRunner(cache=cache, jobs=1, worker=_ok_payload).run([spec])
        runner = SweepRunner(
            cache=cache, jobs=1, worker=_ok_payload, use_cache=False
        )
        assert runner.run([spec])[spec.key()].status == "ok"

    def test_progress_telemetry(self, tmp_path):
        seen = []

        def progress(outcome, done, total):
            seen.append((outcome.status, done, total))

        specs = [tiny_spec(), tiny_spec(gpu="SC")]
        SweepRunner(
            cache=ResultCache(tmp_path), jobs=1, worker=_ok_payload,
            progress=progress,
        ).run(specs)
        assert seen == [("ok", 1, 2), ("ok", 2, 2)]

    def test_auto_cache_follows_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_CACHE", str(tmp_path / "c"))
        spec = tiny_spec()
        run_sweep([spec])
        assert ResultCache(tmp_path / "c").contains(spec.key())


class TestDeterminism:
    """--jobs 4 == --jobs 1 == the pre-refactor sequential path."""

    def test_parallel_serial_and_legacy_paths_bit_identical(self):
        specs = mechanism_jobs(["HS"], n_mixes=1, **TINY)
        assert len(specs) == 3  # baseline, rp, dr

        # pre-refactor sequential path: a bare run_simulation loop
        legacy = {
            spec.key(): run_simulation(
                spec.system_config(), spec.gpu, spec.cpu, **TINY
            )
            for spec in specs
        }
        serial = run_sweep(specs, jobs=1, cache=None)
        with SweepRunner(jobs=4) as runner:
            parallel = {
                k: o.result for k, o in runner.run(specs).items()
            }

        for spec in specs:
            k = spec.key()
            assert (
                result_bytes(serial[k])
                == result_bytes(parallel[k])
                == result_bytes(legacy[k])
            ), f"results diverge for {spec.describe()}"


class TestEnvKnobs:
    """REPRO_SWEEP_JOBS parsing, incl. garbage values."""

    def test_default_jobs_garbage_warns_and_falls_back(
        self, monkeypatch, capsys
    ):
        monkeypatch.setenv("REPRO_SWEEP_JOBS", "two")
        assert default_jobs() == 1
        assert "REPRO_SWEEP_JOBS" in capsys.readouterr().err

        monkeypatch.setenv("REPRO_SWEEP_JOBS", "")
        assert default_jobs() == 1
        assert "REPRO_SWEEP_JOBS" in capsys.readouterr().err

        # a garbage value must not crash runner construction either
        runner = SweepRunner(jobs=None)
        assert runner.jobs == 1

    def test_default_jobs_valid_values(self, monkeypatch):
        monkeypatch.delenv("REPRO_SWEEP_JOBS", raising=False)
        assert default_jobs() == 1
        monkeypatch.setenv("REPRO_SWEEP_JOBS", "3")
        assert default_jobs() == 3
        monkeypatch.setenv("REPRO_SWEEP_JOBS", "0")
        assert default_jobs() == 1  # clamped


class TestStallShares:
    """Largest-remainder apportionment: every group sums to exactly 1.0."""

    def test_three_way_split_sums_to_one(self):
        shares = stall_shares({"CPU": {"a": 1, "b": 1, "c": 1}})
        # independent round() gave 3 x 0.3333 = 0.9999; the leftover
        # unit goes to the largest remainder (name-ordered tie-break)
        assert shares["CPU"] == {"a": 0.3334, "b": 0.3333, "c": 0.3333}
        assert round(sum(shares["CPU"].values()), 10) == 1.0

    def test_many_way_splits_sum_to_one(self):
        for n_classes in (2, 3, 6, 7, 9, 13):
            breakdown = {"g": {f"c{i}": i + 1 for i in range(n_classes)}}
            shares = stall_shares(breakdown)["g"]
            assert round(sum(shares.values()), 10) == 1.0, shares
            for v in shares.values():
                assert v == round(v, 4)

    def test_exact_splits_unchanged(self):
        shares = stall_shares({
            "CPU": {"credit": 30, "eject": 10},
            "mem": {"reply_buffer": 7},
        })
        assert shares["CPU"] == {"credit": 0.75, "eject": 0.25}
        assert shares["mem"] == {"reply_buffer": 1.0}


class TestSweepError:
    def test_truncation_reports_overflow_count(self):
        outs = [
            JobOutcome(spec=tiny_spec(gpu=f"g{i}"), key=str(i), error="boom")
            for i in range(8)
        ]
        msg = str(SweepError(outs))
        assert "8 sweep job(s) failed" in msg
        assert "(and 3 more)" in msg

    def test_no_overflow_marker_at_five_or_fewer(self):
        outs = [
            JobOutcome(spec=tiny_spec(gpu=f"g{i}"), key=str(i), error="boom")
            for i in range(5)
        ]
        assert "more)" not in str(SweepError(outs))


class TestRetryBackoff:
    def test_first_retry_is_immediate_later_retries_back_off(
        self, monkeypatch
    ):
        sleeps = []
        monkeypatch.setattr(
            "repro.sweep.runner.time.sleep", lambda s: sleeps.append(s)
        )

        def always_fails(spec_dict):
            raise RuntimeError("deterministic")

        runner = SweepRunner(
            jobs=1, max_retries=3, backoff_base_s=0.25, worker=always_fails
        )
        out = runner.run([tiny_spec()])[tiny_spec().key()]
        assert out.status == "failed" and out.attempts == 4
        # rounds 0 and 1 run back to back; only carried-over failures
        # (rounds 2 and 3) wait out the capped exponential backoff
        assert sleeps == [0.25, 0.5]


class TestWarmPool:
    """Pool lifecycle and per-job futures over real worker processes."""

    @pytest.fixture
    def flag_dir(self, tmp_path, monkeypatch):
        d = tmp_path / "flags"
        d.mkdir()
        monkeypatch.setenv(_FLAG_ENV, str(d))
        return d

    def test_warm_pool_reused_across_retry_rounds(self, flag_dir):
        specs = [tiny_spec(gpu=f"g{i}") for i in range(4)]
        # a 30s backoff base doubles as the immediate-first-retry check:
        # the run can only finish quickly if round 1 skips the sleep
        runner = SweepRunner(
            jobs=2, max_retries=1, backoff_base_s=30.0, worker=_flaky_worker
        )
        t0 = time.perf_counter()
        outcomes = runner.run(specs)
        wall = time.perf_counter() - t0
        runner.close()
        assert all(
            o.status == "ok" and o.attempts == 2 for o in outcomes.values()
        )
        assert runner.pools_created == 1, "retry round rebuilt the pool"
        assert wall < 20, "first retry should not sleep the 30s backoff"

    def test_one_raising_job_fails_alone(self, tmp_path):
        cache = ResultCache(tmp_path)
        good = [tiny_spec(gpu=g) for g in ("HS", "BP", "3DCON")]
        bad = tiny_spec(gpu="SC")
        runner = SweepRunner(
            cache=cache, jobs=2, max_retries=0, worker=_sc_fails_worker,
        )
        outcomes = runner.run(good + [bad])
        runner.close()
        for spec in good:
            assert outcomes[spec.key()].status == "ok"
            assert cache.contains(spec.key())
        assert outcomes[bad.key()].status == "failed"
        assert "boom" in outcomes[bad.key()].error

    def test_worker_crash_fails_round_and_rebuilds_pool(self, flag_dir):
        specs = [tiny_spec(gpu=f"g{i}") for i in range(4)]
        runner = SweepRunner(
            jobs=2, max_retries=1, backoff_base_s=0.0,
            worker=_crash_g0_once_worker,
        )
        outcomes = runner.run(specs)
        runner.close()
        assert all(o.status == "ok" for o in outcomes.values())
        g0 = next(o for o in outcomes.values() if o.spec.gpu == "g0")
        assert g0.attempts == 2
        assert runner.pools_created == 2, "broken pool was not rebuilt"

    def test_kill_mid_run_resume_recovers_cached_jobs(self, tmp_path):
        cache = ResultCache(tmp_path)
        specs = [tiny_spec(gpu=f"g{i}") for i in range(6)]
        reported = []

        def interrupt_after_two(outcome, done, total):
            reported.append(outcome)
            if len(reported) == 2:
                raise KeyboardInterrupt

        runner = SweepRunner(
            cache=cache, jobs=2, max_retries=0,
            worker=_slow_ok_worker, progress=interrupt_after_two,
        )
        with pytest.raises(KeyboardInterrupt):
            runner.run(specs)
        # every job persisted before the interrupt must be recoverable
        assert len(reported) == 2
        for out in reported:
            assert cache.contains(out.key)

        resumed_runner = SweepRunner(
            cache=cache, jobs=2, worker=_slow_ok_worker
        )
        resumed = resumed_runner.run(specs)
        resumed_runner.close()
        statuses = [o.status for o in resumed.values()]
        assert set(statuses) <= {"ok", "cached"}
        assert statuses.count("cached") >= 2

    def test_pool_survives_across_run_calls(self, tmp_path):
        runner = SweepRunner(jobs=2, worker=_slow_ok_worker)
        first = runner.run([tiny_spec(gpu=f"a{i}") for i in range(3)])
        second = runner.run([tiny_spec(gpu=f"b{i}") for i in range(3)])
        runner.close()
        assert all(o.status == "ok" for o in first.values())
        assert all(o.status == "ok" for o in second.values())
        assert runner.pools_created == 1

    def test_context_manager_closes_pool(self):
        with SweepRunner(jobs=2, worker=_slow_ok_worker) as runner:
            runner.warm()
            assert runner._pool is not None
        assert runner._pool is None
