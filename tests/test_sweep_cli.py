"""Tests for the ``python -m repro sweep`` commands."""

import json
from pathlib import Path

import pytest

from repro.__main__ import main

SWEEP = ["--benchmarks", "HS", "--mechanisms", "baseline",
         "--cycles", "150", "--warmup", "100"]


@pytest.fixture
def cache_dir(tmp_path):
    return str(tmp_path / "cache")


def run_cli(*argv):
    return main(["sweep", *argv])


class TestRun:
    def test_run_then_resume_from_cache(self, cache_dir, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        rc = run_cli("run", *SWEEP, "--jobs", "1",
                     "--cache-dir", cache_dir, "--out", str(manifest))
        assert rc == 0
        data = json.loads(manifest.read_text())
        assert data["totals"] == {"ok": 1, "cached": 0, "failed": 0}
        (job,) = data["jobs"]
        assert job["label"] == ["HS", "bodytrack", "baseline"]
        assert job["status"] == "ok"
        assert job["attempts"] == 1
        assert job["wall_time_s"] > 0

        rc = run_cli("run", *SWEEP, "--jobs", "1",
                     "--cache-dir", cache_dir, "--out", str(manifest))
        assert rc == 0
        data = json.loads(manifest.read_text())
        assert data["totals"] == {"ok": 0, "cached": 1, "failed": 0}

    def test_force_recomputes(self, cache_dir, capsys):
        assert run_cli("run", *SWEEP, "--cache-dir", cache_dir) == 0
        assert run_cli("run", *SWEEP, "--force", "--cache-dir", cache_dir) == 0
        out = capsys.readouterr().out
        assert "1 simulated, 0 from cache" in out


class TestIntrospection:
    def test_list_shows_cache_state(self, cache_dir, capsys):
        run_cli("list", *SWEEP, "--cache-dir", cache_dir)
        out = capsys.readouterr().out
        assert "1 job(s)" in out and "missing" in out

        run_cli("run", *SWEEP, "--cache-dir", cache_dir)
        capsys.readouterr()
        run_cli("list", *SWEEP, "--cache-dir", cache_dir)
        out = capsys.readouterr().out
        assert "cached" in out and "missing" not in out

    def test_status_counts(self, cache_dir, capsys):
        run_cli("status", *SWEEP, "--cache-dir", cache_dir)
        assert "0/1 job(s) cached" in capsys.readouterr().out
        run_cli("run", *SWEEP, "--cache-dir", cache_dir)
        capsys.readouterr()
        run_cli("status", *SWEEP, "--cache-dir", cache_dir)
        assert "1/1 job(s) cached" in capsys.readouterr().out

    def test_status_without_progress_log(self, cache_dir, capsys):
        run_cli("status", *SWEEP, "--cache-dir", cache_dir)
        assert "no progress log" in capsys.readouterr().out

    def test_clean_empties_cache(self, cache_dir, capsys):
        run_cli("run", *SWEEP, "--cache-dir", cache_dir)
        capsys.readouterr()
        assert run_cli("clean", "--cache-dir", cache_dir) == 0
        assert "removed 1" in capsys.readouterr().out
        run_cli("status", *SWEEP, "--cache-dir", cache_dir)
        assert "0/1 job(s) cached" in capsys.readouterr().out


class TestProgressLog:
    def test_run_writes_jsonl_progress(self, cache_dir, capsys):
        assert run_cli("run", *SWEEP, "--cache-dir", cache_dir) == 0
        plog = Path(cache_dir) / "progress.jsonl"  # default location
        recs = [json.loads(l) for l in plog.read_text().splitlines()]
        kinds = [r["rec"] for r in recs]
        assert kinds[0] == "start" and kinds[-1] == "end"
        assert recs[0]["total"] == 1 and recs[0]["workers"] >= 1
        assert all("ts" in r for r in recs)
        (job,) = [r for r in recs if r["rec"] == "job"]
        assert job["status"] == "ok"
        assert job["label"] == ["HS", "bodytrack", "baseline"]
        assert job["done"] == 1 and job["total"] == 1
        assert job["wall_time_s"] > 0 and job["attempts"] == 1

    def test_cached_rerun_logs_cached_jobs(self, cache_dir, capsys):
        run_cli("run", *SWEEP, "--cache-dir", cache_dir)
        run_cli("run", *SWEEP, "--cache-dir", cache_dir)
        plog = Path(cache_dir) / "progress.jsonl"
        recs = [json.loads(l) for l in plog.read_text().splitlines()]
        # appended segments: two start markers, last segment is all-cached
        assert [r["rec"] for r in recs].count("start") == 2
        last = recs[[r["rec"] for r in recs].index("start", 1):]
        assert [r["status"] for r in last if r["rec"] == "job"] == ["cached"]

    def test_status_summarises_last_run(self, cache_dir, capsys):
        run_cli("run", *SWEEP, "--cache-dir", cache_dir)
        capsys.readouterr()
        run_cli("status", *SWEEP, "--cache-dir", cache_dir)
        out = capsys.readouterr().out
        assert "last run: 1/1 job(s) done (1 ok)" in out
        assert "finished in" in out
        assert "s/job" in out

    def test_explicit_progress_log_path(self, cache_dir, tmp_path, capsys):
        plog = tmp_path / "custom.jsonl"
        run_cli("run", *SWEEP, "--cache-dir", cache_dir,
                "--progress-log", str(plog))
        assert plog.exists()
        capsys.readouterr()
        run_cli("status", *SWEEP, "--cache-dir", cache_dir,
                "--progress-log", str(plog))
        assert "last run: 1/1 job(s) done" in capsys.readouterr().out

    def test_status_tolerates_torn_tail_line(self, cache_dir, tmp_path,
                                             capsys):
        plog = tmp_path / "torn.jsonl"
        plog.write_text(
            json.dumps({"rec": "start", "total": 2, "workers": 1}) + "\n"
            + json.dumps({"rec": "job", "status": "ok",
                          "wall_time_s": 0.5, "attempts": 1,
                          "done": 1, "total": 2}) + "\n"
            + '{"rec": "jo'  # crashed writer: torn tail
        )
        run_cli("status", *SWEEP, "--cache-dir", cache_dir,
                "--progress-log", str(plog))
        out = capsys.readouterr().out
        assert "last run: 1/2 job(s) done (1 ok) — running" in out
