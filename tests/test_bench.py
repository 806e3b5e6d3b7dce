"""Tests for the perf-trajectory bench harness (repro.harness.bench)."""

import json

import pytest

from repro.errors import ConfigError
from repro.harness.bench import (
    SMOKE_APPS,
    BENCH_SCHEMA,
    BenchCase,
    compare_reports,
    entry_key,
    find_baseline,
    load_report,
    run_bench,
    run_case,
    smoke_cases,
    table3_cases,
    write_report,
)


@pytest.fixture(scope="module")
def smoke_report():
    return run_bench(smoke_cases())


class TestRunBench:
    def test_smoke_report_shape(self, smoke_report):
        assert smoke_report["schema"] == BENCH_SCHEMA
        entries = smoke_report["entries"]
        assert len(entries) == len(SMOKE_APPS) * 2  # O and P each
        assert {e["app"] for e in entries} == set(SMOKE_APPS)
        assert {e["variant"] for e in entries} == {"O", "P"}
        for entry in entries:
            assert entry["profile"] == "smoke"
            assert entry["sim_elapsed_us"] > 0
            assert entry["sim_stall_us"] >= 0
            assert entry["wall_time_s"] >= 0

    def test_prefetching_beats_original(self, smoke_report):
        by_key = {entry_key(e): e for e in smoke_report["entries"]}
        for app in SMOKE_APPS:
            o = next(e for e in smoke_report["entries"]
                     if e["app"] == app and e["variant"] == "O")
            p = next(e for e in smoke_report["entries"]
                     if e["app"] == app and e["variant"] == "P")
            assert p["sim_elapsed_us"] < o["sim_elapsed_us"], app
        assert len(by_key) == len(smoke_report["entries"])  # keys unique

    def test_simulated_cycles_deterministic(self):
        case = smoke_cases()[0]
        first, second = run_case(case), run_case(case)
        for a, b in zip(first, second):
            assert a["sim_elapsed_us"] == b["sim_elapsed_us"]
            assert a["sim_stall_us"] == b["sim_stall_us"]

    def test_table3_cases_use_the_default_platform(self):
        from repro.config import PlatformConfig
        from repro.harness.experiment import default_data_pages

        platform = PlatformConfig()
        for case in table3_cases():
            assert case.memory_pages == platform.memory_pages
            assert case.data_pages == default_data_pages(platform)
            assert case.profile == "table3"

    def test_progress_callback_sees_every_case(self):
        seen = []
        run_bench([BenchCase("EMBAR", "smoke", 96, 120)],
                  progress=seen.append)
        assert [c.app for c in seen] == ["EMBAR"]


class TestReportIo:
    def test_round_trip(self, smoke_report, tmp_path):
        path = tmp_path / "bench.json"
        write_report(path, smoke_report)
        assert load_report(path) == smoke_report

    def test_load_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "other/9", "entries": []}))
        with pytest.raises(ConfigError):
            load_report(path)

    def test_find_baseline_picks_newest_pr(self, tmp_path):
        for n in (2, 10, 4):
            (tmp_path / f"BENCH_PR{n}.json").write_text("{}")
        (tmp_path / "BENCH_PRx.json").write_text("{}")  # not a PR number
        assert find_baseline(tmp_path).name == "BENCH_PR10.json"

    def test_find_baseline_excludes_the_out_path(self, tmp_path):
        for n in (3, 7):
            (tmp_path / f"BENCH_PR{n}.json").write_text("{}")
        found = find_baseline(tmp_path, exclude=tmp_path / "BENCH_PR7.json")
        assert found.name == "BENCH_PR3.json"

    def test_find_baseline_empty_dir(self, tmp_path):
        assert find_baseline(tmp_path) is None


class TestCompareReports:
    def _report(self, elapsed):
        return {
            "schema": BENCH_SCHEMA,
            "entries": [{
                "app": "EMBAR", "variant": "P", "profile": "smoke",
                "memory_pages": 96, "data_pages": 120, "seed": 1,
                "sim_elapsed_us": elapsed, "sim_stall_us": 0.0,
                "wall_time_s": 0.1,
            }],
        }

    def test_within_threshold_passes(self):
        regressions, notes = compare_reports(
            self._report(1_050_000.0), self._report(1_000_000.0), 0.10
        )
        assert regressions == [] and notes == []

    def test_over_threshold_flags_regression(self):
        regressions, _ = compare_reports(
            self._report(1_200_000.0), self._report(1_000_000.0), 0.10
        )
        (reg,) = regressions
        assert reg.ratio == pytest.approx(1.2)
        assert "EMBAR" in reg.describe()

    def test_wall_time_never_gates(self):
        current = self._report(1_000_000.0)
        current["entries"][0]["wall_time_s"] = 99.0
        regressions, _ = compare_reports(
            current, self._report(1_000_000.0), 0.0
        )
        assert regressions == []

    def test_wall_slack_absorbs_millisecond_noise(self):
        # 2x drift on a 20 ms wall is scheduler noise, not a regression.
        current = self._report(1_000_000.0)
        current["entries"][0]["wall_time_s"] = 0.04
        baseline = self._report(1_000_000.0)
        baseline["entries"][0]["wall_time_s"] = 0.02
        regressions, _ = compare_reports(
            current, baseline, 0.10, wall_threshold=0.20
        )
        assert regressions == []

    def test_wall_gate_trips_past_threshold_plus_slack(self):
        current = self._report(1_000_000.0)
        current["entries"][0]["wall_time_s"] = 0.70
        baseline = self._report(1_000_000.0)
        baseline["entries"][0]["wall_time_s"] = 0.50
        regressions, _ = compare_reports(
            current, baseline, 0.10, wall_threshold=0.20
        )
        (reg,) = regressions
        assert reg.metric == "wall"
        assert "wall" in reg.describe()

    def test_negative_wall_slack_rejected(self):
        with pytest.raises(ConfigError):
            compare_reports(self._report(1.0), self._report(1.0), 0.1,
                            wall_threshold=0.2, wall_slack=-0.01)

    def test_missing_baseline_entry_is_a_note(self):
        current = self._report(1_000_000.0)
        current["entries"][0]["app"] = "MGRID"
        regressions, notes = compare_reports(
            current, self._report(1_000_000.0), 0.10
        )
        assert regressions == []
        assert any("MGRID" in n for n in notes)

    def test_negative_threshold_rejected(self):
        with pytest.raises(ConfigError):
            compare_reports(self._report(1.0), self._report(1.0), -0.1)


class TestBenchCli:
    def test_smoke_run_writes_report(self, capsys, tmp_path):
        from repro.cli import main

        out = tmp_path / "bench_smoke.json"
        assert main(["bench", "--smoke", "--out", str(out),
                     "--baseline", "none"]) == 0
        report = load_report(out)
        assert len(report["entries"]) == len(SMOKE_APPS) * 2
        assert "recorded only" in capsys.readouterr().out

    def test_regression_exits_nonzero(self, capsys, tmp_path, smoke_report):
        from repro.cli import main

        # Doctor a baseline that claims everything used to be 2x faster.
        doctored = json.loads(json.dumps(smoke_report))
        for entry in doctored["entries"]:
            entry["sim_elapsed_us"] /= 2.0
        baseline = tmp_path / "BENCH_PR1.json"
        write_report(baseline, doctored)
        out = tmp_path / "bench_now.json"
        assert main(["bench", "--smoke", "--out", str(out),
                     "--baseline", str(baseline)]) == 1
        err = capsys.readouterr().err
        assert "regression" in err

    def test_auto_baseline_discovery(self, capsys, tmp_path, smoke_report):
        from repro.cli import main

        write_report(tmp_path / "BENCH_PR1.json", smoke_report)
        out = tmp_path / "BENCH_PR2.json"
        assert main(["bench", "--smoke", "--out", str(out)]) == 0
        assert "no benchmark regression" in capsys.readouterr().out

    def test_default_out_is_not_a_trajectory_report(self):
        from repro.cli import build_parser
        from repro.harness.bench import is_trajectory_report

        out = build_parser().parse_args(["bench"]).out
        assert not is_trajectory_report(out)
        assert not out.startswith("BENCH_PR")
        assert is_trajectory_report("some/dir/BENCH_PR12.json")

    def test_refuses_to_rewrite_a_committed_report(self, capsys, tmp_path):
        from repro.cli import main
        from repro.errors import ExitCode

        committed = tmp_path / "BENCH_PR6.json"
        committed.write_text('{"schema": "committed"}')
        assert main(["bench", "--smoke", "--out",
                     str(committed)]) == ExitCode.USAGE
        assert committed.read_text() == '{"schema": "committed"}'
        assert "never rewrite" in capsys.readouterr().err

    def test_committed_baseline_matches_current_code(self, capsys):
        """The newest repo-root BENCH_PR<N>.json must reflect today's
        simulator."""
        from pathlib import Path

        from repro.harness.bench import find_baseline

        root = Path(__file__).resolve().parent.parent
        newest = find_baseline(root)
        assert newest is not None
        committed = load_report(newest)
        by_key = {entry_key(e): e for e in committed["entries"]}
        current = run_bench(smoke_cases())
        for entry in current["entries"]:
            base = by_key.get(entry_key(entry))
            assert base is not None, entry_key(entry)
            assert entry["sim_elapsed_us"] == base["sim_elapsed_us"]
