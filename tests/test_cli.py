"""Tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.config import VARIANTS


class TestCli:
    def test_apps(self, capsys):
        assert main(["apps"]) == 0
        out = capsys.readouterr().out
        for name in ("BUK", "CGM", "EMBAR", "FFT", "MGRID", "APPLU", "APPSP", "APPBT"):
            assert name in out

    def test_platform(self, capsys):
        assert main(["platform"]) == 0
        out = capsys.readouterr().out
        assert "disks" in out
        assert "page size" in out

    def test_platform_overrides(self, capsys):
        assert main(["--memory-pages", "128", "--disks", "3", "platform"]) == 0
        out = capsys.readouterr().out
        assert "128 pages" in out
        assert "3" in out

    def test_compile(self, capsys):
        assert main(["compile", "EMBAR", "--pages", "160"]) == 0
        out = capsys.readouterr().out
        assert "prefetch pass" in out
        assert "dense" in out

    def test_compile_print_code(self, capsys):
        assert main(["compile", "EMBAR", "--pages", "160", "--print-code"]) == 0
        out = capsys.readouterr().out
        assert "prefetch_block(" in out

    def test_compile_two_version(self, capsys):
        assert main(["compile", "APPBT", "--pages", "160", "--two-version"]) == 0

    def test_run_original(self, capsys):
        assert main(["--memory-pages", "96", "run", "EMBAR",
                     "--pages", "120", "--variant", "o"]) == 0
        out = capsys.readouterr().out
        assert "elapsed" in out
        assert "prefetches inserted" in out

    def test_run_prefetch_variant(self, capsys):
        assert main(["--memory-pages", "96", "run", "EMBAR",
                     "--pages", "120"]) == 0
        out = capsys.readouterr().out
        assert "[P]" in out

    def test_run_warm(self, capsys):
        assert main(["--memory-pages", "256", "run", "EMBAR",
                     "--pages", "80", "--warm"]) == 0
        assert "warm start" in capsys.readouterr().out

    def test_compare(self, capsys):
        assert main(["--memory-pages", "96", "compare", "EMBAR",
                     "--pages", "140"]) == 0
        out = capsys.readouterr().out
        assert "speedup vs O" in out
        assert "P" in out

    def test_compare_with_extras(self, capsys):
        assert main(["--memory-pages", "96", "compare", "BUK",
                     "--pages", "140", "--nofilter", "--adaptive"]) == 0
        out = capsys.readouterr().out
        assert "P-nofilter" in out
        assert "P-adaptive" in out

    def test_sweep(self, capsys):
        assert main(["--memory-pages", "64", "sweep", "BUK",
                     "--multiples", "0.5,1.5"]) == 0
        out = capsys.readouterr().out
        assert "0.5x" in out and "1.5x" in out

    def test_unknown_app_errors(self):
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            main(["compile", "NOPE"])

    def test_nas_names_accepted(self, capsys):
        assert main(["compile", "is", "--pages", "160"]) == 0

    def test_multiprog(self, capsys):
        assert main(["--memory-pages", "96", "multiprog", "EMBAR,BUK",
                     "--pages", "120"]) == 0
        out = capsys.readouterr().out
        assert "EMBAR#0" in out and "BUK#1" in out
        assert "(machine)" in out

    def test_trace_subcommand(self, capsys, tmp_path):
        """``trace`` is not a verb; ``run --trace`` prints and writes
        everything it did: the artifacts, the event-kind table and the
        Perfetto hint."""
        import json

        from repro.obs import validate_chrome_trace

        with pytest.raises(SystemExit):
            main(["trace", "--app", "embar"])
        capsys.readouterr()
        trace = tmp_path / "trace.json"
        metrics = tmp_path / "metrics.json"
        assert main(["--memory-pages", "96", "run", "EMBAR",
                     "--pages", "120", "--trace", str(trace),
                     "--metrics-out", str(metrics)]) == 0
        out = capsys.readouterr().out
        assert "ui.perfetto.dev" in out
        assert "event kind" in out and "prefetch_issued" in out
        with open(trace) as fh:
            assert validate_chrome_trace(json.load(fh)) == []
        with open(metrics) as fh:
            payload = json.load(fh)
        assert "faults.prefetched_hit" in payload["metrics"]

    def test_trace_buffer_wraparound_reported(self, capsys, tmp_path):
        trace = tmp_path / "trace.json"
        assert main(["--memory-pages", "96", "run", "EMBAR",
                     "--pages", "120", "--trace", str(trace),
                     "--trace-buffer", "64"]) == 0
        out = capsys.readouterr().out
        assert "dropped by ring wraparound" in out

    def test_run_with_trace_flags(self, capsys, tmp_path):
        import json

        from repro.obs import validate_chrome_trace

        trace = tmp_path / "t.json"
        metrics = tmp_path / "m.json"
        assert main(["--memory-pages", "96", "run", "EMBAR", "--pages", "120",
                     "--trace", str(trace), "--metrics-out", str(metrics)]) == 0
        out = capsys.readouterr().out
        assert "elapsed" in out and "trace:" in out and "metrics:" in out
        with open(trace) as fh:
            assert validate_chrome_trace(json.load(fh)) == []

    def test_run_observed_matches_unobserved(self, capsys, tmp_path):
        """--trace must not change the simulated result."""
        assert main(["--memory-pages", "96", "run", "EMBAR",
                     "--pages", "120"]) == 0
        bare = capsys.readouterr().out
        assert main(["--memory-pages", "96", "run", "EMBAR", "--pages", "120",
                     "--trace", str(tmp_path / "t.json")]) == 0
        seen = capsys.readouterr().out
        bare_elapsed = next(l for l in bare.splitlines() if "elapsed" in l)
        seen_elapsed = next(l for l in seen.splitlines() if "elapsed" in l)
        assert bare_elapsed == seen_elapsed

    def test_compare_with_trace(self, capsys, tmp_path):
        trace = tmp_path / "t.json"
        assert main(["--memory-pages", "96", "compare", "EMBAR",
                     "--pages", "140", "--trace", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "speedup vs O" in out
        assert trace.exists()

    def test_size_class(self, capsys):
        assert main(["--memory-pages", "128", "run", "EMBAR",
                     "--size-class", "S", "--variant", "o"]) == 0
        out = capsys.readouterr().out
        assert "data pages" in out

    def test_compare_size_class(self, capsys):
        assert main(["--memory-pages", "96", "compare", "EMBAR",
                     "--size-class", "W"]) == 0


class TestObsCli:
    def test_sweep_with_trace_flags(self, capsys, tmp_path):
        import json

        from repro.obs import validate_chrome_trace

        trace = tmp_path / "t.json"
        metrics = tmp_path / "m.json"
        assert main(["--memory-pages", "96", "sweep", "EMBAR",
                     "--multiples", "0.5,1", "--trace", str(trace),
                     "--metrics-out", str(metrics)]) == 0
        out = capsys.readouterr().out
        assert "final sweep point only" in out
        with open(trace) as fh:
            assert validate_chrome_trace(json.load(fh)) == []
        with open(metrics) as fh:
            assert "faults.prefetched_hit" in json.load(fh)["metrics"]

    def test_multiprog_with_trace_flags(self, capsys, tmp_path):
        import json

        from repro.obs import validate_chrome_trace

        trace = tmp_path / "t.json"
        metrics = tmp_path / "m.json"
        assert main(["--memory-pages", "96", "multiprog", "EMBAR,BUK",
                     "--pages", "60", "--trace", str(trace),
                     "--metrics-out", str(metrics)]) == 0
        out = capsys.readouterr().out
        assert "prefetching schedule only" in out
        with open(trace) as fh:
            assert validate_chrome_trace(json.load(fh)) == []
        with open(metrics) as fh:
            assert "time.elapsed_us" in json.load(fh)["metrics"]

    def test_explain(self, capsys):
        assert main(["--memory-pages", "96", "explain", "EMBAR",
                     "--pages", "120"]) == 0
        out = capsys.readouterr().out
        assert "stall attribution" in out
        assert "prefetch_too_late" in out
        assert "conserved exactly" in out

    def test_explain_original_variant(self, capsys):
        assert main(["--memory-pages", "96", "explain", "EMBAR",
                     "--pages", "120", "--variant", "o"]) == 0
        out = capsys.readouterr().out
        assert "never_prefetched" in out
        assert "conserved exactly" in out

    def test_explain_faulted(self, capsys):
        assert main(["--memory-pages", "96", "explain", "EMBAR",
                     "--pages", "120", "--fault-seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "fault_injected" in out
        assert "conserved exactly" in out

    def test_explain_exits_nonzero_when_not_conserved(
            self, capsys, monkeypatch):
        from repro.obs.attrib import StallAttributor

        real_report = StallAttributor.report

        def broken(self, stats):
            report = real_report(self, stats)
            report.attributed_read_us += 1.0
            return report

        monkeypatch.setattr(StallAttributor, "report", broken)
        assert main(["--memory-pages", "96", "explain", "EMBAR",
                     "--pages", "120"]) == 1
        assert "invariant violated" in capsys.readouterr().err

    def test_profile(self, capsys, tmp_path):
        collapsed = tmp_path / "stacks.txt"
        assert main(["--memory-pages", "96", "profile", "EMBAR",
                     "--pages", "120", "--collapsed", str(collapsed)]) == 0
        out = capsys.readouterr().out
        assert "disk utilization" in out
        assert "obs.disk_idle_fraction" in out
        lines = collapsed.read_text().splitlines()
        assert lines
        for line in lines:
            stack, weight = line.rsplit(" ", 1)
            assert ";" in stack and int(weight) >= 0

    def test_profile_with_trace_out(self, tmp_path):
        import json

        from repro.obs import validate_chrome_trace

        trace = tmp_path / "t.json"
        assert main(["--memory-pages", "96", "profile", "EMBAR",
                     "--pages", "120", "--trace", str(trace)]) == 0
        with open(trace) as fh:
            assert validate_chrome_trace(json.load(fh)) == []


class TestFaultCli:
    def test_run_with_fault_seed(self, capsys):
        assert main(["--memory-pages", "96", "run", "EMBAR",
                     "--pages", "120", "--fault-seed", "2"]) == 0
        out = capsys.readouterr().out
        assert ", faulted" in out

    def test_run_with_plan_file(self, capsys, tmp_path):
        from repro.faults import FaultPlan, save_plan

        plan_path = tmp_path / "plan.json"
        save_plan(plan_path, FaultPlan(seed=3, hint_failure_rate=0.05))
        assert main(["--memory-pages", "96", "run", "EMBAR",
                     "--pages", "120", "--faults", str(plan_path)]) == 0
        assert ", faulted" in capsys.readouterr().out

    def test_compare_with_faults(self, capsys, tmp_path):
        from repro.faults import default_plan, save_plan

        plan_path = tmp_path / "plan.json"
        save_plan(plan_path, default_plan(num_disks=7))
        assert main(["--memory-pages", "96", "compare", "EMBAR",
                     "--pages", "140", "--faults", str(plan_path)]) == 0
        assert "speedup vs O" in capsys.readouterr().out

    def test_chaos_quick(self, capsys):
        assert main(["chaos", "EMBAR", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "chaos sweep" in out
        assert "intensity" in out and "slowdown" in out
        assert "0 (clean)" in out

    def test_chaos_empty_intensities_rejected(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            main(["chaos", "EMBAR", "--quick", "--intensities", ""])


@pytest.mark.parametrize("verb", ["run", "compare", "explain"])
def test_trace_exits_nonzero_on_invalid_artifact(
        verb, capsys, tmp_path, monkeypatch):
    """Every traced verb checks its own trace, and still writes it."""
    import repro.cli as cli

    monkeypatch.setattr(cli, "validate_chrome_trace", lambda obj: ["boom"])
    trace = tmp_path / "t.json"
    assert main(["--memory-pages", "96", verb, "EMBAR", "--pages", "120",
                 "--trace", str(trace)]) == 1
    assert "trace validation: boom" in capsys.readouterr().err
    assert trace.exists()


@pytest.mark.parametrize("variant", list(VARIANTS))
def test_cli_run_matches_a_farm_run_job(variant, capsys, tmp_path):
    """``repro run`` and a farm ``run`` job run a variant the same way."""
    import json

    from repro.obs.metrics import RUN_METRIC_NAMES
    from repro.obs.observer import Observer
    from repro.serve import JobSpec
    from repro.serve.worker import execute_job

    metrics = tmp_path / "m.json"
    assert main(["--memory-pages", "96", "run", "EMBAR", "--pages", "120",
                 "--variant", variant, "--metrics-out", str(metrics)]) == 0
    with open(metrics) as fh:
        cli_metrics = json.load(fh)["metrics"]
    spec = JobSpec(kind="run", app="EMBAR", memory_pages=96, pages=120,
                   variant=variant, job_id="cli")
    result = execute_job(spec, tmp_path / "job", resume=False,
                         observer=Observer(record_trace=False))
    assert result["data_pages"] == 120
    assert {name: cli_metrics[name]["value"] for name in RUN_METRIC_NAMES} \
        == result["metrics"]
