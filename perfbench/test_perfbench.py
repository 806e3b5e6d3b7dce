"""Self-tests of the benchmark (run: ``python3 -m pytest perfbench -q``).

They use the tiny footprints (``--tiny``), so the whole file takes about
a minute; none of them touches the committed references.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from batch import RUN_VARIANTS, make_batch  # noqa: E402
from layers import PER_LAYER, _traced_study  # noqa: E402
from reference import ReferenceStore  # noqa: E402
from run import tail_percentile  # noqa: E402
from tracer import WORKER_LAYERS, Tracer, _owner  # noqa: E402
from workloads import make_workload  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_prints_with_its_unit(workload, trace):
    out = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                    "--trace", str(trace), "--tiny")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert math.isfinite(reported["value"])
        assert metric["name"] in out.stdout.rsplit("\n", 2)[0]
        if not trace:
            assert reported["value"] > 0


def test_benchmark_json_matches_the_layer_table():
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] \
        == [(name, unit, better) for name, unit, better, _ in PER_LAYER]


def test_perturbed_reference_raises_error_rate(tmp_path):
    wl = make_workload("clean-table3", 3, tmp_path, tiny=True)
    wl.setup()
    wl.resolve(ReferenceStore(tmp_path / "none.json", None))
    assert all(o.ok for o in wl.run_pass().outcomes)
    wl.items[2].expected = dict(wl.items[2].expected, digest="0" * 20)
    failed = [o for o in wl.run_pass().outcomes if not o.ok]
    assert [o.label for o in failed] == [f"{wl.items[2].app}/P"]


def test_layer_self_times_fit_in_the_traced_wall(tmp_path):
    wl = make_workload("faulted-resume", 3, tmp_path, tiny=True)
    wl.setup()
    wl.resolve(ReferenceStore(tmp_path / "none.json", None))
    tracer = Tracer()
    passes, _, window, _ = _traced_study(wl, tracer)
    assert all(o.ok for p in passes for o in p.outcomes)
    assert 0 < tracer.self_total_s() <= window
    assert tracer.calls("checkpoint.restore") == len(wl.items)


def test_tracer_puts_every_original_back():
    originals = [(target, attr, _owner(target).__dict__[attr]
                  if ":" in target else getattr(_owner(target), attr))
                 for _, target, attr in WORKER_LAYERS]
    tracer = Tracer()
    tracer.install(WORKER_LAYERS)
    tracer.uninstall()
    for target, attr, original in originals:
        owner = _owner(target)
        current = owner.__dict__[attr] if ":" in target \
            else getattr(owner, attr)
        assert current is original


def test_default_seed_references_are_committed_and_match_bench_pr6(tmp_path):
    store = ReferenceStore(HERE / "reference" / "clean-table3.json", None)
    wl = make_workload("clean-table3", 1, tmp_path)
    wl.setup()
    keys = wl.resolve(store)
    assert store.computed == 0 and len(keys) == 16
    bench = ROOT / "BENCH_PR6.json"
    if not bench.is_file():
        pytest.skip("BENCH_PR6.json not present")
    expected = {(e["app"], e["variant"]): e["sim_elapsed_us"]
                for e in json.loads(bench.read_text())["entries"]
                if e["profile"] == "table3"}
    assert len(expected) == 6
    for case in wl.items:
        for variant, entry in (("O", case.o_expected), ("P", case.expected)):
            if (case.app, variant) in expected:
                assert entry["sim_elapsed_us"] == expected[case.app, variant]


def test_farm_batch_shape_is_fixed_and_seeded():
    batch = make_batch(7, 96, 120)
    assert len(batch) == 48
    assert len({job.app for job in batch}) == 8
    assert {job.kind for job in batch} == {"run", "compare", "sweep", "chaos"}
    runs = sorted(job.variant for job in batch if job.kind == "run")
    assert runs == sorted(RUN_VARIANTS * 2)
    faultable = [job for job in batch if job.kind in ("run", "compare")]
    assert sum(job.faults is not None for job in faultable) == 4
    assert make_batch(7, 96, 120) == batch != make_batch(8, 96, 120)
    shape = [(j.kind, j.app, j.variant, j.priority, j.faults is None)
             for j in make_batch(8, 96, 120)]
    assert shape == [(j.kind, j.app, j.variant, j.priority, j.faults is None)
                     for j in batch]


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tail_percentile(list(range(48))) == ("p75", 35)
    assert tail_percentile(list(range(16))) == ("mean of slowest 4", 13.5)
    assert tail_percentile([2.0]) == ("mean of slowest 1", 2.0)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = run_bench("--workload", "clean-table3", "--seed", "1",
                    "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert not out.stdout.strip()
