"""The docs/observability.md lint, run as part of the suite.

``scripts/check_docs.py`` cross-checks the doc's event-kind and metric
reference tables against ``repro.obs``; these tests run the same check
under pytest (so CI catches drift either way) and pin the parser's
behaviour.
"""

import importlib.util
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def check_docs():
    path = REPO_ROOT / "scripts" / "check_docs.py"
    spec = importlib.util.spec_from_file_location("check_docs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_docs_match_code(check_docs):
    assert check_docs.check() == []


def test_parser_finds_all_tables(check_docs):
    tokens = check_docs.documented_tokens()
    assert "fault" in tokens["kinds"]
    assert "disk_request" in tokens["kinds"]
    assert "stall_frame_wait" in tokens["kinds"]
    assert "time.elapsed_us" in tokens["metrics"]
    assert "obs.stall_latency_us" in tokens["metrics"]
    assert "obs.disk_idle_fraction" in tokens["metrics"]
    assert "used_stall" in tokens["span_states"]
    assert "issued" in tokens["span_states"]
    assert "prefetch_too_late" in tokens["stall_causes"]
    assert "fault_injected" in tokens["stall_causes"]


def test_lint_catches_drift(check_docs, tmp_path):
    """Removing a documented row or inventing one must fail the lint."""
    doc = (REPO_ROOT / "docs" / "observability.md").read_text()
    mutated = tmp_path / "observability.md"

    mutated.write_text(doc.replace("| `fault` |", "| `fault_renamed` |"))
    problems = check_docs.check(mutated)
    assert any("fault_renamed" in p for p in problems)
    assert any("'fault'" in p for p in problems)

    mutated.write_text(
        doc.replace("| `time.elapsed_us` |", "| `time.bogus_us` |")
    )
    problems = check_docs.check(mutated)
    assert any("time.bogus_us" in p for p in problems)

    mutated.write_text(doc.replace("| `used_stall` |", "| `used_wrong` |"))
    problems = check_docs.check(mutated)
    assert any("used_wrong" in p for p in problems)
    assert any("'used_stall'" in p for p in problems)

    mutated.write_text(
        doc.replace("| `prefetch_too_late` |", "| `too_late_renamed` |")
    )
    problems = check_docs.check(mutated)
    assert any("too_late_renamed" in p for p in problems)


def test_bench_profile_table_matches_registry(check_docs):
    from repro.harness.bench import BENCH_PROFILES

    assert check_docs.documented_bench_profiles() == set(BENCH_PROFILES)


def test_lint_catches_bench_profile_drift(check_docs, tmp_path):
    """The performance.md bench-profile table is linted both ways."""
    doc = (REPO_ROOT / "docs" / "performance.md").read_text()
    mutated = tmp_path / "performance.md"

    # A documented profile the harness does not have.
    mutated.write_text(doc.replace("| `smoke` |", "| `smoke_renamed` |"))
    problems = check_docs.check(performance_doc_path=mutated)
    assert any("smoke_renamed" in p for p in problems)
    assert any("'smoke'" in p for p in problems)

    # A harness profile missing from the doc.
    mutated.write_text(doc.replace("| `table3` |", "| not-a-row |"))
    problems = check_docs.check(performance_doc_path=mutated)
    assert any("'table3'" in p and "not documented" in p for p in problems)


def test_lint_catches_fast_mask_method_drift(check_docs, tmp_path):
    """The predicate section names exactly the methods that set or
    clear ``MemoryManager.fast``, both ways."""
    doc = (REPO_ROOT / "docs" / "performance.md").read_text()
    mutated = tmp_path / "performance.md"

    # A method that clears the mask, missing from the doc.
    mutated.write_text(doc.replace("| `_evict` |", "| not-a-row |"))
    problems = check_docs.check(performance_doc_path=mutated)
    assert any("'_evict'" in p and "not documented" in p for p in problems)

    # A documented method that does not touch the mask.
    mutated.write_text(doc.replace("| `_map` |", "| `_map_renamed` |"))
    problems = check_docs.check(performance_doc_path=mutated)
    assert any("'_map_renamed'" in p for p in problems)
    assert any("'_map'" in p and "not documented" in p for p in problems)


def test_lint_catches_snapshot_state_drift(check_docs, tmp_path):
    """The robustness doc's snapshot state table names exactly the
    Machine attributes a snapshot carries, both ways."""
    from repro.checkpoint.snapshot import STATE

    assert check_docs.documented_snapshot_state() == set(STATE)
    doc = (REPO_ROOT / "docs" / "robustness.md").read_text()
    mutated = tmp_path / "robustness.md"

    # A state attribute missing from the doc.
    mutated.write_text(doc.replace("| `manager` |", "| not-a-row |"))
    problems = check_docs.check(robustness_doc_path=mutated)
    assert any("'manager'" in p and "not documented" in p for p in problems)

    # A documented attribute the snapshot does not carry.
    mutated.write_text(doc.replace("| `clock` |", "| `clock_renamed` |"))
    problems = check_docs.check(robustness_doc_path=mutated)
    assert any("'clock_renamed'" in p for p in problems)


def test_fast_mask_writers_follow_aliases_and_rebinding(check_docs, tmp_path):
    source = tmp_path / "manager.py"
    source.write_text(
        "class MemoryManager:\n"
        "    def __init__(self):\n"
        "        self.fast = make()\n"
        "    def aliased(self, vpages):\n"
        "        fast_clear = self.fast.clear\n"
        "        for v in vpages:\n"
        "            fast_clear(v)\n"
        "    def via_local(self, v):\n"
        "        fast = self.fast\n"
        "        fast.set(v)\n"
        "    def rebuild(self):\n"
        "        self.fast = make()\n"
        "    def reader(self, v):\n"
        "        return self.fast.test(v) or self.fast.raw\n")
    assert check_docs.fast_mask_writers(source) == {
        "aliased", "via_local", "rebuild"}


def test_command_extraction_joins_cuts_and_skips_prose(check_docs, tmp_path):
    doc = tmp_path / "guide.md"
    doc.write_text(
        "Run it:\n"
        "\n"
        "```sh\n"
        "PYTHONPATH=src python -m cProfile -s cumulative -m repro run --app buk -p | head\n"
        "python -m repro --memory-pages 96 run EMBAR \\\n"
        "    --pages 120 --bogus-flag   # a comment\n"
        "$ repro top --workdir farm --once --json | jq .slo.ok\n"
        "make test\n"
        "```\n"
        "\n"
        "`python -m repro run --not-fenced` is prose, not a command.\n")
    assert check_docs.documented_commands(doc) == [
        (4, ["run", "--app", "buk", "-p"]),
        (5, ["--memory-pages", "96", "run", "EMBAR", "--pages", "120",
             "--bogus-flag"]),
        (7, ["top", "--workdir", "farm", "--once", "--json"]),
    ]
    problems = check_docs.command_problems([doc])
    assert len(problems) == 2
    assert problems[0].startswith("guide.md:4:") and "--app" in problems[0]
    assert problems[1].startswith("guide.md:5:") and "--bogus-flag" in problems[1]


def test_lint_catches_a_documented_command_the_cli_rejects(check_docs, tmp_path):
    """The cProfile recipe once ran ``repro run --app buk -p``, which
    argparse rejects; reintroducing it must fail the lint."""
    doc = (REPO_ROOT / "docs" / "performance.md").read_text()
    assert "run BUK --variant p" in doc
    mutated = tmp_path / "performance.md"
    mutated.write_text(doc.replace("run BUK --variant p", "run --app buk -p"))
    problems = check_docs.check(performance_doc_path=mutated)
    assert any("`repro run --app buk -p` does not parse" in p
               for p in problems)


def test_inline_commands_must_name_a_verb(check_docs, tmp_path):
    """Inline ``repro ...`` spans are linted for their verb only: prose
    like ``repro serve`` passes, a removed verb does not."""
    doc = tmp_path / "guide.md"
    doc.write_text(
        "Use `repro serve`, or `python -m repro --memory-pages 96 run EMBAR`.\n"
        "`python -m repro trace --app MGRID --out t.json` records a run;\n"
        "`repro --disks 3` names no verb, and `repro.obs` is a module.\n"
        "```sh\n"
        "`repro fenced` belongs to the fenced-block lint\n"
        "```\n")
    assert check_docs.inline_commands(doc) == [
        (1, ["serve"]),
        (1, ["--memory-pages", "96", "run", "EMBAR"]),
        (2, ["trace", "--app", "MGRID", "--out", "t.json"]),
        (3, ["--disks", "3"]),
    ]
    problems = check_docs.inline_command_problems([doc])
    assert len(problems) == 2
    assert problems[0].startswith("guide.md:2:") and "`repro trace" in problems[0]
    assert problems[1].startswith("guide.md:3:")
