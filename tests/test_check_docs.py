"""The docs lint, run as part of the suite.

``scripts/check_docs.py`` cross-checks the reference tables of
docs/observability.md, robustness.md, performance.md and serving.md
against the code, both ways, and parses the ``repro`` commands of
README.md and docs/.  These tests run the same check under pytest (so CI
catches drift either way), show that every table in its registry
catches a dropped and a renamed row, and pin the parsers' behaviour.
"""

import importlib.util
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


def _load_check_docs():
    path = REPO_ROOT / "scripts" / "check_docs.py"
    spec = importlib.util.spec_from_file_location("check_docs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


check_docs = _load_check_docs()


def _mutated(tmp_path, doc, old, new):
    """A copy of one :data:`DOCS` document with ``old`` replaced."""
    text = check_docs.DOCS[doc].read_text()
    assert old in text
    mutated = tmp_path / check_docs.DOCS[doc].name
    mutated.write_text(text.replace(old, new))
    return {doc: mutated}


def test_docs_match_code():
    assert check_docs.check() == []


def test_parser_finds_all_tables():
    tokens = {table.label: check_docs._table_tokens(check_docs.DOCS[table.doc],
                                                    table.heading)
              for table in check_docs.tables()}
    assert "fault" in tokens["event kind"]
    assert "disk_request" in tokens["event kind"]
    assert "stall_frame_wait" in tokens["event kind"]
    assert "time.elapsed_us" in tokens["metric"]
    assert "obs.stall_latency_us" in tokens["metric"]
    assert "obs.disk_idle_fraction" in tokens["metric"]
    assert "used_stall" in tokens["span state"]
    assert "issued" in tokens["span state"]
    assert "prefetch_too_late" in tokens["stall cause"]
    assert "fault_injected" in tokens["stall cause"]


@pytest.mark.parametrize("table", check_docs.tables(),
                         ids=lambda table: table.label.replace(" ", "-"))
def test_every_table_is_linted_both_ways(table, tmp_path):
    """Dropping a table's first row fails the lint as undocumented;
    renaming it fails it both ways."""
    text = check_docs.DOCS[table.doc].read_text()
    row = next(line for line in
               check_docs._section_text(text, table.heading).splitlines()
               if check_docs._ROW_TOKEN.match(line.strip()))
    name = check_docs._ROW_TOKEN.match(row.strip()).group(1)
    at = text.index(row, text.index(table.heading))
    mutated = tmp_path / check_docs.DOCS[table.doc].name
    missing = f"{table.label} {name!r} is in code but not documented"

    mutated.write_text(text[:at] + text[at + len(row) + 1:])
    assert check_docs.check(docs={table.doc: mutated}) == [missing]

    renamed = row.replace(f"`{name}`", f"`{name}_renamed`", 1)
    mutated.write_text(text[:at] + renamed + text[at + len(row):])
    assert check_docs.check(docs={table.doc: mutated}) == [
        missing, f"{table.label} '{name}_renamed' is documented but not in code"]


def test_metric_listed_twice_is_reported(monkeypatch):
    """A metric name in two ``*_METRIC_NAMES`` families, or twice in
    one, fails the lint."""
    from repro.obs import metrics

    monkeypatch.setattr(metrics, "OBS_METRIC_NAMES",
                        (*metrics.OBS_METRIC_NAMES, "obs.stall_latency_us"))
    monkeypatch.setattr(metrics, "CKPT_METRIC_NAMES",
                        (*metrics.CKPT_METRIC_NAMES, "time.elapsed_us"))
    twice = ["metric 'obs.stall_latency_us' is listed twice, in "
             "OBS_METRIC_NAMES",
             "metric 'time.elapsed_us' is listed twice, in "
             "RUN_METRIC_NAMES and CKPT_METRIC_NAMES"]
    assert check_docs.metric_family_problems() == twice
    problems = check_docs.check()
    assert all(problem in problems for problem in twice)


def test_lint_catches_drift(tmp_path):
    """Removing a documented row or inventing one must fail the lint."""
    docs = _mutated(tmp_path, "observability",
                    "| `fault` |", "| `fault_renamed` |")
    problems = check_docs.check(docs=docs)
    assert any("fault_renamed" in p for p in problems)
    assert any("'fault'" in p for p in problems)

    docs = _mutated(tmp_path, "observability",
                    "| `time.elapsed_us` |", "| `time.bogus_us` |")
    problems = check_docs.check(docs=docs)
    assert any("time.bogus_us" in p for p in problems)

    docs = _mutated(tmp_path, "observability",
                    "| `used_stall` |", "| `used_wrong` |")
    problems = check_docs.check(docs=docs)
    assert any("used_wrong" in p for p in problems)
    assert any("'used_stall'" in p for p in problems)

    docs = _mutated(tmp_path, "observability",
                    "| `prefetch_too_late` |", "| `too_late_renamed` |")
    problems = check_docs.check(docs=docs)
    assert any("too_late_renamed" in p for p in problems)


def test_bench_profile_table_matches_registry():
    from repro.harness.bench import BENCH_PROFILES

    assert check_docs._table_tokens(
        check_docs.DOCS["performance"],
        "## Bench profile reference") == set(BENCH_PROFILES)


def test_lint_catches_bench_profile_drift(tmp_path):
    """The performance.md bench-profile table is linted both ways."""
    # A documented profile the harness does not have.
    docs = _mutated(tmp_path, "performance", "| `smoke` |", "| `smoke_renamed` |")
    problems = check_docs.check(docs=docs)
    assert any("smoke_renamed" in p for p in problems)
    assert any("'smoke'" in p for p in problems)

    # A harness profile missing from the doc.
    docs = _mutated(tmp_path, "performance", "| `table3` |", "| not-a-row |")
    problems = check_docs.check(docs=docs)
    assert any("'table3'" in p and "not documented" in p for p in problems)


def test_lint_catches_fast_mask_method_drift(tmp_path):
    """The predicate section names exactly the methods that set or
    clear ``MemoryManager.fast``, both ways."""
    # A method that clears the mask, missing from the doc.
    docs = _mutated(tmp_path, "performance", "| `_evict` |", "| not-a-row |")
    problems = check_docs.check(docs=docs)
    assert any("'_evict'" in p and "not documented" in p for p in problems)

    # A documented method that does not touch the mask.
    docs = _mutated(tmp_path, "performance", "| `_map` |", "| `_map_renamed` |")
    problems = check_docs.check(docs=docs)
    assert any("'_map_renamed'" in p for p in problems)
    assert any("'_map'" in p and "not documented" in p for p in problems)


def test_lint_catches_snapshot_state_drift(tmp_path):
    """The robustness doc's snapshot state table names exactly the
    Machine attributes a snapshot carries, both ways."""
    from repro.checkpoint.snapshot import STATE

    assert check_docs._table_tokens(
        check_docs.DOCS["robustness"],
        "### Snapshot state reference") == set(STATE)

    # A state attribute missing from the doc.
    docs = _mutated(tmp_path, "robustness", "| `manager` |", "| not-a-row |")
    problems = check_docs.check(docs=docs)
    assert any("'manager'" in p and "not documented" in p for p in problems)

    # A documented attribute the snapshot does not carry.
    docs = _mutated(tmp_path, "robustness", "| `clock` |", "| `clock_renamed` |")
    problems = check_docs.check(docs=docs)
    assert any("'clock_renamed'" in p for p in problems)


def test_fast_mask_writers_follow_aliases_and_rebinding(tmp_path):
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


def test_command_extraction_joins_cuts_and_skips_prose(tmp_path):
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


def test_lint_catches_a_documented_command_the_cli_rejects(tmp_path):
    """The cProfile recipe once ran ``repro run --app buk -p``, which
    argparse rejects; reintroducing it must fail the lint."""
    docs = _mutated(tmp_path, "performance",
                    "run BUK --variant p", "run --app buk -p")
    problems = check_docs.check(docs=docs)
    assert any("`repro run --app buk -p` does not parse" in p
               for p in problems)


def test_inline_commands_must_name_a_verb(tmp_path):
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
