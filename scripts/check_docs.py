#!/usr/bin/env python
"""Lint: reference tables in docs/ must match the code, both ways.

Twenty authoritative reference tables are checked:

* **Event schema reference** (docs/observability.md) -- one row per
  ``TraceKind`` value;
* **Metric reference** (docs/observability.md) -- one row per name in
  ``RUN_METRIC_NAMES`` + ``OBS_METRIC_NAMES``;
* **Span state reference** (docs/observability.md) -- one row per
  ``SpanState`` value;
* **Stall cause reference** (docs/observability.md) -- one row per
  entry of ``STALL_CAUSES``;
* **FaultPlan schema reference** (docs/robustness.md) -- one row per
  field of the fault-plan dataclasses (``FaultPlan``, ``DiskFaultSpec``,
  ``SlowWindow``, ``PressureStorm``);
* **Snapshot state reference** (docs/robustness.md) -- one row per
  ``Machine`` attribute a snapshot carries (``repro.checkpoint.
  snapshot.STATE``);
* **Checkpoint metric reference** (docs/robustness.md) -- one row per
  name in ``CKPT_METRIC_NAMES``;
* **Bench profile reference** (docs/performance.md) -- one row per
  profile in ``repro.harness.bench.BENCH_PROFILES``;
* **The fast-access predicate** (docs/performance.md) -- one row per
  ``MemoryManager`` method that sets or clears the fast-access mask
  ``self.fast``, found in the source with ``ast``;
* **JobSpec schema reference** (docs/serving.md) -- one row per field
  of ``repro.serve.jobspec.JobSpec``;
* **Serve metric reference** (docs/serving.md) -- one row per name in
  ``SERVE_METRIC_NAMES``;
* **Strategy reference** (docs/robustness.md) -- one row per name in
  ``repro.fuzz.strategies.STRATEGY_NAMES``;
* **Oracle reference** (docs/robustness.md) -- one row per name in
  ``repro.fuzz.oracles.ORACLE_NAMES``;
* **Fuzz metric reference** (docs/robustness.md) -- one row per name in
  ``FUZZ_METRIC_NAMES``;
* **SLO rule schema reference** (docs/observability.md) -- one row per
  field of ``repro.obs.telemetry.SloRule``;
* **SLO metric reference** (docs/observability.md) -- one row per name
  in ``SLO_METRIC_NAMES``;
* **Telemetry metric reference** (docs/observability.md) -- one row per
  name in ``TELEMETRY_METRIC_NAMES``;
* **Farm timeline reference** (docs/observability.md) -- one row per
  name in ``FARM_SPAN_NAMES`` + ``FARM_INSTANT_NAMES`` +
  ``FARM_COUNTER_NAMES``;
* **Ledger record reference** (docs/serving.md) -- one row per kind in
  ``repro.serve.ledger.LEDGER_RECORD_KINDS``;
* **Recovery semantics** (docs/serving.md) -- one row per key of
  ``repro.serve.ledger.RECOVERY_SEMANTICS``.

This script parses those sections (and only those sections -- other
tables in the docs may legitimately backtick other things) and fails
when a kind / metric / field / method exists in code but is
undocumented, or is documented but no longer exists.

It also lints **documented commands**: every ``repro`` invocation in a
fenced code block of README.md or docs/ (``python -m repro ...``, a
profiler's ``-m repro ...``, or a bare ``repro ...``; ``\\``
continuations joined, pipes and comments cut) must parse with
``repro.cli.build_parser()``.  Inline code spans that begin ``repro ``
or ``python -m repro `` are often prose (``repro serve``), not full
commands, so only their first token after the global options must name
an existing verb.

CI runs it next to the test suite; ``tests/test_check_docs.py`` runs
the same check under pytest.

Usage::

    PYTHONPATH=src python scripts/check_docs.py
"""

from __future__ import annotations

import ast
import contextlib
import io
import re
import shlex
import sys
from pathlib import Path
from typing import Iterable

REPO_ROOT = Path(__file__).resolve().parent.parent
DOC_PATH = REPO_ROOT / "docs" / "observability.md"
ROBUSTNESS_DOC_PATH = REPO_ROOT / "docs" / "robustness.md"
PERFORMANCE_DOC_PATH = REPO_ROOT / "docs" / "performance.md"
SERVING_DOC_PATH = REPO_ROOT / "docs" / "serving.md"
MANAGER_PATH = REPO_ROOT / "src" / "repro" / "vm" / "manager.py"
#: Documents whose commands are linted besides the four above.
OTHER_COMMAND_DOCS = (REPO_ROOT / "README.md",
                      REPO_ROOT / "docs" / "tutorial.md",
                      REPO_ROOT / "docs" / "internals.md")

#: Every document whose inline ``repro`` spans are linted.
INLINE_COMMAND_DOCS = (REPO_ROOT / "README.md",
                       *sorted((REPO_ROOT / "docs").glob("*.md")))

#: Shell tokens that end the ``repro`` part of a command line.
_SHELL_STOPS = {"|", "||", "&&", ";", ">", ">>", "2>", "<", "&"}
_ENV_ASSIGNMENT = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*=")

#: Section heading -> what its table's first column enumerates.
SECTIONS = {
    "## Event schema reference": "kinds",
    "## Metric reference": "metrics",
    "## Span state reference": "span_states",
    "## Stall cause reference": "stall_causes",
}

_ROW_TOKEN = re.compile(r"^\|\s*`([a-z0-9_.]+)`\s*\|")
_INLINE_CODE = re.compile(r"`([^`]+)`")


def _section_text(doc: str, heading: str) -> str:
    """The body of one section, up to the next heading of the same or a
    higher level (a ``##`` heading ends a ``###`` section)."""
    start = doc.index(heading) + len(heading)
    rest = doc[start:]
    level = len(heading) - len(heading.lstrip("#"))
    next_heading = re.search(rf"^#{{2,{level}}} ", rest, flags=re.MULTILINE)
    return rest[: next_heading.start()] if next_heading else rest


def documented_tokens(doc_path: Path = DOC_PATH) -> dict[str, set[str]]:
    """First-column backticked tokens of each reference table."""
    doc = doc_path.read_text()
    tokens: dict[str, set[str]] = {bucket: set() for bucket in SECTIONS.values()}
    for heading, bucket in SECTIONS.items():
        if heading not in doc:
            raise SystemExit(f"{doc_path}: missing section {heading!r}")
        for line in _section_text(doc, heading).splitlines():
            match = _ROW_TOKEN.match(line.strip())
            if match:
                tokens[bucket].add(match.group(1))
    return tokens


def _table_tokens(doc_path: Path, heading: str) -> set[str]:
    """First-column backticked tokens of the table under ``heading``."""
    doc = doc_path.read_text()
    if heading not in doc:
        raise SystemExit(f"{doc_path}: missing section {heading!r}")
    return {match.group(1)
            for line in _section_text(doc, heading).splitlines()
            if (match := _ROW_TOKEN.match(line.strip()))}


def documented_plan_fields(doc_path: Path = ROBUSTNESS_DOC_PATH) -> set[str]:
    """First-column tokens of the FaultPlan schema table.

    Nested fields are documented as ``owner.field`` (for example
    ``disks.read_error_rate``); top-level ``FaultPlan`` fields are bare.
    """
    return _table_tokens(doc_path, "## FaultPlan schema reference")


def documented_ckpt_metrics(doc_path: Path = ROBUSTNESS_DOC_PATH) -> set[str]:
    """First-column tokens of the checkpoint metric table."""
    return _table_tokens(doc_path, "## Checkpoint metric reference")


def documented_snapshot_state(doc_path: Path = ROBUSTNESS_DOC_PATH) -> set[str]:
    """First-column tokens of the snapshot state table."""
    return _table_tokens(doc_path, "### Snapshot state reference")


def documented_bench_profiles(doc_path: Path = PERFORMANCE_DOC_PATH) -> set[str]:
    """First-column tokens of the bench profile table."""
    return _table_tokens(doc_path, "## Bench profile reference")


def documented_fast_mask_writers(doc_path: Path = PERFORMANCE_DOC_PATH) -> set[str]:
    """First-column tokens of the fast-access predicate's method table."""
    return _table_tokens(doc_path, "### The fast-access predicate")


def fast_mask_writers(manager_path: Path = MANAGER_PATH) -> set[str]:
    """``MemoryManager`` methods that set or clear ``self.fast``.

    A method counts when it takes a flag-writing method (``set`` or
    ``clear``) off ``self.fast`` or off a local alias of it -- so a bound
    method saved in a local (``fast_clear = self.fast.clear``) counts --
    or when it rebinds ``self.fast`` anywhere but ``__init__``.
    """
    def is_self_fast(node: ast.AST) -> bool:
        return (isinstance(node, ast.Attribute) and node.attr == "fast"
                and isinstance(node.value, ast.Name) and node.value.id == "self")

    tree = ast.parse(manager_path.read_text())
    manager = next(node for node in tree.body
                   if isinstance(node, ast.ClassDef)
                   and node.name == "MemoryManager")
    writers = set()
    for method in manager.body:
        if not isinstance(method, ast.FunctionDef):
            continue
        nodes = list(ast.walk(method))
        aliases = {target.id for node in nodes
                   if isinstance(node, ast.Assign) and is_self_fast(node.value)
                   for target in node.targets if isinstance(target, ast.Name)}
        for node in nodes:
            if (isinstance(node, ast.Attribute)
                    and node.attr in ("set", "clear")):
                owner = node.value
                if is_self_fast(owner) or (isinstance(owner, ast.Name)
                                           and owner.id in aliases):
                    writers.add(method.name)
            elif (isinstance(node, ast.Assign) and method.name != "__init__"
                  and any(is_self_fast(target) for target in node.targets)):
                writers.add(method.name)
    return writers


def documented_serve_tokens(doc_path: Path = SERVING_DOC_PATH) -> dict[str, set[str]]:
    """First-column tokens of the serving doc's two reference tables."""
    doc = doc_path.read_text()
    tokens: dict[str, set[str]] = {}
    for heading, bucket in (("## JobSpec schema reference", "jobspec_fields"),
                            ("## Serve metric reference", "serve_metrics")):
        if heading not in doc:
            raise SystemExit(f"{doc_path}: missing section {heading!r}")
        tokens[bucket] = set()
        for line in _section_text(doc, heading).splitlines():
            match = _ROW_TOKEN.match(line.strip())
            if match:
                tokens[bucket].add(match.group(1))
    return tokens


def documented_fuzz_tokens(doc_path: Path = ROBUSTNESS_DOC_PATH) -> dict[str, set[str]]:
    """First-column tokens of the robustness doc's three fuzz tables.

    The fuzz tables live under ``###`` headings inside the Scenario
    fuzzing section, so the body of each runs to the next heading of
    *either* level.
    """
    doc = doc_path.read_text()
    tokens: dict[str, set[str]] = {}
    for heading, bucket in (("### Strategy reference", "strategies"),
                            ("### Oracle reference", "oracles"),
                            ("### Fuzz metric reference", "fuzz_metrics")):
        if heading not in doc:
            raise SystemExit(f"{doc_path}: missing section {heading!r}")
        start = doc.index(heading) + len(heading)
        rest = doc[start:]
        next_heading = re.search(r"^#{2,3} ", rest, flags=re.MULTILINE)
        body = rest[: next_heading.start()] if next_heading else rest
        tokens[bucket] = set()
        for line in body.splitlines():
            match = _ROW_TOKEN.match(line.strip())
            if match:
                tokens[bucket].add(match.group(1))
    return tokens


def documented_ledger_tokens(doc_path: Path = SERVING_DOC_PATH) -> dict[str, set[str]]:
    """First-column tokens of the serving doc's two ledger tables.

    The ledger tables live under ``###`` headings inside the Controller
    failure & recovery section, so the body of each runs to the next
    heading of *either* level.
    """
    doc = doc_path.read_text()
    tokens: dict[str, set[str]] = {}
    for heading, bucket in (("### Ledger record reference", "ledger_kinds"),
                            ("### Recovery semantics", "recovery_kinds")):
        if heading not in doc:
            raise SystemExit(f"{doc_path}: missing section {heading!r}")
        start = doc.index(heading) + len(heading)
        rest = doc[start:]
        next_heading = re.search(r"^#{2,3} ", rest, flags=re.MULTILINE)
        body = rest[: next_heading.start()] if next_heading else rest
        tokens[bucket] = set()
        for line in body.splitlines():
            match = _ROW_TOKEN.match(line.strip())
            if match:
                tokens[bucket].add(match.group(1))
    return tokens


def documented_telemetry_tokens(doc_path: Path = DOC_PATH) -> dict[str, set[str]]:
    """First-column tokens of the observability doc's four farm tables.

    The telemetry tables live under ``###`` headings inside the Farm
    telemetry section, so the body of each runs to the next heading of
    *either* level.
    """
    doc = doc_path.read_text()
    tokens: dict[str, set[str]] = {}
    for heading, bucket in (("### SLO rule schema reference", "slo_fields"),
                            ("### SLO metric reference", "slo_metrics"),
                            ("### Telemetry metric reference", "telemetry_metrics"),
                            ("### Farm timeline reference", "farm_timeline")):
        if heading not in doc:
            raise SystemExit(f"{doc_path}: missing section {heading!r}")
        start = doc.index(heading) + len(heading)
        rest = doc[start:]
        next_heading = re.search(r"^#{2,3} ", rest, flags=re.MULTILINE)
        body = rest[: next_heading.start()] if next_heading else rest
        tokens[bucket] = set()
        for line in body.splitlines():
            match = _ROW_TOKEN.match(line.strip())
            if match:
                tokens[bucket].add(match.group(1))
    return tokens


def plan_fields_in_code() -> set[str]:
    """Every fault-plan dataclass field, named as the doc table names it."""
    import dataclasses

    from repro.faults.plan import DiskFaultSpec, FaultPlan, PressureStorm, SlowWindow

    fields = {f.name for f in dataclasses.fields(FaultPlan)}
    for owner, cls in (("disks", DiskFaultSpec),
                       ("disks.slow_windows", SlowWindow),
                       ("storms", PressureStorm)):
        fields |= {f"{owner}.{f.name}" for f in dataclasses.fields(cls)}
    return fields


def documented_commands(doc_path: Path) -> list[tuple[int, list[str]]]:
    """``(line, argv)`` of every ``repro`` command in the fenced code
    blocks of one document; argv is what follows ``repro``."""
    commands = []
    in_fence = False
    pending, start = "", 0
    for number, line in enumerate(doc_path.read_text().splitlines(), 1):
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            pending = ""
            continue
        if not in_fence:
            continue
        if not pending:
            start = number
        if line.rstrip().endswith("\\"):
            pending += line.rstrip()[:-1] + " "
            continue
        text, pending = pending + line, ""
        try:
            tokens = shlex.split(text, comments=True)
        except ValueError:
            continue  # not shell (unbalanced quotes in sample output)
        for idx, token in enumerate(tokens):
            if token in _SHELL_STOPS:
                tokens = tokens[:idx]
                break
        while tokens and (tokens[0] == "$" or _ENV_ASSIGNMENT.match(tokens[0])):
            tokens = tokens[1:]
        if tokens[:1] == ["repro"]:
            commands.append((start, tokens[1:]))
        elif tokens and tokens[0].startswith("python"):
            for idx in range(1, len(tokens) - 1):
                if tokens[idx:idx + 2] == ["-m", "repro"]:
                    commands.append((start, tokens[idx + 2:]))
                    break
    return commands


def command_problems(doc_paths: Iterable[Path]) -> list[str]:
    """Documented ``repro`` commands that ``build_parser()`` rejects."""
    from repro.cli import build_parser

    problems = []
    for doc_path in doc_paths:
        for number, argv in documented_commands(doc_path):
            errors = io.StringIO()
            try:
                with contextlib.redirect_stderr(errors), \
                        contextlib.redirect_stdout(io.StringIO()):
                    build_parser().parse_args(argv)
            except SystemExit as exc:
                if exc.code:
                    reason = errors.getvalue().strip().splitlines()
                    problems.append(
                        f"{doc_path.name}:{number}: `repro {shlex.join(argv)}`"
                        f" does not parse: {reason[-1] if reason else exc.code}")
    return problems


def inline_commands(doc_path: Path) -> list[tuple[int, list[str]]]:
    """``(line, argv)`` of every inline code span outside fenced blocks
    that begins ``repro `` or ``python -m repro ``; argv is what
    follows ``repro``."""
    commands = []
    in_fence = False
    for number, line in enumerate(doc_path.read_text().splitlines(), 1):
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        for span in _INLINE_CODE.findall(line):
            for prefix in ("repro ", "python -m repro "):
                if span.startswith(prefix):
                    commands.append((number, span[len(prefix):].split()))
    return commands


def inline_command_problems(doc_paths: Iterable[Path]) -> list[str]:
    """Inline ``repro`` spans whose first token after the global options
    is not a verb of ``build_parser()``."""
    from repro.cli import COMMANDS, build_parser

    # Global option -> whether it takes a value (``--memory-pages 96``).
    takes_value = {option: action.nargs != 0
                   for action in build_parser()._actions
                   for option in action.option_strings}
    problems = []
    for doc_path in doc_paths:
        for number, argv in inline_commands(doc_path):
            idx = 0
            while idx < len(argv) and argv[idx] in takes_value:
                idx += 1 + takes_value[argv[idx]]
            if idx == len(argv) or argv[idx] not in COMMANDS:
                problems.append(
                    f"{doc_path.name}:{number}: `repro {' '.join(argv)}` "
                    f"names no repro verb")
    return problems


def check(
    doc_path: Path = DOC_PATH,
    robustness_doc_path: Path = ROBUSTNESS_DOC_PATH,
    performance_doc_path: Path = PERFORMANCE_DOC_PATH,
    serving_doc_path: Path = SERVING_DOC_PATH,
) -> list[str]:
    """Returns a list of problems; empty means docs and code agree."""
    import dataclasses

    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.checkpoint.snapshot import STATE as SNAPSHOT_STATE
    from repro.fuzz.oracles import ORACLE_NAMES
    from repro.fuzz.strategies import STRATEGY_NAMES
    from repro.harness.bench import BENCH_PROFILES
    from repro.obs.attrib import STALL_CAUSES
    from repro.obs.export import (
        FARM_COUNTER_NAMES,
        FARM_INSTANT_NAMES,
        FARM_SPAN_NAMES,
    )
    from repro.obs.metrics import (
        CKPT_METRIC_NAMES,
        FUZZ_METRIC_NAMES,
        OBS_METRIC_NAMES,
        RUN_METRIC_NAMES,
        SERVE_METRIC_NAMES,
        SLO_METRIC_NAMES,
        TELEMETRY_METRIC_NAMES,
    )
    from repro.obs.spans import SpanState
    from repro.obs.telemetry import SloRule
    from repro.obs.trace import TraceKind
    from repro.serve.jobspec import JobSpec
    from repro.serve.ledger import LEDGER_RECORD_KINDS, RECOVERY_SEMANTICS

    doc = documented_tokens(doc_path)
    in_code = {
        "kinds": ("event kind", {kind.value for kind in TraceKind}),
        "metrics": ("metric",
                    set(RUN_METRIC_NAMES) | set(OBS_METRIC_NAMES)),
        "span_states": ("span state", {state.value for state in SpanState}),
        "stall_causes": ("stall cause", set(STALL_CAUSES)),
    }

    problems = []
    for bucket, (label, code_tokens) in in_code.items():
        for missing in sorted(code_tokens - doc[bucket]):
            problems.append(f"{label} {missing!r} is in code but not documented")
        for stale in sorted(doc[bucket] - code_tokens):
            problems.append(f"{label} {stale!r} is documented but not in code")

    code_fields = plan_fields_in_code()
    doc_fields = documented_plan_fields(robustness_doc_path)
    for missing in sorted(code_fields - doc_fields):
        problems.append(f"fault-plan field {missing!r} is in code but not documented")
    for stale in sorted(doc_fields - code_fields):
        problems.append(f"fault-plan field {stale!r} is documented but not in code")

    doc_ckpt = documented_ckpt_metrics(robustness_doc_path)
    for missing in sorted(set(CKPT_METRIC_NAMES) - doc_ckpt):
        problems.append(
            f"checkpoint metric {missing!r} is in code but not documented")
    for stale in sorted(doc_ckpt - set(CKPT_METRIC_NAMES)):
        problems.append(
            f"checkpoint metric {stale!r} is documented but not in code")

    doc_state = documented_snapshot_state(robustness_doc_path)
    for missing in sorted(set(SNAPSHOT_STATE) - doc_state):
        problems.append(
            f"snapshot state attribute {missing!r} is in code but not "
            f"documented")
    for stale in sorted(doc_state - set(SNAPSHOT_STATE)):
        problems.append(
            f"snapshot state attribute {stale!r} is documented but not in "
            f"code")

    doc_profiles = documented_bench_profiles(performance_doc_path)
    for missing in sorted(set(BENCH_PROFILES) - doc_profiles):
        problems.append(
            f"bench profile {missing!r} is in code but not documented")
    for stale in sorted(doc_profiles - set(BENCH_PROFILES)):
        problems.append(
            f"bench profile {stale!r} is documented but not in code")

    doc_writers = documented_fast_mask_writers(performance_doc_path)
    code_writers = fast_mask_writers()
    for missing in sorted(code_writers - doc_writers):
        problems.append(
            f"fast-mask method {missing!r} is in code but not documented")
    for stale in sorted(doc_writers - code_writers):
        problems.append(
            f"fast-mask method {stale!r} is documented but does not set "
            f"or clear the mask")

    serve_doc = documented_serve_tokens(serving_doc_path)
    jobspec_fields = {f.name for f in dataclasses.fields(JobSpec)}
    for missing in sorted(jobspec_fields - serve_doc["jobspec_fields"]):
        problems.append(
            f"job-spec field {missing!r} is in code but not documented")
    for stale in sorted(serve_doc["jobspec_fields"] - jobspec_fields):
        problems.append(
            f"job-spec field {stale!r} is documented but not in code")
    for missing in sorted(set(SERVE_METRIC_NAMES) - serve_doc["serve_metrics"]):
        problems.append(
            f"serve metric {missing!r} is in code but not documented")
    for stale in sorted(serve_doc["serve_metrics"] - set(SERVE_METRIC_NAMES)):
        problems.append(
            f"serve metric {stale!r} is documented but not in code")

    ledger_doc = documented_ledger_tokens(serving_doc_path)
    for bucket, label, code_tokens in (
        ("ledger_kinds", "ledger record kind", set(LEDGER_RECORD_KINDS)),
        ("recovery_kinds", "recovery-semantics kind",
         set(RECOVERY_SEMANTICS)),
    ):
        for missing in sorted(code_tokens - ledger_doc[bucket]):
            problems.append(
                f"{label} {missing!r} is in code but not documented")
        for stale in sorted(ledger_doc[bucket] - code_tokens):
            problems.append(
                f"{label} {stale!r} is documented but not in code")
    if set(RECOVERY_SEMANTICS) != set(LEDGER_RECORD_KINDS):
        problems.append(
            "RECOVERY_SEMANTICS keys do not match LEDGER_RECORD_KINDS")

    fuzz_doc = documented_fuzz_tokens(robustness_doc_path)
    for bucket, label, code_tokens in (
        ("strategies", "fuzz strategy", set(STRATEGY_NAMES)),
        ("oracles", "fuzz oracle", set(ORACLE_NAMES)),
        ("fuzz_metrics", "fuzz metric", set(FUZZ_METRIC_NAMES)),
    ):
        for missing in sorted(code_tokens - fuzz_doc[bucket]):
            problems.append(
                f"{label} {missing!r} is in code but not documented")
        for stale in sorted(fuzz_doc[bucket] - code_tokens):
            problems.append(
                f"{label} {stale!r} is documented but not in code")

    telemetry_doc = documented_telemetry_tokens(doc_path)
    farm_timeline_names = (set(FARM_SPAN_NAMES) | set(FARM_INSTANT_NAMES)
                           | set(FARM_COUNTER_NAMES))
    for bucket, label, code_tokens in (
        ("slo_fields", "SLO rule field",
         {f.name for f in dataclasses.fields(SloRule)}),
        ("slo_metrics", "SLO metric", set(SLO_METRIC_NAMES)),
        ("telemetry_metrics", "telemetry metric", set(TELEMETRY_METRIC_NAMES)),
        ("farm_timeline", "farm timeline name", farm_timeline_names),
    ):
        for missing in sorted(code_tokens - telemetry_doc[bucket]):
            problems.append(
                f"{label} {missing!r} is in code but not documented")
        for stale in sorted(telemetry_doc[bucket] - code_tokens):
            problems.append(
                f"{label} {stale!r} is documented but not in code")

    if len(set(RUN_METRIC_NAMES)) != len(RUN_METRIC_NAMES):
        problems.append("RUN_METRIC_NAMES contains duplicates")
    if len(set(CKPT_METRIC_NAMES)) != len(CKPT_METRIC_NAMES):
        problems.append("CKPT_METRIC_NAMES contains duplicates")
    if len(set(SERVE_METRIC_NAMES)) != len(SERVE_METRIC_NAMES):
        problems.append("SERVE_METRIC_NAMES contains duplicates")
    overlap = set(RUN_METRIC_NAMES) & set(OBS_METRIC_NAMES)
    if overlap:
        problems.append(f"names in both RUN and OBS lists: {sorted(overlap)}")
    overlap = set(CKPT_METRIC_NAMES) & (set(RUN_METRIC_NAMES)
                                        | set(OBS_METRIC_NAMES))
    if overlap:
        problems.append(
            f"names in both CKPT and RUN/OBS lists: {sorted(overlap)}")
    overlap = set(SERVE_METRIC_NAMES) & (set(RUN_METRIC_NAMES)
                                         | set(OBS_METRIC_NAMES)
                                         | set(CKPT_METRIC_NAMES))
    if overlap:
        problems.append(
            f"names in both SERVE and other lists: {sorted(overlap)}")
    if len(set(FUZZ_METRIC_NAMES)) != len(FUZZ_METRIC_NAMES):
        problems.append("FUZZ_METRIC_NAMES contains duplicates")
    overlap = set(FUZZ_METRIC_NAMES) & (set(RUN_METRIC_NAMES)
                                        | set(OBS_METRIC_NAMES)
                                        | set(CKPT_METRIC_NAMES)
                                        | set(SERVE_METRIC_NAMES))
    if overlap:
        problems.append(
            f"names in both FUZZ and other lists: {sorted(overlap)}")
    others = (set(RUN_METRIC_NAMES) | set(OBS_METRIC_NAMES)
              | set(CKPT_METRIC_NAMES) | set(SERVE_METRIC_NAMES)
              | set(FUZZ_METRIC_NAMES))
    if len(set(TELEMETRY_METRIC_NAMES)) != len(TELEMETRY_METRIC_NAMES):
        problems.append("TELEMETRY_METRIC_NAMES contains duplicates")
    if len(set(SLO_METRIC_NAMES)) != len(SLO_METRIC_NAMES):
        problems.append("SLO_METRIC_NAMES contains duplicates")
    overlap = (set(TELEMETRY_METRIC_NAMES) | set(SLO_METRIC_NAMES)) & others
    if overlap:
        problems.append(
            f"names in both TELEMETRY/SLO and other lists: {sorted(overlap)}")
    overlap = set(TELEMETRY_METRIC_NAMES) & set(SLO_METRIC_NAMES)
    if overlap:
        problems.append(
            f"names in both TELEMETRY and SLO lists: {sorted(overlap)}")

    problems += command_problems([doc_path, robustness_doc_path,
                                  performance_doc_path, serving_doc_path,
                                  *OTHER_COMMAND_DOCS])
    problems += inline_command_problems(INLINE_COMMAND_DOCS)
    return problems


def main() -> int:
    problems = check()
    for problem in problems:
        print(f"check_docs: {problem}", file=sys.stderr)
    if problems:
        return 1
    tokens = documented_tokens()
    serve_tokens = documented_serve_tokens()
    fuzz_tokens = documented_fuzz_tokens()
    telemetry_tokens = documented_telemetry_tokens()
    ledger_tokens = documented_ledger_tokens()
    commands = sum(len(documented_commands(path)) for path in (
        DOC_PATH, ROBUSTNESS_DOC_PATH, PERFORMANCE_DOC_PATH,
        SERVING_DOC_PATH, *OTHER_COMMAND_DOCS))
    spans = sum(len(inline_commands(path)) for path in INLINE_COMMAND_DOCS)
    print(f"check_docs: OK ({len(tokens['kinds'])} event kinds, "
          f"{len(tokens['metrics'])} metrics, "
          f"{len(tokens['span_states'])} span states, "
          f"{len(tokens['stall_causes'])} stall causes, "
          f"{len(documented_plan_fields())} fault-plan fields, "
          f"{len(documented_ckpt_metrics())} checkpoint metrics, "
          f"{len(documented_snapshot_state())} snapshot state attributes, "
          f"{len(documented_bench_profiles())} bench profiles, "
          f"{len(documented_fast_mask_writers())} fast-mask methods, "
          f"{len(serve_tokens['jobspec_fields'])} job-spec fields, "
          f"{len(serve_tokens['serve_metrics'])} serve metrics, "
          f"{len(fuzz_tokens['strategies'])} fuzz strategies, "
          f"{len(fuzz_tokens['oracles'])} fuzz oracles, "
          f"{len(fuzz_tokens['fuzz_metrics'])} fuzz metrics, "
          f"{len(telemetry_tokens['slo_fields'])} SLO rule fields, "
          f"{len(telemetry_tokens['slo_metrics'])} SLO metrics, "
          f"{len(telemetry_tokens['telemetry_metrics'])} telemetry metrics, "
          f"{len(telemetry_tokens['farm_timeline'])} farm timeline names, "
          f"{len(ledger_tokens['ledger_kinds'])} ledger record kinds, "
          f"{len(ledger_tokens['recovery_kinds'])} recovery-semantics kinds "
          f"in sync; {commands} documented commands parse; "
          f"{spans} inline commands name a verb)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
