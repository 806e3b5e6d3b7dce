#!/usr/bin/env python
"""Lint: reference tables in docs/ must match the code, both ways.

:func:`tables` is the registry of authoritative reference tables: for
each, the document it lives in, its heading, what one row names, and the
names the code has.  The lint reads the first-column backticked tokens
of each of those sections (and only those sections -- other tables in
the docs may legitimately backtick other things) and fails when a name
is in code but undocumented, or is documented but no longer in code.
A new reference table is one more :func:`tables` row.

Two checks on the code ride along: every ``*_METRIC_NAMES`` family of
``repro.obs.metrics`` names each metric once and no metric is in two
families, and ``RECOVERY_SEMANTICS`` covers exactly the ledger's record
kinds.

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
from typing import Iterable, NamedTuple

REPO_ROOT = Path(__file__).resolve().parent.parent
#: Document key -> the document holding that key's reference tables.
DOCS = {
    "observability": REPO_ROOT / "docs" / "observability.md",
    "robustness": REPO_ROOT / "docs" / "robustness.md",
    "performance": REPO_ROOT / "docs" / "performance.md",
    "serving": REPO_ROOT / "docs" / "serving.md",
}
MANAGER_PATH = REPO_ROOT / "src" / "repro" / "vm" / "manager.py"
#: Documents whose commands are linted besides those of :data:`DOCS`.
OTHER_COMMAND_DOCS = (REPO_ROOT / "README.md",
                      REPO_ROOT / "docs" / "tutorial.md",
                      REPO_ROOT / "docs" / "internals.md")

#: Every document whose inline ``repro`` spans are linted.
INLINE_COMMAND_DOCS = (REPO_ROOT / "README.md",
                       *sorted((REPO_ROOT / "docs").glob("*.md")))

#: Shell tokens that end the ``repro`` part of a command line.
_SHELL_STOPS = {"|", "||", "&&", ";", ">", ">>", "2>", "<", "&"}
_ENV_ASSIGNMENT = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*=")

_ROW_TOKEN = re.compile(r"^\|\s*`([a-z0-9_.]+)`\s*\|")
_INLINE_CODE = re.compile(r"`([^`]+)`")


class Table(NamedTuple):
    """One reference table and the names its rows must match."""

    #: Key of :data:`DOCS`.
    doc: str
    heading: str
    #: What one row names, in the singular (``"event kind"``).
    label: str
    #: The names the code has.
    names: set[str]


def _section_text(doc: str, heading: str) -> str:
    """The body of one section, up to the next heading of the same or a
    higher level (a ``##`` heading ends a ``###`` section)."""
    start = doc.index(heading) + len(heading)
    rest = doc[start:]
    level = len(heading) - len(heading.lstrip("#"))
    next_heading = re.search(rf"^#{{2,{level}}} ", rest, flags=re.MULTILINE)
    return rest[: next_heading.start()] if next_heading else rest


def _table_tokens(doc_path: Path, heading: str) -> set[str]:
    """First-column backticked tokens of the table under ``heading``."""
    doc = doc_path.read_text()
    if heading not in doc:
        raise SystemExit(f"{doc_path}: missing section {heading!r}")
    return {match.group(1)
            for line in _section_text(doc, heading).splitlines()
            if (match := _ROW_TOKEN.match(line.strip()))}


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


def plan_fields_in_code() -> set[str]:
    """Every fault-plan dataclass field, named as the doc table names it.

    Nested fields are documented as ``owner.field`` (for example
    ``disks.read_error_rate``); top-level ``FaultPlan`` fields are bare.
    """
    import dataclasses

    from repro.faults.plan import DiskFaultSpec, FaultPlan, PressureStorm, SlowWindow

    fields = {f.name for f in dataclasses.fields(FaultPlan)}
    for owner, cls in (("disks", DiskFaultSpec),
                       ("disks.slow_windows", SlowWindow),
                       ("storms", PressureStorm)):
        fields |= {f"{owner}.{f.name}" for f in dataclasses.fields(cls)}
    return fields


def tables() -> list[Table]:
    """Every reference table the lint keeps in sync with the code."""
    import dataclasses

    from repro.checkpoint.snapshot import STATE
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
    from repro.vm.page import COLUMNS

    def fields(cls) -> set[str]:
        return {f.name for f in dataclasses.fields(cls)}

    return [
        Table("observability", "## Event schema reference", "event kind",
              {kind.value for kind in TraceKind}),
        Table("observability", "## Metric reference", "metric",
              {*RUN_METRIC_NAMES, *OBS_METRIC_NAMES}),
        Table("observability", "## Span state reference", "span state",
              {state.value for state in SpanState}),
        Table("observability", "## Stall cause reference", "stall cause",
              set(STALL_CAUSES)),
        Table("robustness", "## FaultPlan schema reference",
              "fault-plan field", plan_fields_in_code()),
        Table("robustness", "## Checkpoint metric reference",
              "checkpoint metric", set(CKPT_METRIC_NAMES)),
        Table("robustness", "### Snapshot state reference",
              "snapshot state attribute", set(STATE)),
        Table("performance", "## Bench profile reference", "bench profile",
              set(BENCH_PROFILES)),
        Table("performance", "### Page column reference", "page column",
              set(COLUMNS)),
        Table("performance", "### The fast-access predicate",
              "fast-mask method", fast_mask_writers()),
        Table("serving", "## JobSpec schema reference", "job-spec field",
              fields(JobSpec)),
        Table("serving", "## Serve metric reference", "serve metric",
              set(SERVE_METRIC_NAMES)),
        Table("robustness", "### Strategy reference", "fuzz strategy",
              set(STRATEGY_NAMES)),
        Table("robustness", "### Oracle reference", "fuzz oracle",
              set(ORACLE_NAMES)),
        Table("robustness", "### Fuzz metric reference", "fuzz metric",
              set(FUZZ_METRIC_NAMES)),
        Table("observability", "### SLO rule schema reference",
              "SLO rule field", fields(SloRule)),
        Table("observability", "### SLO metric reference", "SLO metric",
              set(SLO_METRIC_NAMES)),
        Table("observability", "### Telemetry metric reference",
              "telemetry metric", set(TELEMETRY_METRIC_NAMES)),
        Table("observability", "### Farm timeline reference",
              "farm timeline name",
              {*FARM_SPAN_NAMES, *FARM_INSTANT_NAMES, *FARM_COUNTER_NAMES}),
        Table("serving", "### Ledger record reference", "ledger record kind",
              set(LEDGER_RECORD_KINDS)),
        Table("serving", "### Recovery semantics", "recovery-semantics kind",
              set(RECOVERY_SEMANTICS)),
    ]


def metric_family_problems() -> list[str]:
    """Metric names listed twice: within one ``*_METRIC_NAMES`` family of
    ``repro.obs.metrics``, or in two of them."""
    from repro.obs import metrics

    problems = []
    family_of: dict[str, str] = {}
    for family, names in vars(metrics).items():
        if not family.endswith("_METRIC_NAMES"):
            continue
        for name in names:
            if name in family_of:
                where = (family if family_of[name] == family
                         else f"{family_of[name]} and {family}")
                problems.append(f"metric {name!r} is listed twice, in {where}")
            family_of[name] = family
    return problems


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

    parser = build_parser()
    problems = []
    for doc_path in doc_paths:
        for number, argv in documented_commands(doc_path):
            errors = io.StringIO()
            try:
                with contextlib.redirect_stderr(errors), \
                        contextlib.redirect_stdout(io.StringIO()):
                    parser.parse_args(argv)
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


def check(docs: dict[str, Path] | None = None) -> list[str]:
    """Returns a list of problems; empty means docs and code agree.

    ``docs`` maps :data:`DOCS` keys to files read in their place.
    """
    from repro.serve.ledger import LEDGER_RECORD_KINDS, RECOVERY_SEMANTICS

    paths = {**DOCS, **(docs or {})}
    problems = []
    for table in tables():
        documented = _table_tokens(paths[table.doc], table.heading)
        problems += [f"{table.label} {name!r} is in code but not documented"
                     for name in sorted(table.names - documented)]
        problems += [f"{table.label} {name!r} is documented but not in code"
                     for name in sorted(documented - table.names)]
    problems += metric_family_problems()
    if set(RECOVERY_SEMANTICS) != set(LEDGER_RECORD_KINDS):
        problems.append(
            "RECOVERY_SEMANTICS keys do not match LEDGER_RECORD_KINDS")
    problems += command_problems([*paths.values(), *OTHER_COMMAND_DOCS])
    problems += inline_command_problems(INLINE_COMMAND_DOCS)
    return problems


def main() -> int:
    sys.path.insert(0, str(REPO_ROOT / "src"))
    problems = check()
    for problem in problems:
        print(f"check_docs: {problem}", file=sys.stderr)
    if problems:
        return 1
    synced = ", ".join(
        f"{len(table.names)} "
        + (table.label[:-1] + "ies" if table.label.endswith("y")
           else table.label + "s")
        for table in tables())
    commands = sum(len(documented_commands(path))
                   for path in (*DOCS.values(), *OTHER_COMMAND_DOCS))
    spans = sum(len(inline_commands(path)) for path in INLINE_COMMAND_DOCS)
    print(f"check_docs: OK ({synced} in sync; {commands} documented commands "
          f"parse; {spans} inline commands name a verb)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
