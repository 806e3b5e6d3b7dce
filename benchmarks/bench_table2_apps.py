"""Table 2: description of the applications and their data sets."""

from __future__ import annotations

from conftest import CANONICAL_PLATFORM, run_once

from repro.apps.registry import ALL_APPS
from repro.harness.experiment import default_data_pages
from repro.harness.report import render_table


def test_table2_application_descriptions(benchmark, report):
    def build_rows():
        rows = []
        for spec in ALL_APPS:
            pages = default_data_pages(CANONICAL_PLATFORM)
            program = spec.make(pages)
            data_kb = program.total_data_bytes() // 1024
            rows.append([
                spec.name,
                spec.nas_name,
                f"{data_kb} KB",
                f"{data_kb * 1024 / CANONICAL_PLATFORM.available_bytes:.1f}x mem",
                spec.pattern,
            ])
        return rows

    rows = run_once(benchmark, build_rows)
    report("table2_apps", render_table(
        ["app", "NAS", "data set", "vs memory", "dominant access pattern"],
        rows,
        title="Table 2: applications and out-of-core data sets",
    ))
    assert len(rows) == 8
    # Every canonical data set must actually be out-of-core.
    assert all(float(r[3].split("x")[0]) > 1.0 for r in rows)
