"""Bench report rows: serialization, every gate kind, trajectory diffs."""

import copy
import json
from pathlib import Path

import pytest

from repro.exec.benchreport import (
    BENCH_SCHEMA,
    FLOOR,
    IDENTITY,
    BenchReport,
    Row,
    check_regression,
    compare_reports,
    run_bench,
    run_kernel_comparison,
)
from repro.harness import QUICK

BASELINE = Path(__file__).resolve().parents[2] / "benchmarks" / "bench_baseline.json"


def make_report(cps=5000.0, identical=True) -> BenchReport:
    return BenchReport(
        date="2026-08-06",
        scale="quick",
        jobs=2,
        rows=[
            Row("phase", "fig5", "wall_s", 10.0, "s"),
            Row("phase", "fig5", "cycles_per_s", cps, "cycles/s", FLOOR),
            Row("kernel", "mem-chase/reunion", "speedup", 5.0, "x"),
            Row("kernel", "mem-chase/reunion", "identical", identical, "bool", IDENTITY),
        ],
    )


class TestSerialization:
    def test_round_trip(self):
        report = make_report()
        assert BenchReport.from_dict(report.to_dict()) == report

    def test_write_and_load(self, tmp_path):
        report = make_report()
        path = report.write(str(tmp_path))
        assert path.endswith("BENCH_2026-08-06.json")
        assert BenchReport.load(path) == report

    def test_schema_stamped(self):
        assert make_report().to_dict()["schema"] == BENCH_SCHEMA

    def test_other_schema_rejected(self, tmp_path):
        path = tmp_path / "BENCH_old.json"
        path.write_text(json.dumps({"schema": 1, "date": "2026-08-06", "phases": []}))
        with pytest.raises(ValueError, match=r"BENCH_old\.json: bench report schema 1"):
            BenchReport.load(str(path))

    def test_render_mentions_phases_and_kernels(self):
        text = make_report().render()
        assert "fig5" in text
        assert "mem-chase/reunion" in text
        assert "5.00x" in text


class TestRegressionCheck:
    def test_equal_reports_pass(self):
        assert check_regression(make_report(), make_report()) == []

    def test_small_slowdown_tolerated(self):
        current = make_report(cps=2000.0)  # 2.5x slower: within 3x
        assert check_regression(current, make_report(cps=5000.0)) == []

    def test_large_slowdown_fails(self):
        current = make_report(cps=1000.0)  # 5x slower than baseline
        problems = check_regression(current, make_report(cps=5000.0))
        assert len(problems) == 1
        assert "fig5" in problems[0]

    def test_phase_missing_from_baseline_ignored(self):
        baseline = make_report()
        baseline.rows = [row for row in baseline.rows if row.scenario != "phase"]
        assert check_regression(make_report(cps=1.0), baseline) == []

    def test_kernel_disagreement_always_fails(self):
        current = make_report(identical=False)
        problems = check_regression(current, make_report())
        assert problems == ["kernel/mem-chase/reunion: identical is false (contract broken)"]


class TestGateKinds:
    """One failing row per gate the committed baseline carries."""

    @pytest.fixture(scope="class")
    def baseline(self):
        return BenchReport.load(str(BASELINE))

    def test_baseline_passes_against_itself(self, baseline):
        assert check_regression(baseline, baseline) == []

    @pytest.mark.parametrize(
        "scenario,name,metric,value,expected",
        [
            ("phase", "table3", "cycles_per_s", 1.0, "below baseline"),
            ("kernel", "em3d/reunion", "identical", False, "is false"),
            ("telemetry", "mem-chase/reunion", "identical", False, "is false"),
            ("telemetry", "mem-chase/reunion", "overhead", 1.2, "exceeds the 1.1 budget"),
            ("protection", "full", "cycles_per_s", 1.0, "below baseline"),
            ("protection", "full", "sim_ipc", 3.0, "interval-sampled:0.5 sim_ipc"),
            ("retire-gate", "strict-check", "ops_per_s", 1.0, "below baseline"),
            ("retire-gate", "immediate", "scratch_reused", False, "is false"),
            ("cache", "json", "puts_per_s", 1.0, "below baseline"),
            ("cache", "sqlite", "gets_per_s", 1.0, "below baseline"),
        ],
    )
    def test_gate_fails(self, baseline, scenario, name, metric, value, expected):
        current = copy.deepcopy(baseline)
        (row,) = [r for r in current.rows if r.key == (scenario, name, metric)]
        row.value = value
        problems = check_regression(current, baseline)
        assert len(problems) == 1
        assert expected in problems[0]
        assert name in problems[0]

    def test_min_gate_on_a_synthetic_row(self):
        # No committed scenario carries a ``min:B`` gate; the kind stays
        # enforced for the rows that will.
        report = make_report()
        report.rows.append(Row("phase", "fig5", "samples", 0, "count", "min:1"))
        problems = check_regression(report, make_report())
        assert problems == ["phase/fig5: samples 0.000 is below the 1 floor"]
        report.rows[-1].value = 1
        assert check_regression(report, make_report()) == []

    def test_unknown_gate_rejected(self):
        report = make_report()
        report.rows[0].gate = "flor"
        with pytest.raises(ValueError, match="unknown gate 'flor'"):
            check_regression(report, report)

    def test_report_only_rows_never_fail(self, baseline):
        current = copy.deepcopy(baseline)
        for row in current.rows:
            if row.gate is None:
                row.value = 0
        assert check_regression(current, baseline) == []


class TestCompareReports:
    def test_rates_and_ratios_diffed_row_by_row(self):
        old = make_report(cps=5000.0)
        new = make_report(cps=10_000.0)
        new.rows.append(Row("phase", "sc", "cycles_per_s", 1.0, "cycles/s", FLOOR))
        text = compare_reports(old, new)
        assert "phase/fig5" in text and "2.00x" in text
        assert "kernel/mem-chase/reunion" in text and "1.00x" in text
        assert "phase/sc" not in text  # only in one report
        assert "wall_s" not in text and "identical" not in text
        assert "WARNING" not in text

    def test_mismatched_settings_flagged(self):
        new = make_report()
        new.jobs = 1
        assert "WARNING" in compare_reports(make_report(), new)


class TestRunBench:
    def test_unknown_phase_rejected(self):
        with pytest.raises(ValueError):
            run_bench(scale_name="quick", only=["fig99"])

    def test_only_picks_registry_entries(self):
        report = run_bench(quick=True, only=["retire-gate"])
        assert {row.scenario for row in report.rows} == {"retire-gate"}
        assert list(report.profile) == ["retire-gate"]
        assert check_regression(report, report) == []

    def test_kernel_comparison_bit_identical(self):
        rows = run_kernel_comparison(QUICK)
        by_metric = {}
        for row in rows:
            by_metric.setdefault(row.metric, []).append(row.value)
        assert by_metric["identical"]  # at least one memory-bound artifact
        assert all(by_metric["identical"])
        assert all(wall > 0 for wall in by_metric["naive_wall_s"] + by_metric["event_wall_s"])
        # The tentpole claim: cycle skipping wins on at least one
        # memory-latency-dominated artifact.
        assert max(by_metric["speedup"]) >= 2.0
