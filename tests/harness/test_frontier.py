"""Frontier sweep: ordering checks, report shape, and a tiny end-to-end run."""

import json

import pytest

from repro.harness.frontier import FrontierPoint, FrontierResult, run_frontier
from repro.harness.runs import QUICK, Runner, Scale

TINY = Scale("tiny", warmup=150, measure=300, seeds=(0,), config=QUICK.config)


def _point(policy, coverage, workload="compute-kernel", trials=20, **kwargs):
    defaults = dict(
        ipc=1.0,
        coverage_interval=(max(coverage - 0.1, 0.0), min(coverage + 0.1, 1.0)),
        coverage_trials=trials,
        sdc=2,
        sdc_unchecked=1,
        injections=48,
    )
    defaults.update(kwargs)
    return FrontierPoint(policy=policy, workload=workload, coverage=coverage, **defaults)


def _result(points):
    return FrontierResult(scale_name="tiny", seed=0, points=tuple(points))


class TestCheckOrdering:
    def test_holds_on_a_monotone_ladder(self):
        result = _result(
            [
                _point("full", 1.0),
                _point("little-mute:2", 1.0),
                _point("interval-sampled:0.5", 0.6),
                _point("unprotected", 0.0),
            ]
        )
        assert result.check_ordering() == []

    def test_flags_sampled_above_full(self):
        result = _result(
            [_point("full", 0.5), _point("interval-sampled:0.5", 0.8)]
        )
        problems = result.check_ordering()
        assert len(problems) == 1
        assert "full" in problems[0] and "interval-sampled:0.5" in problems[0]

    def test_flags_unprotected_above_sampled(self):
        result = _result(
            [
                _point("full", 1.0),
                _point("interval-sampled:0.5", 0.2),
                _point("unprotected", 0.4),
            ]
        )
        assert len(result.check_ordering()) == 1

    def test_flags_missing_strict_dominance(self):
        # Equality is a violation: unprotected has no detection
        # mechanism, so full matching it means the sweep saw nothing.
        result = _result([_point("full", 0.0), _point("unprotected", 0.0)])
        problems = result.check_ordering()
        assert any("strictly dominate" in problem for problem in problems)

    def test_dominance_needs_consequential_trials(self):
        # With zero coverage trials there is nothing to dominate.
        result = _result(
            [
                _point("full", 0.0, trials=0),
                _point("unprotected", 0.0, trials=0),
            ]
        )
        assert result.check_ordering() == []

    def test_workloads_checked_independently(self):
        result = _result(
            [
                _point("full", 1.0, workload="a"),
                _point("unprotected", 0.0, workload="a"),
                _point("full", 0.3, workload="b"),
                _point("unprotected", 0.7, workload="b"),
            ]
        )
        problems = result.check_ordering()
        assert len(problems) == 2  # ladder + dominance, both on b
        assert all(problem.startswith("b:") for problem in problems)

    def test_other_policies_stay_off_the_ladder(self):
        # dynamic / little-mute coverage is workload-dependent; only the
        # structural full >= sampled >= unprotected chain is asserted.
        result = _result(
            [
                _point("full", 1.0),
                _point("dynamic:8,2,16", 0.1),
                _point("little-mute:2", 0.9),
                _point("unprotected", 0.0),
            ]
        )
        assert result.check_ordering() == []


class TestReportShape:
    def test_point_lookup(self):
        result = _result([_point("full", 1.0)])
        assert result.point("full", "compute-kernel").coverage == 1.0
        with pytest.raises(KeyError):
            result.point("full", "pointer-chase")

    def test_payload_schema(self):
        result = _result([_point("full", 1.0), _point("unprotected", 0.0)])
        payload = result.payload()
        assert payload["schema"] == 1
        assert payload["kind"] == "frontier"
        assert len(payload["points"]) == 2
        point = payload["points"][0]
        assert point["coverage"]["trials"] == 20
        assert point["sdc"] == {"total": 2, "unchecked": 1}

    def test_write_round_trips(self, tmp_path):
        result = _result([_point("full", 1.0)])
        path = tmp_path / "frontier.json"
        result.write(path)
        assert json.loads(path.read_text()) == result.payload()

    def test_render_mentions_every_policy(self):
        result = _result(
            [_point("full", 1.0), _point("interval-sampled:0.5", 0.6)]
        )
        rendered = result.render()
        assert "full" in rendered and "interval-sampled:0.5" in rendered
        assert "Protection frontier" in rendered


class TestTinySweep:
    def test_end_to_end(self, tmp_path):
        result = run_frontier(
            scale=TINY,
            policies=("full", "unprotected"),
            workload_names=("compute-kernel",),
            injections=8,
            runner=Runner(TINY),
            cache_root=str(tmp_path),
        )
        assert len(result.points) == 2
        full = result.point("full", "compute-kernel")
        bare = result.point("unprotected", "compute-kernel")
        assert full.ipc > 0 and bare.ipc > 0
        # The structural frontier: full detects, unprotected cannot.
        assert bare.coverage == 0.0
        assert result.check_ordering() == []
        result.write(tmp_path / "tiny.json")
        assert json.loads((tmp_path / "tiny.json").read_text())["scale"] == "tiny"
