"""SimOptions resolution and how CMPSystem takes its options."""

import warnings

import pytest

from repro.isa import assemble
from repro.sim.cmp import CMPSystem
from repro.sim.config import Mode
from repro.sim.options import SimOptions, TRACE_LEVELS
from tests.core.helpers import SMALL

PROG = """
    movi r1, 3
    movi r2, 4
    add r3, r1, r2
    halt
"""

CONFIG = SMALL.with_redundancy(mode=Mode.NONREDUNDANT)


def _system(**kwargs) -> CMPSystem:
    return CMPSystem(CONFIG, [assemble(PROG)], **kwargs)


class TestValidation:
    def test_defaults_are_valid(self):
        options = SimOptions()
        assert options.kernel == "event"
        assert options.trace == "off"
        assert not options.telemetry_armed

    @pytest.mark.parametrize("level", TRACE_LEVELS[1:])
    def test_armed_levels(self, level):
        assert SimOptions(trace=level).telemetry_armed

    def test_rejects_unknown_values(self):
        with pytest.raises(ValueError, match="kernel"):
            SimOptions(kernel="quantum")
        with pytest.raises(ValueError, match="trace"):
            SimOptions(trace="verbose")
        with pytest.raises(ValueError, match="capacity"):
            SimOptions(trace_capacity=0)
        with pytest.raises(ValueError, match="max_cycles"):
            SimOptions(max_cycles=0)

    def test_replace_revalidates(self):
        with pytest.raises(ValueError):
            SimOptions().replace(kernel="bogus")


class TestFromEnv:
    def test_env_beats_defaults(self):
        env = {"REPRO_KERNEL": "naive", "REPRO_TRACE": "events"}
        options = SimOptions.from_env(env)
        assert (options.kernel, options.trace) == ("naive", "events")

    def test_explicit_overrides_beat_env(self):
        env = {"REPRO_KERNEL": "naive", "REPRO_TRACE": "events"}
        options = SimOptions.from_env(env, kernel="event", trace="full")
        assert options.kernel == "event"
        assert options.trace == "full"

    def test_none_overrides_fall_through(self):
        # Argparse results pass straight in: unset flags arrive as None.
        options = SimOptions.from_env({"REPRO_KERNEL": "naive"}, kernel=None)
        assert options.kernel == "naive"

    def test_capacity_parsed_from_env(self):
        assert SimOptions.from_env({"REPRO_TRACE_CAPACITY": "128"}).trace_capacity == 128
        assert SimOptions.from_env({"REPRO_TRACE_CAPACITY": ""}).trace_capacity == 65_536

    def test_empty_env_gives_defaults(self):
        assert SimOptions.from_env({}) == SimOptions()


class TestCMPSystemOptions:
    def test_options_is_the_primary_path(self):
        system = _system(options=SimOptions(kernel="naive"))
        assert system.kernel == "naive"
        assert system.options.trace == "off"
        assert system.obs is None

    def test_options_path_never_warns(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            _system(options=SimOptions())
        assert not [w for w in caught if issubclass(w.category, DeprecationWarning)]

    def test_options_and_legacy_kwargs_conflict(self):
        # The per-knob kwargs are gone: the kernel travels only inside
        # SimOptions, and there is no execution knob at all.
        with pytest.raises(TypeError, match="kernel"):
            _system(options=SimOptions(), kernel="naive")
        with pytest.raises(TypeError, match="execution"):
            _system(execution="dual")

    def test_max_cycles_threads_into_run_until_idle(self):
        system = _system(options=SimOptions(max_cycles=2))
        with pytest.raises(RuntimeError, match="2 cycles"):
            system.run_until_idle()

    def test_explicit_max_cycles_still_overrides(self):
        system = _system(options=SimOptions(max_cycles=2))
        assert system.run_until_idle(max_cycles=100_000) > 0


class TestLegacyShim:
    def test_legacy_env_vars_still_work(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "naive")
        system = _system()
        assert system.kernel == "naive"

    def test_plain_construction_does_not_warn(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            _system()
        assert not [w for w in caught if issubclass(w.category, DeprecationWarning)]
