"""Tests for the experiment harness configuration layer."""

import pytest

from repro.config import ClusterConfig
from repro.errors import ConfigError
from repro.harness.experiments import (
    APP_ORDER,
    evaluation_config,
    run_app,
    workload_factories,
)


def test_all_paper_apps_present_at_every_scale():
    for scale in ("test", "bench", "large"):
        factories = workload_factories(scale)
        assert set(factories) == set(APP_ORDER)
        for name, factory in factories.items():
            workload = factory()
            assert workload.name == name


def test_unknown_scale_rejected():
    with pytest.raises(ValueError):
        workload_factories("huge")


def test_evaluation_config_matches_paper_testbed():
    config = evaluation_config("ft", threads_per_node=2)
    assert config.num_nodes == 8
    assert config.threads_per_node == 2
    assert config.protocol.is_ft
    assert config.protocol.lock_algorithm == "polling"


def test_evaluation_config_protocol_overrides():
    config = evaluation_config("ft", checkpointing=False,
                               batch_diffs=True)
    assert not config.protocol.checkpointing
    assert config.protocol.batch_diffs


def test_run_app_returns_result(capsys):
    result = run_app("Volrend", "base", scale="test")
    assert result.elapsed_us > 0
    assert result.recoveries == 0


def test_run_app_deterministic_per_seed():
    a = run_app("Volrend", "ft", scale="test", seed=9)
    b = run_app("Volrend", "ft", scale="test", seed=9)
    assert a.elapsed_us == b.elapsed_us
    c = run_app("Volrend", "ft", scale="test", seed=10)
    assert c.elapsed_us != a.elapsed_us


def test_config_validation_still_guards():
    with pytest.raises(ConfigError):
        ClusterConfig(num_nodes=0)
    with pytest.raises(ConfigError):
        ClusterConfig(shared_pages=0)


def test_with_protocol_copies():
    config = evaluation_config("base")
    ft = config.with_protocol("ft")
    assert not config.protocol.is_ft
    assert ft.protocol.is_ft
    assert ft.num_nodes == config.num_nodes


def test_capped_run_reports_uncapped_elapsed_time():
    """A ``max_sim_us`` cap the run never reaches leaves the result
    alone: the clock stops at the last event, not at the cap."""
    from repro.harness.runner import SvmRuntime

    def elapsed(cap):
        config = evaluation_config("ft", 1, seed=2003)
        runtime = SvmRuntime(config, workload_factories("test")["FFT"]())
        return runtime.run(max_sim_us=cap).elapsed_us

    uncapped = elapsed(None)
    assert uncapped < 100_000.0
    assert elapsed(2_000_000.0) == uncapped
