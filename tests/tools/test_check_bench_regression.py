"""Calibration-rescaled bench regression gates."""

from tests.tools.check_bench_regression import check


def _results(calibration=20.0, fault_us=300.0, speedup=10.0,
             events_per_message=5.0):
    return {
        "calibration_us": calibration,
        "diff": {kind: {"speedup": speedup} for kind in
                 ("sparse", "dense", "clean", "fragmented")},
        "span_access": {"span_read_speedup": speedup,
                        "span_write_speedup": speedup,
                        "read_array_speedup": speedup},
        "fault_fetch": {"host_us_per_fault": fault_us},
        "lock_handoff": {"host_us_per_acquire": fault_us},
        "merge": {"merge_8diffs_us": fault_us / 10},
        "event_counts": {
            kind: {"engine_events_per_message": events_per_message}
            for kind in ("deposit", "fetch")},
    }


def test_identical_runs_pass():
    assert check(_results(), _results(), tolerance=2.0) == []


def test_slow_machine_does_not_false_fail():
    # 3x-slower machine: host times trip a raw 2x band, but the
    # calibration moved with them, so the rescaled gates pass.
    baseline = _results(calibration=20.0, fault_us=300.0)
    fresh = _results(calibration=60.0, fault_us=900.0)
    assert check(baseline, fresh, tolerance=2.0) == []


def test_real_regression_still_fails_on_slow_machine():
    # Same 3x-slower machine, but the fault path also regressed 8x
    # beyond machine speed: the rescaled band still catches it.
    baseline = _results(calibration=20.0, fault_us=300.0)
    fresh = _results(calibration=60.0, fault_us=300.0 * 3 * 8)
    failures = check(baseline, fresh, tolerance=2.0)
    assert any("host_us_per_fault" in f for f in failures)


def test_ratio_gates_are_machine_independent():
    # Speedup ratios must not be forgiven by a slow calibration.
    baseline = _results(speedup=10.0)
    fresh = _results(calibration=60.0, speedup=2.0)
    failures = check(baseline, fresh, tolerance=2.0)
    assert any("speedup" in f for f in failures)


def test_missing_calibration_falls_back_to_raw_compare():
    baseline = _results()
    del baseline["calibration_us"]
    fresh = _results(fault_us=900.0)
    failures = check(baseline, fresh, tolerance=2.0)
    assert any("host_us_per_fault" in f for f in failures)


def test_metric_missing_from_baseline_is_skipped():
    baseline = _results()
    del baseline["span_access"]
    assert check(baseline, _results(), tolerance=2.0) == []


def test_event_count_gate_fails_on_any_increase():
    # Work counts are exact: a slow machine or a loose tolerance must
    # not forgive one more event per message, and fewer events pass.
    baseline = _results(events_per_message=5.0)
    fresh = _results(calibration=60.0, events_per_message=5.0625)
    failures = check(baseline, fresh, tolerance=2.0)
    assert len(failures) == 2
    assert all("engine_events_per_message" in f for f in failures)
    assert check(baseline, _results(events_per_message=4.5),
                 tolerance=2.0) == []
