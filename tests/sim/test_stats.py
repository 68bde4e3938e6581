"""Stats: counters, CPU accounting, windows, phase reports."""

import pytest

from repro.sim.stats import Stats, WindowSample


def make_window(start, end, reads=10, writes=0):
    return WindowSample(
        start=start,
        end=end,
        reads=reads,
        writes=writes,
        read_cycles=(end - start) * reads / max(1, reads + writes),
        write_cycles=(end - start) * writes / max(1, reads + writes),
    )


def test_bump_and_get():
    stats = Stats()
    stats.bump("x")
    stats.bump("x", 2.5)
    assert stats.get("x") == 3.5
    assert stats.get("missing") == 0.0


def test_account_accumulates_per_cpu_and_category():
    stats = Stats()
    stats.account("cpu0", "user", 100)
    stats.account("cpu0", "user", 50)
    stats.account("cpu0", "fault", 10)
    stats.account("cpu1", "user", 1)
    assert stats.breakdown("cpu0") == {"user": 150, "fault": 10}
    assert stats.breakdown("cpu1") == {"user": 1}


def test_account_rejects_negative():
    stats = Stats()
    with pytest.raises(ValueError):
        stats.account("cpu0", "user", -1)


def test_bandwidth_math():
    stats = Stats(freq_ghz=1.0)  # 1 cycle == 1 ns
    stats.record_window(make_window(0, 1000, reads=100))
    report = stats.phase_report("all", 0.0, 1.0)
    # 100 accesses * 64 B in 1000 ns = 6.4 GB/s
    assert report.bandwidth_gbps == pytest.approx(6.4)
    assert report.avg_access_cycles == pytest.approx(10.0)


def test_phase_report_slices_by_window_index():
    stats = Stats(freq_ghz=1.0)
    for i in range(10):
        stats.record_window(make_window(i * 100, (i + 1) * 100, reads=10))
    first = stats.phase_report("first", 0.0, 0.2)
    last = stats.phase_report("last", 0.8, 1.0)
    assert first.accesses == 20
    assert last.accesses == 20
    assert first.cycles == pytest.approx(200.0)
    assert last.cycles == pytest.approx(200.0)


def test_phase_report_empty():
    report = Stats().phase_report("none", 0.0, 1.0)
    assert report.accesses == 0
    assert report.bandwidth_gbps == 0.0


def test_phase_report_single_window_any_slice():
    stats = Stats(freq_ghz=1.0)
    stats.record_window(make_window(0, 100, reads=10))
    for lo, hi in ((0.0, 1.0), (0.0, 0.5), (0.5, 1.0), (0.5, 0.5)):
        report = stats.phase_report("w", lo, hi)
        assert report.accesses == 10
        assert report.cycles == pytest.approx(100.0)


def test_phase_report_zero_width_slice_covers_one_window():
    stats = Stats(freq_ghz=1.0)
    for i in range(4):
        stats.record_window(make_window(i * 100, (i + 1) * 100, reads=10 + i))
    report = stats.phase_report("mid", 0.5, 0.5)
    assert report.accesses == 12  # exactly the window at index 2
    assert report.cycles == pytest.approx(100.0)


def test_phase_report_final_window_is_included():
    # A [0, 0.5) / [0.5, 1.0] split partitions an odd window count with
    # nothing dropped at the tail.
    stats = Stats(freq_ghz=1.0)
    for i in range(5):
        stats.record_window(make_window(i * 100, (i + 1) * 100, reads=10))
    first = stats.phase_report("first", 0.0, 0.5)
    second = stats.phase_report("second", 0.5, 1.0)
    assert first.accesses + second.accesses == 50
    assert second.cycles == pytest.approx(300.0)  # windows 2, 3, 4


def test_phase_report_empty_with_counters_lands_in_counters_field():
    # Regression: the empty-window path used to pass ``counters``
    # positionally, so it landed in ``p50_access_cycles``.
    counters = {"migrate.promotions": 3.0}
    report = Stats().phase_report("none", 0.0, 1.0, counters)
    assert report.counters == counters
    assert report.p50_access_cycles == 0.0
    assert report.p95_access_cycles == 0.0
    assert report.p99_access_cycles == 0.0
    assert report.avg_access_cycles == 0.0
    assert report.reads == 0
    assert report.writes == 0


def test_phase_report_read_write_split():
    stats = Stats(freq_ghz=1.0)
    stats.record_window(make_window(0, 1000, reads=50, writes=50))
    report = stats.phase_report("rw", 0.0, 1.0)
    assert report.reads == 50
    assert report.writes == 50
    assert report.read_bandwidth_gbps > 0
    assert report.write_bandwidth_gbps > 0


def test_window_marks_track_counters():
    stats = Stats()
    stats.bump("migrate.promotions", 5)
    stats.record_window(make_window(0, 100))
    stats.bump("migrate.promotions", 7)
    stats.record_window(make_window(100, 200))
    assert stats.phase_counter_delta("migrate.promotions", 0.0, 0.5) == 5
    assert stats.phase_counter_delta("migrate.promotions", 0.5, 1.0) == 7


def test_phase_counter_delta_no_windows():
    assert Stats().phase_counter_delta("migrate.promotions", 0.0, 1.0) == 0.0


def test_phase_counter_delta_single_window_run():
    # One window: every slice degenerates to that window's whole delta.
    stats = Stats()
    stats.bump("migrate.promotions", 4)
    stats.record_window(make_window(0, 100))
    assert stats.phase_counter_delta("migrate.promotions", 0.0, 1.0) == 4
    assert stats.phase_counter_delta("migrate.promotions", 0.0, 0.5) == 4
    assert stats.phase_counter_delta("migrate.promotions", 0.9, 1.0) == 4


def test_phase_counter_delta_zero_width_slice_covers_one_window():
    # start_frac == end_frac still covers at least one window (hi is
    # clamped to lo + 1), so a degenerate slice is never empty.
    stats = Stats()
    for i in range(4):
        stats.bump("migrate.promotions", 1)
        stats.record_window(make_window(i * 100, (i + 1) * 100))
    assert stats.phase_counter_delta("migrate.promotions", 0.5, 0.5) == 1
    assert stats.phase_counter_delta("migrate.promotions", 0.0, 0.0) == 1


def test_phase_counter_delta_final_window_is_included():
    # end_frac == 1.0 must include the very last mark; the partition
    # [0, 0.5) + [0.5, 1.0] therefore sums to the full counter.
    stats = Stats()
    for i in range(5):  # odd count: the split index rounds down
        stats.bump("migrate.promotions", 2 ** i)
        stats.record_window(make_window(i * 100, (i + 1) * 100))
    total = stats.phase_counter_delta("migrate.promotions", 0.0, 1.0)
    assert total == 2 ** 5 - 1
    first = stats.phase_counter_delta("migrate.promotions", 0.0, 0.5)
    second = stats.phase_counter_delta("migrate.promotions", 0.5, 1.0)
    assert first + second == total


def test_phase_counter_delta_end_frac_past_one_clamps():
    stats = Stats()
    stats.bump("migrate.promotions", 3)
    stats.record_window(make_window(0, 100))
    assert stats.phase_counter_delta("migrate.promotions", 0.0, 2.0) == 3


def test_snapshot_is_a_copy():
    stats = Stats()
    stats.bump("a")
    snap = stats.snapshot()
    stats.bump("a")
    assert snap["a"] == 1
    assert stats.get("a") == 2


def test_window_sample_properties():
    w = make_window(0, 100, reads=3, writes=7)
    assert w.accesses == 10
    assert w.cycles == 100
