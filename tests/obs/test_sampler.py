"""The gauge-sample view of the window engine."""

import pytest

from repro.obs.windows import GaugeSampler

from ..conftest import make_machine


def test_period_must_be_positive():
    with pytest.raises(ValueError):
        GaugeSampler(make_machine(), 0.0)


def test_sample_skips_policy_gauges_without_a_policy():
    m = make_machine()  # no policy installed
    sampler = GaugeSampler(m).start()
    m.engine.run(until=1.0)  # the time-zero sample only
    assert sampler.series("nomad.mpq_depth") == []
    assert sampler.series("nomad.shadow_pages") == []
    assert len(sampler.series("mem.fast_free_pages")) == 1
    assert sampler.latest("mem.fast_free_pages") == float(m.tiers.fast.nr_free)
    assert sampler.latest("nomad.mpq_depth") is None


def test_periodic_sampling_tracks_engine_time():
    m = make_machine()
    sampler = GaugeSampler(m, 1000.0).start()
    m.engine.run(until=3500.0)
    times = [ts for ts, _ in sampler.series("mem.fast_free_pages")]
    assert times == [0.0, 1000.0, 2000.0, 3000.0]


def test_as_rows_joins_on_timestamp():
    m = make_machine()
    sampler = GaugeSampler(m, 1000.0).start()
    m.engine.run(until=2500.0)
    rows = sampler.as_rows()
    assert [row["time_cycles"] for row in rows] == [0.0, 1000.0, 2000.0]
    assert all("mem.fast_free_pages" in row for row in rows)
    assert all("nomad.mpq_depth" not in row for row in rows)  # no policy


def test_instrumented_run_collects_gauge_time_series(traced_run):
    """Acceptance: >= 2 samples each for MPQ depth and shadow pages."""
    machine, _report = traced_run
    sampler = machine.obs.sampler
    assert len(sampler.series("nomad.mpq_depth")) >= 2
    assert len(sampler.series("nomad.shadow_pages")) >= 2
    # The run actually exercised the queues (not an all-zero series).
    assert max(v for _, v in sampler.series("nomad.mpq_depth")) > 0
    assert max(v for _, v in sampler.series("nomad.shadow_pages")) > 0
