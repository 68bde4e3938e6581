"""The window engine, tested once across the views that run on it."""

import pytest

from repro.obs.windows import (
    GaugeSampler,
    TenantRange,
    TenantSeriesAggregator,
    TimeSeriesAggregator,
)

from ..conftest import make_machine
from .conftest import make_tenant_machine

# Each view by its ObsManager attribute.
VIEWS = ("sampler", "timeseries", "tenant_series")
WINDOWED = ("timeseries", "tenant_series")


def idle_view(kind, machine, window_cycles=1000.0):
    """One view on an idle machine, where only its own process runs."""
    if kind == "sampler":
        return GaugeSampler(machine, window_cycles)
    if kind == "timeseries":
        return TimeSeriesAggregator(machine, window_cycles)
    tenants = [TenantRange("a", 0, 64), TenantRange("b", 64, 128)]
    return TenantSeriesAggregator(machine, tenants, window_cycles)


@pytest.fixture(scope="module")
def corun(tmp_path_factory):
    """A two-tenant Nomad co-run with every view on and finished, plus
    the rows each view's ``on_window`` subscriber saw."""
    m, workloads, ranges = make_tenant_machine(tmp_path_factory.mktemp("corun"))
    m.obs.enable(sample_period=10_000.0)
    m.obs.enable_timeseries(window_cycles=20_000.0)
    m.obs.enable_tenant_series(ranges, window_cycles=20_000.0)
    seen = {kind: [] for kind in VIEWS}
    for kind in VIEWS:
        getattr(m.obs, kind).on_window(seen[kind].append)
    m.run_workloads(workloads)
    for kind in VIEWS:
        getattr(m.obs, kind).finish()
    return m, seen


@pytest.mark.parametrize("kind", VIEWS)
def test_stop_halts_the_view(kind):
    m = make_machine()
    view = idle_view(kind, m).start()
    m.engine.run(until=1500.0)
    view.stop()
    before = len(view.as_rows())
    assert before
    m.engine.run(until=5000.0)
    assert len(view.as_rows()) == before


@pytest.mark.parametrize("kind", WINDOWED)
def test_windows_tile_the_run(kind, corun):
    m, _seen = corun
    series = {}
    for row in getattr(m.obs, kind).as_rows():
        series.setdefault(row.get("tenant"), []).append(row)
    for rows in series.values():
        assert len(rows) >= 2
        assert rows[0]["t_start"] == 0.0
        for prev, cur in zip(rows, rows[1:]):
            assert cur["t_start"] == prev["t_end"]
            assert cur["t_end"] > cur["t_start"]
        # The final (partial) window reaches the end of the run.
        assert rows[-1]["t_end"] == m.engine.now


@pytest.mark.parametrize("kind", WINDOWED)
def test_finish_closes_the_partial_window_once(kind):
    m = make_machine()
    view = idle_view(kind, m).start()
    m.engine.run(until=2500.0)
    closed = view.as_rows()  # the windows ending at 1000 and 2000
    view.finish()
    view.finish()
    rows = view.as_rows()
    assert rows[: len(closed)] == closed
    partial = rows[len(closed):]
    assert len(partial) == len(closed) // 2
    assert {(r["t_start"], r["t_end"]) for r in partial} == {(2000.0, 2500.0)}


def test_gauge_view_has_no_partial_window():
    m = make_machine()
    view = idle_view("sampler", m).start()
    m.engine.run(until=2500.0)
    samples = view.as_rows()
    view.finish()
    assert view.as_rows() == samples


@pytest.mark.parametrize("kind", VIEWS)
def test_on_window_sees_every_row(kind, corun):
    m, seen = corun
    assert seen[kind]
    assert seen[kind] == getattr(m.obs, kind).as_rows()
