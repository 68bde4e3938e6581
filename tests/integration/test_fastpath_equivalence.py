"""Two-speed engine equivalence: fast path on == off, bit for bit.

The batched fast path (:mod:`repro.sim.fastpath`) promises that enabling
it changes *nothing* simulated -- cycles, counters, PTE state, TLB
masks, window aggregates -- only wall-clock speed. These tests pin that
promise from three angles: hypothesis-driven random traces across every
policy, a deterministic streaming run that must engage the vectorized
batch commit, and the THP arm where huge-folio mappings flow through the
validation masks. Two more pin its lookahead rules: no validation right
after a faulting chunk, and a two-chunk window while the engine refuses
inline advances.

The slow path itself commits a clean run in one of two ways, access by
access for runs of at most ``SCALAR_RUN_MAX`` accesses and vectorized
for longer ones. The last arm pins those two against each other.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Machine, MachineConfig
from repro.bench.sweep import counter_digest
from repro.debug import DebugConfig
from repro.mmu import access as access_mod
from repro.mmu.pte import PTE_HUGE
from repro.policies import make_policy
from repro.sim.platform import Platform
from repro.workloads.base import ChunkStream, Workload

from ..conftest import tiny_platform
from .test_properties import RandomTraceWorkload, trace_strategy


def _run(policy, workload, fastpath, chunk, **config):
    """One full machine run; returns every simulated quantity we pin."""
    cfg = MachineConfig(chunk_size=chunk, fastpath_enabled=fastpath, **config)
    machine = Machine(tiny_platform(fast_gb=1.0, slow_gb=2.0), cfg)
    machine.set_policy(make_policy(policy, machine))
    report = machine.run_workload(workload)
    return _snapshot(machine, report, workload.space)


def _run_trace(
    policy, nr_pages, fast_fraction, trace, fastpath, chunk=32, **config
):
    workload = RandomTraceWorkload(nr_pages, fast_fraction, trace)
    return _run(policy, workload, fastpath, chunk, **config)


def _snapshot(machine, report, space):
    """Every simulated quantity we pin, read off a finished run."""
    pt = space.page_table
    tlb = machine.tlb_directory
    return {
        "cycles": report.cycles,
        "digest": counter_digest(report.counters),
        "counters": dict(report.counters),
        "avg_access_cycles": report.overall.avg_access_cycles,
        "bandwidth_gbps": report.overall.bandwidth_gbps,
        "flags": pt.flags.copy(),
        "gpfn": pt.gpfn.copy(),
        "last_access": pt.last_access.copy(),
        "last_write": pt.last_write.copy(),
        # Per CPU, the workload's vpns whose translation it may cache
        # (ASIDs count up across machines, so key by CPU alone). The
        # set, not the mask: the two paths may size masks differently.
        "tlb": {
            cpu: np.flatnonzero(mask).tolist()
            for cpu, mask in tlb._masks.get(space.asid, {}).items()
            if mask.any()
        },
        "window_hists": np.array(
            [w.latency_hist for w in machine.stats.windows]
        ),
        "windows": [
            (w.start, w.end, w.reads, w.writes) for w in machine.stats.windows
        ],
        "window_marks": list(machine.stats.window_marks),
        "cpu_time": {
            cpu: dict(cats) for cpu, cats in machine.stats.cpu_time.items()
        },
    }


def _assert_identical(fast, slow):
    assert fast["cycles"] == slow["cycles"]
    assert fast["digest"] == slow["digest"]
    assert fast["counters"] == slow["counters"]
    assert fast["avg_access_cycles"] == slow["avg_access_cycles"]
    assert fast["bandwidth_gbps"] == slow["bandwidth_gbps"]
    for key in ("flags", "gpfn", "last_access", "last_write"):
        np.testing.assert_array_equal(fast[key], slow[key], err_msg=key)
    assert fast["tlb"] == slow["tlb"]
    assert fast["windows"] == slow["windows"]
    assert fast["window_marks"] == slow["window_marks"]
    assert fast["cpu_time"] == slow["cpu_time"]
    np.testing.assert_array_equal(fast["window_hists"], slow["window_hists"])


@settings(max_examples=15, deadline=None)
@given(
    policy=st.sampled_from(["no-migration", "tpp", "memtis-default", "nomad"]),
    nr_pages=st.integers(min_value=4, max_value=500),
    fast_fraction=st.floats(min_value=0.0, max_value=1.0),
    trace=trace_strategy,
    chunk=st.sampled_from([8, 32, 100]),
)
def test_fastpath_matches_slow_path(policy, nr_pages, fast_fraction, trace, chunk):
    """Property: any trace, any policy, any chunking -- identical runs."""
    fast = _run_trace(policy, nr_pages, fast_fraction, trace, True, chunk)
    slow = _run_trace(policy, nr_pages, fast_fraction, trace, False, chunk)
    _assert_identical(fast, slow)


@pytest.fixture
def executors(monkeypatch):
    """Every FastPathExecutor constructed during the test."""
    from repro.sim import fastpath as fp

    captured = []
    orig_init = fp.FastPathExecutor.__init__

    def spy(self, machine):
        orig_init(self, machine)
        captured.append(self)

    monkeypatch.setattr(fp.FastPathExecutor, "__init__", spy)
    return captured


def _assert_batches_engage_and_match(executors, fast_fraction):
    # Sequential sweeps with every third access a store: zero runtime
    # faults after populate, uniform chunks -- the vectorized cell.
    trace = [(i % 64, i % 3 == 0) for i in range(4000)]
    fast = _run_trace("no-migration", 64, fast_fraction, trace, True, chunk=50)
    assert executors, "fast path never constructed despite fastpath_enabled"
    assert sum(e.vector_batches for e in executors) > 0, (
        "vectorized batch commit never engaged on a fault-free stream"
    )
    assert sum(e.slow_chunks for e in executors) == 0
    slow = _run_trace("no-migration", 64, fast_fraction, trace, False, chunk=50)
    _assert_identical(fast, slow)


def test_vectorized_batch_commit_engages_and_matches(executors):
    """A fault-free streaming run must take the vectorized batch path --
    guarding against silent de-vectorization -- and still match the slow
    path exactly."""
    _assert_batches_engage_and_match(executors, 1.0)


def test_vectorized_batch_commit_matches_across_tiers(executors, monkeypatch):
    """The same stream over a working set split between the tiers, with
    stores dearer than loads: the batch prices each (tier, store) pair
    as the slow path does."""
    cost_model = Platform.cost_model
    monkeypatch.setattr(
        Platform,
        "cost_model",
        lambda self: dataclasses.replace(
            cost_model(self), write_latency=(400.0, 1200.0)
        ),
    )
    _assert_batches_engage_and_match(executors, 0.5)


class FirstTouchWorkload(Workload):
    """Each chunk opens on a page no earlier chunk touched, so every
    chunk takes a demand-paging fault."""

    name = "first-touch"

    def __init__(self, nr_chunks, chunk):
        super().__init__(total_accesses=nr_chunks * chunk, chunk_size=chunk)
        self.nr_chunks = nr_chunks

    def setup(self):
        self._next = self.space.mmap(self.nr_chunks).start

    def generate(self, n):
        vpns = np.full(n, self._next, dtype=np.int64)
        self._next += 1
        return vpns, np.arange(n) % 2 == 0


def test_fault_in_every_chunk_skips_validation(executors):
    """The chunk after a faulting one goes straight to the slow path:
    only the first chunk is ever validated, and nothing batches."""
    fast = _run("no-migration", FirstTouchWorkload(40, 32), True, chunk=32)
    (executor,) = executors
    assert executor.vector_batches == 0
    assert executor.revalidations <= 1
    assert executor.slow_chunks == 40
    slow = _run("no-migration", FirstTouchWorkload(40, 32), False, chunk=32)
    _assert_identical(fast, slow)


def test_refused_inline_advance_keeps_window_at_two(executors, monkeypatch):
    """Paranoid mode's post-step hook makes try_advance refuse, so no
    validation commits anything: the window never grows past two
    chunks, every chunk runs on the slow path, and the run matches the
    fast-path-off run under the same hook."""
    peeks = []
    orig_peek = ChunkStream.peek

    def spy(self, k):
        peeks.append(k)
        return orig_peek(self, k)

    monkeypatch.setattr(ChunkStream, "peek", spy)
    paranoid = dict(debug_enabled=True, debug=DebugConfig(paranoid=True))
    trace = [(i % 64, i % 3 == 0) for i in range(2000)]
    fast = _run_trace("no-migration", 64, 1.0, trace, True, 50, **paranoid)
    (executor,) = executors
    assert executor.fast_chunks == executor.vector_batches == 0
    assert executor.slow_chunks == 40
    # A fault-free run validates before every chunk, and each of those
    # validations is wasted.
    assert executor.revalidations == 40
    assert max(peeks) <= 2
    slow = _run_trace("no-migration", 64, 1.0, trace, False, 50, **paranoid)
    _assert_identical(fast, slow)


def test_fastpath_matches_slow_path_with_thp(executors):
    """Huge-folio mappings (PTE_HUGE set) flow through the fast path's
    validation and folio-head TLB noting; on/off must stay identical."""
    from repro.bench.experiments.thp import thp_config
    from repro.bench.runner import build_machine
    from repro.workloads import ZipfianMicrobench

    def arm(fastpath):
        cfg = dataclasses.replace(thp_config(True), fastpath_enabled=fastpath)
        machine = build_machine("A", "tpp", config=cfg)
        workload = ZipfianMicrobench.scenario(
            "small", write_ratio=0.5, total_accesses=20_000, seed=7, thp=True
        )
        report = machine.run_workload(workload)
        return _snapshot(machine, report, workload.space)

    fast = arm(True)
    assert (fast["flags"] & PTE_HUGE).any()
    assert sum(e.vector_batches for e in executors) > 0
    _assert_identical(fast, arm(False))


def test_repro_fastpath_env_knob(monkeypatch):
    """REPRO_FASTPATH is the no-rebuild bisection switch: falsy spellings
    disable the fast path for every new MachineConfig, anything else (or
    unset) leaves it on."""
    for value in ("0", "off", "FALSE", "no"):
        monkeypatch.setenv("REPRO_FASTPATH", value)
        assert MachineConfig().fastpath_enabled is False, value
    for value in ("1", "on", "yes", ""):
        monkeypatch.setenv("REPRO_FASTPATH", value)
        assert MachineConfig().fastpath_enabled is True, value
    monkeypatch.delenv("REPRO_FASTPATH")
    assert MachineConfig().fastpath_enabled is True
    # An explicit constructor argument beats the environment.
    monkeypatch.setenv("REPRO_FASTPATH", "0")
    assert MachineConfig(fastpath_enabled=True).fastpath_enabled is True


# -- scalar vs vectorized run commit -----------------------------------------


def _commit_arms(run):
    """``run()`` with every clean run committed vectorized, then with
    every one committed access by access (fast path off in both, so
    every chunk goes through ``AccessEngine.run_chunk``)."""
    arms = []
    for limit in (0, 1 << 30):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(access_mod, "SCALAR_RUN_MAX", limit)
            arms.append(run())
    return arms


def _assert_commits_identical(vector, scalar):
    _assert_identical(vector, scalar)
    assert vector.get("published") == scalar.get("published")


@settings(max_examples=15, deadline=None)
@given(
    policy=st.sampled_from(["no-migration", "tpp", "memtis-default", "nomad"]),
    nr_pages=st.integers(min_value=4, max_value=500),
    fast_fraction=st.floats(min_value=0.0, max_value=1.0),
    trace=trace_strategy,
    chunk=st.sampled_from([8, 32, 100]),
)
def test_scalar_commit_matches_vectorized(
    policy, nr_pages, fast_fraction, trace, chunk
):
    """Property: committing a clean run access by access or in one
    vectorized pass leaves identical runs, TLB masks and histograms."""
    vector, scalar = _commit_arms(
        lambda: _run_trace(policy, nr_pages, fast_fraction, trace, False, chunk)
    )
    _assert_commits_identical(vector, scalar)


def _zipf_arms(policy, config, thp):
    """Both commit arms of a 20k-access Zipfian run on platform A, with
    every ChunkExecuted payload recorded."""
    from repro.bench.runner import build_machine
    from repro.sim.bus import ChunkExecuted
    from repro.workloads import ZipfianMicrobench

    def run():
        machine = build_machine(
            "A", policy, config=dataclasses.replace(config, fastpath_enabled=False)
        )
        published = []
        machine.bus.subscribe(
            ChunkExecuted,
            lambda e: published.append(
                (e.vpns.tolist(), e.writes.tolist(), e.completion_ts.tolist())
            ),
        )
        workload = ZipfianMicrobench.scenario(
            "small", write_ratio=0.5, total_accesses=20_000, seed=7, thp=thp
        )
        report = machine.run_workload(workload)
        snap = _snapshot(machine, report, workload.space)
        snap["published"] = published
        return snap

    return _commit_arms(run)


def test_scalar_commit_matches_vectorized_with_thp():
    """Huge PTEs: the scalar commit notes the TLB entry at the folio
    head, as the vectorized one does."""
    from repro.bench.experiments.thp import thp_config

    vector, scalar = _zipf_arms("tpp", thp_config(True), thp=True)
    assert (vector["flags"] & PTE_HUGE).any()
    _assert_commits_identical(vector, scalar)


def test_scalar_commit_matches_vectorized_for_memtis():
    """Memtis samples from ChunkExecuted: the scalar commit publishes
    the same segments with the same completion timestamps."""
    vector, scalar = _zipf_arms("memtis-default", MachineConfig(), thp=False)
    assert vector["counters"].get("memtis.samples", 0) > 0
    _assert_commits_identical(vector, scalar)
