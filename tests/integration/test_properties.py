"""Property-based tests: machine invariants hold for arbitrary
workload/policy combinations, and core data structures behave like their
mathematical models."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Machine, MachineConfig
from repro.policies import make_policy
from repro.workloads import Workload

from ..conftest import tiny_platform
from .invariants import check_invariants


class RandomTraceWorkload(Workload):
    """A hypothesis-driven workload: arbitrary vpn/write trace over a
    mixed fast/slow layout."""

    name = "random-trace"

    def __init__(self, nr_pages, fast_fraction, trace, seed=0):
        super().__init__(total_accesses=max(1, len(trace)), seed=seed)
        self.nr_pages = nr_pages
        self.fast_fraction = fast_fraction
        self.trace = trace
        self._pos = 0
        self._start = 0

    def setup(self):
        vma = self.space.mmap(self.nr_pages)
        self._start = vma.start
        vpns = np.asarray(list(vma.vpns()))
        split = int(self.nr_pages * self.fast_fraction)
        self.machine.populate(self.space, vpns[:split], 0)
        self.machine.populate(self.space, vpns[split:], 1)

    def generate(self, n):
        chunk = self.trace[self._pos : self._pos + n]
        self._pos += n
        if not chunk:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=bool)
        vpns = np.array(
            [self._start + (v % self.nr_pages) for v, _ in chunk], dtype=np.int64
        )
        writes = np.array([w for _, w in chunk], dtype=bool)
        return vpns, writes


trace_strategy = st.lists(
    st.tuples(st.integers(min_value=0, max_value=10_000), st.booleans()),
    min_size=1,
    max_size=800,
)


@settings(max_examples=20, deadline=None)
@given(
    policy=st.sampled_from(["no-migration", "tpp", "memtis-default", "nomad"]),
    nr_pages=st.integers(min_value=4, max_value=700),
    fast_fraction=st.floats(min_value=0.0, max_value=1.0),
    trace=trace_strategy,
)
def test_invariants_hold_for_random_traces(policy, nr_pages, fast_fraction, trace):
    machine = Machine(
        tiny_platform(fast_gb=1.0, slow_gb=2.0), MachineConfig(chunk_size=32)
    )
    machine.set_policy(make_policy(policy, machine))
    workload = RandomTraceWorkload(nr_pages, fast_fraction, trace)
    report = machine.run_workload(workload)
    assert report.overall.accesses == len(trace)
    check_invariants(machine)
    # Conservation: pages mapped == pages populated (no leaks, no loss).
    assert workload.space.rss_pages == nr_pages


@settings(max_examples=20, deadline=None)
@given(
    trace=trace_strategy,
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_nomad_shadow_conservation(trace, seed):
    """Frames are conserved: used + free == total on every node, with
    shadows counted as used slow-tier frames."""
    machine = Machine(
        tiny_platform(fast_gb=1.0, slow_gb=2.0), MachineConfig(chunk_size=32)
    )
    machine.set_policy(make_policy("nomad", machine))
    workload = RandomTraceWorkload(200, 0.5, trace, seed=seed)
    machine.run_workload(workload)
    check_invariants(machine)
    for node in machine.tiers.nodes:
        assert node.nr_free + node.nr_used == node.nr_pages
    # Every shadow is a used slow frame not mapped anywhere.
    nr_shadows = machine.policy.shadow_index.nr_shadows
    assert nr_shadows <= machine.tiers.slow.nr_used


@settings(max_examples=15, deadline=None)
@given(
    trace=trace_strategy,
)
def test_dirty_bit_tracks_writes(trace):
    """After any trace, a page's dirty bit is set iff the trace wrote it
    since the PTE was last replaced -- with no policy installed, that is
    simply 'ever written'."""
    machine = Machine(
        tiny_platform(fast_gb=2.0, slow_gb=2.0), MachineConfig(chunk_size=32)
    )
    machine.set_policy(make_policy("no-migration", machine))
    workload = RandomTraceWorkload(64, 1.0, trace)
    machine.run_workload(workload)
    pt = workload.space.page_table
    written = set()
    for v, w in trace:
        if w:
            written.add(workload._start + (v % 64))
    for vpn in pt.mapped_vpns():
        vpn = int(vpn)
        assert pt.is_dirty(vpn) == (vpn in written)


@settings(max_examples=15, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=500), min_size=1, max_size=300)
)
def test_access_counts_conserved(vpn_seeds):
    """reads + writes in the result always equal the trace length."""
    machine = Machine(tiny_platform(), MachineConfig(chunk_size=16))
    machine.set_policy(make_policy("no-migration", machine))
    trace = [(v, v % 3 == 0) for v in vpn_seeds]
    workload = RandomTraceWorkload(32, 0.5, trace)
    report = machine.run_workload(workload)
    assert report.overall.reads + report.overall.writes == len(trace)
