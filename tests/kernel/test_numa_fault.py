"""NUMA-hint scanner: prot_none arming of slow-tier pages."""

import numpy as np

from repro.kernel.numa_fault import NumaHintScanner
from repro.mmu.pte import PTE_PROT_NONE

from ..conftest import make_machine


def build(machine, fast_pages=8, slow_pages=8):
    space = machine.create_space()
    vma = space.mmap(fast_pages + slow_pages)
    vpns = list(vma.vpns())
    machine.populate(space, vpns[:fast_pages], 0)
    machine.populate(space, vpns[fast_pages:], 1)
    return space, vpns


def test_scanner_arms_only_slow_tier_pages():
    m = make_machine()
    space, vpns = build(m)
    scanner = NumaHintScanner(m, scan_period=1000.0, pages_per_scan=64)
    scanner.start()
    m.engine.run(until=10_000)
    pt = space.page_table
    flags = pt.flags[np.asarray(vpns)]
    fast_armed = flags[:8] & PTE_PROT_NONE
    slow_armed = flags[8:] & PTE_PROT_NONE
    assert not fast_armed.any()
    assert slow_armed.all()


def test_scanner_skips_already_armed():
    m = make_machine()
    space, vpns = build(m)
    scanner = NumaHintScanner(m, scan_period=1000.0, pages_per_scan=64)
    scanner.start()
    m.engine.run(until=10_000)
    armed_once = m.stats.get("numa.pages_armed")
    m.engine.run(until=50_000)
    assert m.stats.get("numa.pages_armed") == armed_once


def test_scanner_charges_task_cpu():
    m = make_machine()
    build(m)
    scanner = NumaHintScanner(
        m, scan_period=1000.0, pages_per_scan=64, task_cpu_name="app0"
    )
    scanner.start()
    m.engine.run(until=5_000)
    cpu = m.cpus.get("app0")
    assert cpu.pending_stall > 0
    assert m.stats.breakdown("app0").get("numa_scan", 0) > 0


def test_scanner_cursor_covers_large_spaces():
    m = make_machine(slow_gb=4.0)
    space = m.create_space()
    vma = space.mmap(600)
    m.populate(space, vma.vpns(), 1)
    scanner = NumaHintScanner(m, scan_period=1000.0, pages_per_scan=64)
    scanner.start()
    # Enough periods for the windowed cursor to sweep all 600 pages.
    m.engine.run(until=40_000)
    pt = space.page_table
    armed = (pt.flags[np.asarray(list(vma.vpns()))] & PTE_PROT_NONE) != 0
    assert armed.all()


def test_rearming_after_fault_clears():
    m = make_machine()
    space, vpns = build(m)
    scanner = NumaHintScanner(m, scan_period=1000.0, pages_per_scan=64)
    scanner.start()
    m.engine.run(until=10_000)
    pt = space.page_table
    target = vpns[8]
    pt.clear_flags(target, PTE_PROT_NONE)  # as a hint fault would
    # The cursor must sweep the whole (sparse) address space once more
    # before it revisits the target page.
    m.engine.run(until=400_000)
    assert pt.is_prot_none(target)


def test_adaptive_scanner_backs_off_when_unproductive():
    """No faults at all: the period climbs toward its maximum."""
    m = make_machine()
    space, vpns = build(m)
    scanner = NumaHintScanner(
        m, scan_period=1000.0, pages_per_scan=64, adaptive=True,
        period_min=500.0, period_max=8000.0,
    )
    scanner.start()
    m.engine.run(until=100_000)
    assert scanner.scan_period == 8000.0


def test_adaptive_scanner_speeds_up_when_productive():
    m = make_machine()
    build(m)
    scanner = NumaHintScanner(
        m, scan_period=4000.0, pages_per_scan=64, adaptive=True,
        period_min=500.0, period_max=8000.0,
    )

    def feeder():
        # Simulate productive hint faults: every fault promotes.
        while True:
            m.stats.bump("fault.hint", 10)
            m.stats.bump("migrate.promotions", 8)
            yield 2000.0

    m.engine.spawn(feeder(), "feeder")
    scanner.start()
    m.engine.run(until=60_000)
    # Productive faults pull the period down (it may oscillate once it
    # outpaces the fault source, but stays below the starting period).
    assert scanner.scan_period < 4000.0


def test_adaptive_scanner_period_stays_bounded():
    m = make_machine()
    build(m)
    scanner = NumaHintScanner(
        m, scan_period=1000.0, adaptive=True, period_min=800.0, period_max=2000.0,
    )
    scanner.start()
    m.engine.run(until=50_000)
    assert 800.0 <= scanner.scan_period <= 2000.0


def test_non_adaptive_period_is_constant():
    m = make_machine()
    build(m)
    scanner = NumaHintScanner(m, scan_period=1234.0, pages_per_scan=64)
    scanner.start()
    m.engine.run(until=50_000)
    assert scanner.scan_period == 1234.0
