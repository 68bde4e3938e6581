"""Cost model: latency pricing, copy rates, shootdown costs."""

import pytest

from repro.sim.costs import CACHELINE, PAGE_SIZE, CostModel, build_copy_matrix


@pytest.fixture
def costs():
    return CostModel(
        freq_ghz=2.0,
        read_latency=(300.0, 900.0),
        write_latency=(310.0, 950.0),
        copy_bytes_per_cycle=build_copy_matrix(2.0, (12.0, 4.0), (20.0, 20.0)),
    )


def test_constants():
    assert PAGE_SIZE == 4096
    assert CACHELINE == 64


def test_copy_matrix_harmonic_combination():
    matrix = build_copy_matrix(2.0, (12.0, 4.0), (20.0, 20.0))
    # fast->fast: read 6 B/cy, write 10 B/cy -> 1/(1/6+1/10) = 3.75
    assert matrix[0][0] == pytest.approx(3.75)
    # slow->fast: read 2 B/cy, write 10 B/cy -> 1/(1/2+1/10) = 1.666...
    assert matrix[1][0] == pytest.approx(1.0 / (1 / 2 + 1 / 10))


def test_slow_reads_make_promotion_slower_than_demotion_fastread():
    matrix = build_copy_matrix(2.0, (12.0, 4.0), (20.0, 20.0))
    # Promotion reads from the slow tier: its copy rate is lower than a
    # demotion (which reads from fast) when the slow read path is the
    # bottleneck.
    assert matrix[1][0] < matrix[0][1]


def test_page_copy_cycles(costs):
    expected = PAGE_SIZE / costs.copy_bytes_per_cycle[1][0]
    assert costs.page_copy_cycles(1, 0) == pytest.approx(expected)
    assert costs.page_copy_cycles(1, 0) > costs.page_copy_cycles(0, 1)


def test_shootdown_cost_local_only(costs):
    assert costs.shootdown_cycles(0) == costs.tlb_flush_local


def test_shootdown_cost_scales_with_remote_cpus(costs):
    one = costs.shootdown_cycles(1)
    three = costs.shootdown_cycles(3)
    assert one == costs.tlb_flush_local + costs.tlb_shootdown_base
    assert three == one + 2 * costs.tlb_shootdown_per_cpu
    assert three > one


def test_cost_model_is_frozen(costs):
    with pytest.raises(Exception):
        costs.fault_trap = 0
