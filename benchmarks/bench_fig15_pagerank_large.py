"""Figure 15: PageRank with a very large RSS on platforms C and D.

Paper shape: the 16 GB fast tier cannot hold the working set; Nomad
degrades gracefully and clearly beats TPP's synchronous migration.
This bench asserts no Nomad-vs-TPP ordering: on C and D it asserts
only that no-migration makes progress and that Nomad and TPP each stay
above 0.6x no-migration. EXPERIMENTS.md records why: the paper's 2x
Nomad-over-TPP factor collapses to parity at simulation scale, and on
platform D Nomad measures slightly below TPP (0.131 vs 0.135 GB/s).
"""

from conftest import run_once

from repro.bench import experiments, print_table


def test_fig15_pagerank_large(benchmark, accesses):
    rows = run_once(benchmark, experiments.fig15_pagerank_large, accesses=accesses)
    print_table(
        "Figure 15: large-RSS PageRank throughput (GB/s)",
        ["platform", "policy", "throughput"],
        [[r["platform"], r["policy"], r["throughput_gbps"]] for r in rows],
        float_fmt="{:.4f}",
    )
    benchmark.extra_info["rows"] = rows

    def tp(platform, policy):
        return next(
            r["throughput_gbps"]
            for r in rows
            if r["platform"] == platform and r["policy"] == policy
        )

    # All policies complete under heavy over-commit; fault-based
    # policies pay a visible migration tax vs no-migration.
    for platform in ("C", "D"):
        assert tp(platform, "no-migration") > 0
        assert tp(platform, "nomad") > 0.6 * tp(platform, "no-migration")
        assert tp(platform, "tpp") > 0.6 * tp(platform, "no-migration")
