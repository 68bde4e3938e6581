"""Figure 14: Redis with a large RSS (36.5 GB) on platforms C and D.

Paper shape: Nomad outperforms TPP (graceful degradation during
thrashing) but falls short of Memtis; the initial placement (thrashing
vs normal) does not change the ordering and results converge.
"""

from conftest import run_once

from repro.bench import experiments, print_table


def test_fig14_redis_large(benchmark, accesses):
    rows = run_once(benchmark, experiments.fig14_redis_large, accesses=accesses)
    print_table(
        "Figure 14: large-RSS YCSB ops/s (platforms C, D)",
        ["platform", "case", "policy", "ops/s"],
        [[r["platform"], r["case"], r["policy"], r["ops_per_sec"]] for r in rows],
        float_fmt="{:.0f}",
    )
    benchmark.extra_info["rows"] = rows

    def ops(platform, case, policy):
        return next(
            r["ops_per_sec"]
            for r in rows
            if r["platform"] == platform
            and r["case"] == case
            and r["policy"] == policy
        )

    for platform in ("C", "D"):
        for case in ("large-thrashing", "large-normal"):
            # Nomad degrades gracefully relative to TPP: the verdict is
            # Nomad > TPP (EXPERIMENTS.md). At simulation scale the gap
            # compresses, most on platform D's normal placement (~1%).
            assert ops(platform, case, "nomad") > ops(platform, case, "tpp")
    # Nomad falls short of Memtis at this RSS (platform C has Memtis).
    for case in ("large-thrashing", "large-normal"):
        assert ops("C", case, "nomad") < ops("C", case, "memtis-default")
