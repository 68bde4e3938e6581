"""Multi-tenant fairness: N interleaved trace tenants on one machine.

The paper evaluates policies one workload at a time; a consolidated
("million-user") deployment instead packs many tenants onto one box
where they compete for the same fast tier. This experiment replays N
generated tenant traces concurrently -- each tenant namespaced into its
own vpn range so migrations are attributable -- and reports, per policy:

* aggregate throughput (sum of per-tenant stable-phase bandwidth);
* fairness across tenants: the max/min bandwidth ratio and Jain's
  index ``(sum x)^2 / (n * sum x^2)`` (1.0 = perfectly fair);
* per-tenant counters from the tenant time-series aggregator
  (accesses, promotions, TPM aborts) plus per-tenant bandwidth.

Tenants are sized so their aggregate footprint overflows the fast tier
(~1.5x), and every tenant asks for fast-tier placement: later-binding
tenants spill to the slow tier at setup, so the *initial* placement is
maximally unfair and the policy's job is to even things out. Tenant
generators cycle through the trace-gen families (zipf drift, phase
shift, diurnal) so hot sets differ in shape, not just in seed.

Set ``REPRO_FAIRNESS_OUT=<dir>`` to export the full observability
outputs (including ``tenant_timeseries.csv``, the per-window per-tenant
curves) into ``<dir>/<policy>/``.
"""

from __future__ import annotations

import os
import tempfile
from typing import Dict, List, Optional, Sequence

from ...obs.windows import TenantRange
from ...workloads import StreamingTraceWorkload, build_trace
from ..runner import build_machine, policy_available
from .registry import register, rows_printer

__all__ = ["DEFAULT_TENANTS", "FAIRNESS_POLICIES", "multi_tenant_fairness"]

DEFAULT_TENANTS = 8

# Policies compared by default: the no-op floor, the stock kernel
# mechanism, and Nomad's transactional migration.
FAIRNESS_POLICIES = ("no-migration", "tpp", "nomad")

# Tenant generators cycle through these (name, extra params) families.
_TENANT_GENERATORS = (
    ("zipf-drift", {}),
    ("phase-shift", {"phases": 3}),
    ("diurnal", {"periods": 1.0}),
)

# Aggregate tenant footprint as a multiple of the fast tier.
_OVERCOMMIT = 1.5


def jain_index(values: Sequence[float]) -> float:
    """Jain's fairness index over ``values`` (1.0 = perfectly fair)."""
    if not values:
        return 0.0
    total = sum(values)
    squares = sum(v * v for v in values)
    if squares == 0:
        return 0.0
    return (total * total) / (len(values) * squares)


def _build_tenant_traces(
    trace_dir: str,
    nr_tenants: int,
    pages_per_tenant: int,
    accesses_per_tenant: int,
    seed: int,
) -> List[Dict]:
    """Generate one trace per tenant (reused across the policy sweep)."""
    tenants = []
    for i in range(nr_tenants):
        generator, params = _TENANT_GENERATORS[i % len(_TENANT_GENERATORS)]
        path = os.path.join(trace_dir, f"tenant{i:02d}")
        if not os.path.isdir(path):
            build_trace(
                path,
                generator,
                nr_pages=pages_per_tenant,
                accesses=accesses_per_tenant,
                seed=seed + i,
                name=f"tenant{i:02d}",
                params=params,
            )
        tenants.append({"name": f"tenant{i:02d}", "path": path,
                        "nr_pages": pages_per_tenant, "generator": generator})
    return tenants


def multi_tenant_fairness(
    accesses: int,
    platform: Optional[str],
    policies: Sequence[str] = FAIRNESS_POLICIES,
    nr_tenants: int = DEFAULT_TENANTS,
    seed: int = 42,
    window_cycles: float = 500_000.0,
    trace_dir: Optional[str] = None,
) -> List[dict]:
    """Co-run ``nr_tenants`` trace tenants under each policy.

    ``accesses`` is the aggregate budget, split evenly across tenants.
    Returns one aggregate row per policy (tenant ``*``) followed by the
    per-tenant rows, so fairness numbers and their inputs print side by
    side.
    """
    if nr_tenants < 2:
        raise ValueError(f"nr_tenants must be at least 2, got {nr_tenants}")
    platform_name = (platform or "A").upper()
    accesses_per_tenant = max(accesses // nr_tenants, 500)

    owned_tmp = None
    if trace_dir is None:
        owned_tmp = tempfile.TemporaryDirectory(prefix="repro-tenants-")
        trace_dir = owned_tmp.name

    out_root = os.environ.get("REPRO_FAIRNESS_OUT", "")
    rows: List[dict] = []
    try:
        # Footprints depend only on the platform's fast tier, so the
        # traces are generated once and replayed under every policy.
        probe = build_machine(platform_name, "no-migration")
        fast_pages = probe.tiers.fast.nr_pages
        pages_per_tenant = max(int(fast_pages * _OVERCOMMIT) // nr_tenants, 64)
        tenants = _build_tenant_traces(
            trace_dir, nr_tenants, pages_per_tenant, accesses_per_tenant, seed
        )

        for policy in policies:
            if not policy_available(policy, platform_name):
                continue
            machine = build_machine(platform_name, policy)
            workloads, ranges = [], []
            base = 0
            for t in tenants:
                w = StreamingTraceWorkload(
                    t["path"], vpn_base=base, name=t["name"],
                    fast_fraction=1.0,
                )
                # Bind now so the pad + trace VMAs are laid out in
                # tenant order (earlier tenants grab the fast tier) and
                # the global vpn range is known for attribution.
                w.bind(machine)
                ranges.append(TenantRange(
                    t["name"], w._start, w._start + t["nr_pages"], workload=w,
                ))
                workloads.append(w)
                base += t["nr_pages"]
            if out_root:
                # Exports are validated by scripts/check_obs_output.py,
                # which wants the full artifact set -- open the whole
                # faucet (gauges, machine-global windows), not just the
                # tenant layer. Obs never changes simulated results.
                machine.obs.enable(sample_period=50_000.0)
                machine.obs.enable_timeseries(window_cycles=window_cycles)
            agg = machine.obs.enable_tenant_series(
                ranges, window_cycles=window_cycles
            )
            reports = machine.run_workloads(workloads)
            agg.finish()

            totals = agg.totals()
            bandwidths = [r.overall.bandwidth_gbps for r in reports]
            aggregate = sum(bandwidths)
            floor = min(bandwidths)
            ratio = (max(bandwidths) / floor) if floor > 0 else float("inf")
            rows.append({
                "policy": policy,
                "tenant": "*",
                "generator": "-",
                "accesses": sum(
                    int(t["accesses"]) for t in totals.values()
                ),
                "gbps": round(aggregate, 3),
                "promotions": int(sum(
                    t["promotions"] for t in totals.values()
                )),
                "tpm_aborts": int(sum(
                    t["tpm_aborts"] for t in totals.values()
                )),
                "jain": round(jain_index(bandwidths), 4),
                "max_min": round(ratio, 3),
            })
            for t, report, bw in zip(tenants, reports, bandwidths):
                tt = totals[t["name"]]
                rows.append({
                    "policy": policy,
                    "tenant": t["name"],
                    "generator": t["generator"],
                    "accesses": int(tt["accesses"]),
                    "gbps": round(bw, 3),
                    "promotions": int(tt["promotions"]),
                    "tpm_aborts": int(tt["tpm_aborts"]),
                    "jain": "",
                    "max_min": "",
                })
            if out_root:
                from ...obs.export import write_obs_outputs

                write_obs_outputs(
                    machine, os.path.join(out_root, policy)
                )
    finally:
        if owned_tmp is not None:
            owned_tmp.cleanup()
    return rows


register(
    "multi_tenant_fairness",
    f"{DEFAULT_TENANTS} interleaved trace tenants per policy: aggregate "
    "throughput, Jain fairness index, per-tenant migration counters",
    multi_tenant_fairness,
    rows_printer("Multi-tenant fairness (interleaved trace tenants)"),
    platform_arg=True,
)
