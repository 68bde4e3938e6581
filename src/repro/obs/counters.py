"""Central registry of every named counter the simulator bumps.

The kernel prevents counter typos structurally: ``vmstat`` counters are
enum indices into ``vm_event_item``, so a misspelled name is a compile
error. ``Stats.bump`` takes a free-form string, which is convenient but
means a typo'd name silently creates a brand-new counter and the figure
that should have included it quietly reads zero.

This module is the structural check: every literal counter name used in
``src/`` must be registered here with a one-line description, and a lint
test (``tests/obs/test_counter_lint.py``) AST-scans the tree to enforce
it. The registry doubles as the metric catalog for the Prometheus
exporter (:func:`repro.obs.export.prometheus_text`), which emits every
registered counter -- including the ones still at zero -- so dashboards
see a stable metric set across runs.
"""

from __future__ import annotations

from typing import Dict

__all__ = [
    "COUNTERS",
    "is_registered",
    "register_counter",
    "tier_migration_key",
]

# name -> one-line help string (used verbatim as the Prometheus HELP).
COUNTERS: Dict[str, str] = {
    # ---- fault handling (Machine.handle_fault) -----------------------
    "fault.total": "page faults of any kind",
    "fault.not_present": "demand-paging faults (first touch)",
    "fault.hint": "NUMA-hint (prot_none) faults",
    "fault.write_protect": "write-protect faults (Nomad shadow faults)",
    "fault.demand_paged": "pages allocated by demand paging",
    # ---- TLB maintenance ---------------------------------------------
    "tlb.shootdowns": "TLB shootdown operations initiated",
    "tlb.shootdown_ipis": "remote IPIs sent by shootdowns",
    # ---- stock migration (kernel/migrate.py) -------------------------
    "migrate.sync_success": "successful synchronous migrations",
    "migrate.sync_failed_busy": "sync migrations abandoned on a locked page",
    "migrate.sync_failed_unmapped": "sync migrations that raced an unmap",
    "migrate.sync_failed_nomem": "sync migrations without a free target frame",
    "migrate.promotions": "pages moved slow -> fast (any mechanism)",
    "migrate.demotions": "pages moved fast -> slow (any mechanism)",
    # ---- per-tier migration flux (chains longer than 2 tiers) --------
    # Bumped only on machines with > 2 tiers so the default two-tier
    # counter digests stay byte-identical; tiers beyond 3 register
    # their keys dynamically via tier_migration_key().
    "migrate.promote_to_tier0": "pages promoted into tier 0",
    "migrate.promote_to_tier1": "pages promoted into tier 1",
    "migrate.promote_to_tier2": "pages promoted into tier 2",
    "migrate.demote_to_tier1": "pages demoted into tier 1",
    "migrate.demote_to_tier2": "pages demoted into tier 2",
    "migrate.demote_to_tier3": "pages demoted into tier 3",
    # ---- reclaim (kernel/reclaim.py) ---------------------------------
    "kswapd.passes": "kswapd reclaim passes",
    "kswapd.gave_up": "kswapd runs that stopped without reaching the target",
    "kswapd.backoffs": "kswapd parked on a hopeless node until a page is freed",
    "kswapd.rearms": "parked kswapd woken after a watched node freed a page",
    # ---- LRU (kernel/lru.py) -----------------------------------------
    "lru.activation_requests": "pages queued for activation (pagevec)",
    "lru.activations": "pages actually moved to the active list",
    # ---- NUMA-hint scanner (kernel/numa_fault.py) --------------------
    "numa.pages_armed": "PTEs armed prot_none by the hint scanner",
    "numa.folios_armed": "huge folios armed prot_none (one PMD each)",
    # ---- transparent huge pages (folios) -----------------------------
    "thp.folios_mapped": "huge folios installed by demand paging or populate",
    "thp.fallback_base": "THP allocations that fell back to base pages",
    "thp.folio_splits": "huge folios split into base pages",
    "thp.folio_promotions": "huge folios promoted by transactional migration",
    "thp.folio_sync_migrations": "huge folios moved by synchronous migration",
    "thp.folio_remap_demotions": "huge folios demoted by remap to their shadow",
    "thp.shadow_collapses": "folio shadows collapsed by a first sub-page store",
    # ---- Nomad core (core/) ------------------------------------------
    "nomad.hint_faults": "hint faults consumed by the Nomad handler",
    "nomad.shadow_faults": "shadow (write-protect) faults on shadowed masters",
    "nomad.tpm_commits": "transactional migrations committed",
    "nomad.tpm_aborts": "transactional migrations aborted (dirtied during copy)",
    "nomad.tpm_stale": "TPM requests dropped as stale at validation",
    "nomad.tpm_busy": "TPM requests dropped on a locked frame",
    "nomad.tpm_nomem": "TPM transactions failed for lack of a fast frame",
    "nomad.kpromote_stale": "MPQ entries found stale by kpromote",
    "nomad.sync_fallbacks": "multi-mapped pages promoted via sync fallback",
    "nomad.throttle_pauses": "kpromote thrash-throttle pauses",
    "nomad.shadows_created": "shadow pages created by committed promotions",
    "nomad.shadows_discarded": "shadow pages discarded by shadow faults",
    "nomad.shadows_reclaimed": "shadow pages freed by reclaim",
    "nomad.copy_demotions": "demotions that had to copy (master not shadowed)",
    "nomad.remap_demotions": "demotions satisfied by pure remap to the shadow",
    "nomad.alloc_fail_reclaims": "allocation-failure shadow reclaim batches",
    "nomad.tpm_chunk_aborts": (
        "huge-page transactions aborted by the per-chunk dirty re-check"
    ),
    "nomad.admission_rejected": (
        "MPQ promotions rejected by the admission filter"
    ),
    "nomad.shadow_chain_drops": (
        "deep shadows discarded on re-promotion (shadow_chain=drop)"
    ),
    "nomad.shadow_chain_rekeys": (
        "deep shadows re-keyed to the new master (shadow_chain=rekey)"
    ),
    # ---- debug subsystem (repro.debug; bumped only when enabled) -----
    "debug.fault_injections": "debug fault-injection sites that fired",
    "debug.invariant_violations": "invariant violations found by the checker",
    # ---- TPP policy --------------------------------------------------
    "tpp.hint_faults": "hint faults consumed by the TPP handler",
    "tpp.promotions": "TPP synchronous promotions",
    "tpp.promotion_failures": "TPP promotions that failed",
    "tpp.promotion_retry_storms": "TPP pages repeatedly faulting before promotion",
    "tpp.demotions": "TPP kswapd demotions",
    # ---- Memtis policy -----------------------------------------------
    "memtis.samples": "PEBS-style samples folded into histograms",
    "memtis.coolings": "ksampled cooling passes",
    "memtis.promotions": "kmigrated promotions",
    "memtis.demotions": "kmigrated demotions",
    # ---- Adaptive policy ---------------------------------------------
    "adaptive.probes": "migration-worthiness probes started",
    "adaptive.probe_success": "probes that re-enabled migration",
    "adaptive.probe_failures": "probes that kept migration disabled",
    "adaptive.breaker_trips": "thrash breaker activations",
    "adaptive.suppressed_faults": "hint faults degraded to pure unprotects",
}


def is_registered(name: str) -> bool:
    return name in COUNTERS


def register_counter(name: str, help_text: str) -> None:
    """Extension hook for out-of-tree policies (tests use it too)."""
    if name in COUNTERS and COUNTERS[name] != help_text:
        raise ValueError(f"counter {name!r} already registered")
    COUNTERS[name] = help_text


# Precomputed per-tier migration keys: bump sites are hot enough that an
# f-string per migration would show in profiles, and f-strings would
# also slip past the literal-name lint. Common chain depths are
# registered above; deeper chains register lazily here.
_TIER_MIGRATION_KEYS: Dict[tuple, str] = {
    ("promote", 0): "migrate.promote_to_tier0",
    ("promote", 1): "migrate.promote_to_tier1",
    ("promote", 2): "migrate.promote_to_tier2",
    ("demote", 1): "migrate.demote_to_tier1",
    ("demote", 2): "migrate.demote_to_tier2",
    ("demote", 3): "migrate.demote_to_tier3",
}


def tier_migration_key(kind: str, dst_tier: int) -> str:
    """Counter name for a migration landing on ``dst_tier``.

    ``kind`` is ``"promote"`` or ``"demote"``. Only bumped on machines
    with more than two tiers (the two-tier digests are pinned).
    """
    key = _TIER_MIGRATION_KEYS.get((kind, dst_tier))
    if key is None:
        if kind not in ("promote", "demote"):
            raise ValueError(f"kind must be promote/demote, got {kind!r}")
        key = f"migrate.{kind}_to_tier{dst_tier}"
        register_counter(key, f"pages {kind}d into tier {dst_tier}")
        _TIER_MIGRATION_KEYS[(kind, dst_tier)] = key
    return key
