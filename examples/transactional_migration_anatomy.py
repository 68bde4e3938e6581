#!/usr/bin/env python3
"""Anatomy of one transactional page migration (Figure 3, step by step).

Drives a single TPM transaction against an instrumented machine and
narrates each protocol step, then repeats with a concurrent writer to
show the abort path. A good starting point for understanding the core
mechanism before reading `repro/core/tpm.py`.

Usage:
    python examples/transactional_migration_anatomy.py
"""

from repro import Machine, platform_a
from repro.core import (
    MigrationRequest,
    ShadowIndex,
    TpmOutcome,
    TransactionalMigrator,
)
from repro.mmu.pte import PTE_DIRTY, describe_flags


def narrate(machine, space, vpn, label):
    pt = space.page_table
    flags, gpfn = pt.entry(vpn)
    tier = "fast" if machine.tiers.tier_of(gpfn) == 0 else "slow"
    print(
        f"  [{machine.engine.now:>9.0f} cy] {label:<34s} "
        f"PTE={describe_flags(flags):<8s} tier={tier}"
    )


def run_transaction(write_during_copy: bool) -> None:
    machine = Machine(platform_a())
    shadow_index = ShadowIndex(machine)
    migrator = TransactionalMigrator(machine, shadow_index)
    space = machine.create_space("demo")
    vma = space.mmap(1, name="page")
    machine.populate(space, [vma.start], 1)
    vpn = vma.start
    frame = machine.tiers.frame(int(space.page_table.gpfn[vpn]))
    request = MigrationRequest(frame, space, vpn, frame.generation)

    title = "with a racing store" if write_during_copy else "undisturbed"
    print(f"\n=== Transaction {title} ===")
    narrate(machine, space, vpn, "before transaction")

    outcome = {}

    def transaction():
        result = yield from migrator.migrate(request, machine.cpus.get("kpromote"))
        outcome["result"] = result

    def racer():
        # Lands inside the page-copy window (copy is ~2.3k cycles here).
        yield 1500.0
        pt = space.page_table
        pt.set_flags(vpn, PTE_DIRTY)
        pt.last_write[vpn] = machine.engine.now
        narrate(machine, space, vpn, "application STORE hits the page")

    machine.engine.spawn(transaction(), "txn")
    if write_during_copy:
        machine.engine.spawn(racer(), "racer")
    machine.engine.run(until=1_000_000)

    result = outcome["result"]
    narrate(machine, space, vpn, f"after transaction ({result.outcome.value})")
    if result.outcome is TpmOutcome.COMMITTED:
        print(
            f"  -> committed in {result.cycles:.0f} cycles; the old slow-tier "
            f"frame lives on as a shadow ({shadow_index.nr_shadows} shadow)."
        )
        print(
            "     Master is mapped read-only with its true permission in the "
            "shadow r/w soft bit (the 'S' in the PTE string)."
        )
    else:
        print(
            f"  -> aborted after {result.cycles:.0f} cycles; the original PTE "
            "was restored verbatim and the copied page discarded."
        )
        print("     kpromote would retry this page after a backoff.")


def main() -> None:
    print(__doc__)
    run_transaction(write_during_copy=False)
    run_transaction(write_during_copy=True)
    print(
        "\nNote the asymmetry: the page was accessible for the whole copy in\n"
        "both runs; the only inaccessible window is the two PTE updates plus\n"
        "one TLB shootdown at commit/abort."
    )


if __name__ == "__main__":
    main()
