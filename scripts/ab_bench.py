#!/usr/bin/env python
"""A/B the quick bench suite between two git revisions, interleaved.

Usage::

    python scripts/ab_bench.py REV_A REV_B [--pairs 5]

Both revisions' committed files are exported into a temporary directory
with ``ab_perfbench.export``. Each pair then runs
``python -m repro bench --quick --workers 1`` once per side, one process
at a time, alternating which side goes first so slow drift of the host
affects both sides alike. ``REPRO_FASTPATH`` and the rest of the
environment pass through to both sides, so ``REPRO_FASTPATH=0`` A/Bs the
slow path.

The summary gives, per cell and for the whole suite, each side's min and
median wall time and the B/A ratios of both. It ends by saying whether
every simulated field (cycles, counter digest, metrics, workload
counters, latency) matched between the two sides of every pair, naming
the drift of the first pair that did not.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from statistics import median
from typing import Dict, List

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from ab_perfbench import SIDES, export, git, print_table  # noqa: E402
from repro.bench.baseline import compare_bench  # noqa: E402

SUITE = "(suite)"


def run_side(checkout: Path, out: Path) -> Dict:
    """One quick-suite process; returns its BENCH report."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    proc = subprocess.run(
        [
            sys.executable, "-m", "repro", "bench", "--quick",
            "--workers", "1", "--output-dir", str(out),
        ],
        cwd=checkout, env=env, capture_output=True, text=True,
    )
    reports = sorted(out.glob("BENCH_*.json"))
    if proc.returncode != 0 or len(reports) != 1:
        raise SystemExit(
            f"ab_bench: quick suite failed in {checkout} "
            f"(exit {proc.returncode}):\n{proc.stderr[-2000:]}"
        )
    return json.loads(reports[0].read_text())


def walls(report: Dict) -> Dict[str, float]:
    """Per-cell wall seconds, plus the suite total under ``SUITE``."""
    per_cell = {
        k: float(v) for k, v in report["timing"]["wall_time_s"].items()
    }
    per_cell[SUITE] = sum(per_cell.values())
    return per_cell


def summarize(pairs: List[Dict[str, Dict]]) -> List[List[str]]:
    rows = []
    cells = list(walls(pairs[0]["A"]))
    for cell in sorted(c for c in cells if c != SUITE) + [SUITE]:
        a = [walls(p["A"])[cell] for p in pairs]
        b = [walls(p["B"])[cell] for p in pairs]
        rows.append([
            cell,
            f"{min(a):.3f}", f"{median(a):.3f}",
            f"{min(b):.3f}", f"{median(b):.3f}",
            f"{min(b) / min(a):.3f}" if min(a) else "-",
            f"{median(b) / median(a):.3f}" if median(a) else "-",
        ])
    return rows


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("rev_a", help="baseline revision (A)")
    p.add_argument("rev_b", help="candidate revision (B)")
    p.add_argument("--pairs", type=int, default=5)
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")

    repo = Path(git("rev-parse", "--show-toplevel", cwd=Path.cwd()))
    revs = {
        side: git("rev-parse", "--verify", f"{rev}^{{commit}}", cwd=repo)
        for side, rev in zip(SIDES, (args.rev_a, args.rev_b))
    }
    fastpath = os.environ.get("REPRO_FASTPATH", "(unset)")
    print(f"A = {args.rev_a} ({revs['A'][:12]}), "
          f"B = {args.rev_b} ({revs['B'][:12]})")
    print(f"quick suite, {args.pairs} pairs, --workers 1, "
          f"REPRO_FASTPATH={fastpath}")
    pairs: List[Dict[str, Dict]] = []
    with tempfile.TemporaryDirectory(prefix="ab-bench-") as tmp:
        checkouts = {side: Path(tmp) / side for side in SIDES}
        for side in SIDES:
            export(repo, revs[side], checkouts[side])
        for i in range(args.pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {
                side: run_side(checkouts[side], Path(tmp) / f"out-{i}-{side}")
                for side in order
            }
            pairs.append(pair)
            detail = " ".join(
                f"{side}={walls(pair[side])[SUITE]:.3f}s" for side in SIDES
            )
            print(f"# pair {i + 1}/{args.pairs} first={order[0]} suite {detail}",
                  flush=True)

    print()
    print_table(
        ["cell", "A min", "A median", "B min", "B median", "B/A min",
         "B/A median"],
        summarize(pairs),
    )
    drifts = [compare_bench(p["A"], p["B"])[0] for p in pairs]
    same = sum(not d for d in drifts)
    print()
    print(f"simulated fields identical in {same}/{len(pairs)} pairs")
    for errors in drifts:
        if errors:
            print("first drifting pair:")
            for line in errors:
                print(f"  {line}")
            break
    return 0


if __name__ == "__main__":
    sys.exit(main())
