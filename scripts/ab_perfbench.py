#!/usr/bin/env python
"""A/B the repository benchmark between two git revisions, interleaved.

Usage::

    python scripts/ab_perfbench.py REV_A REV_B --workload stream-nomig \\
        [--seed 42] [--pairs 10] [--seconds 30] [--trace 0]

Each revision's committed files are exported (``git archive``) into its
own directory under a temporary directory, the way the benchmark is run
on a fresh checkout, so uncommitted edits never leak into either side
and the repository's own worktree is left alone. Each pair then runs
``python3 perfbench/run.py`` once per side, one process at a time; the
side that runs first alternates from pair to pair so slow drift of the
host affects both sides alike.

For every metric the benchmark reports, the summary gives each side's
median and quartiles, the B/A ratio of the medians, and the share of
pairs B won (by the metric's ``better`` direction in B's
``BENCHMARK.json``; ties count for neither side). Each metric with a
``bound`` (the end-to-end ones) also gets a verdict, the first that
applies of:

* ``worse``: B's median is worse than A's by more than the bound;
* ``unresolved``: A's quartile distance exceeds the bound (relative to
  A's median) and not every B run beats every A run;
* ``gain``: B won at least 9 in 10 pairs and its median beats A's by
  more than A's quartile distance;
* ``ok``: none of these.

It also says whether the simulated metrics (``sim_*``) and the counter
digest matched between the two sides of every pair. Nothing under
``perfbench/`` is modified.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from statistics import median, quantiles
from typing import Dict, List, Optional, Tuple

SIDES = ("A", "B")


def git(*args: str, cwd: Path) -> str:
    return subprocess.run(
        ["git", *args], cwd=cwd, check=True, capture_output=True, text=True
    ).stdout.strip()


def export(repo: Path, rev: str, dest: Path) -> None:
    """Write the committed files of ``rev`` into ``dest``."""
    dest.mkdir(parents=True)
    archive = subprocess.Popen(
        ["git", "archive", "--format=tar", rev], cwd=repo,
        stdout=subprocess.PIPE,
    )
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise SystemExit(f"ab_perfbench: git archive {rev} failed")


def run_side(checkout: Path, args: argparse.Namespace) -> Dict:
    """One benchmark process; returns its metrics, digest and status."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [
            sys.executable, "perfbench/run.py",
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ],
        cwd=checkout, env=env, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(
            f"ab_perfbench: benchmark failed in {checkout} "
            f"(exit {proc.returncode}):\n{proc.stderr[-2000:]}"
        )
    result = json.loads(lines[-1])
    digest = ""
    for word in lines[-2].split():
        if word.startswith("counter_digest="):
            digest = word.split("=", 1)[1]
    return {
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "digest": digest,
        "correct": result["correct"],
        "failed": result["failed"],
    }


def quartiles(values: List[float]) -> Tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = quantiles(values, n=4, method="inclusive")
    return q1, q3


def verdict(
    a: List[float], b: List[float], sign: float, bound: Optional[float]
) -> str:
    """The module docstring's verdict on one metric; ``sign`` is +1 when
    higher is better, -1 when lower is, and ``bound`` is relative."""
    if bound is None:
        return "-"
    med_a = median(a)
    a1, a3 = quartiles(a)
    spread = a3 - a1
    gain = sign * (median(b) - med_a)
    if gain < -bound * abs(med_a):
        return "worse"
    if spread > bound * abs(med_a) and not all(
        sign * (y - x) > 0 for x in a for y in b
    ):
        return "unresolved"
    wins = sum(sign * (y - x) > 0 for x, y in zip(a, b))
    if 10 * wins >= 9 * len(a) and gain > spread:
        return "gain"
    return "ok"


def summarize(
    pairs: List[Dict[str, Dict]], declared: Dict[str, Dict]
) -> List[List[str]]:
    """One table row per metric; ``declared`` maps metric names to their
    ``BENCHMARK.json`` entries (``better``, and ``bound`` if any)."""
    rows = []
    for name in pairs[0]["A"]["metrics"]:
        a = [p["A"]["metrics"][name] for p in pairs]
        b = [p["B"]["metrics"][name] for p in pairs]
        spec = declared.get(name, {})
        sign = 1.0 if spec.get("better", "higher") == "higher" else -1.0
        wins = sum(sign * (y - x) > 0 for x, y in zip(a, b))
        med_a, med_b = median(a), median(b)
        (a1, a3), (b1, b3) = quartiles(a), quartiles(b)
        rows.append([
            name,
            f"{med_a:.6g} [{a1:.6g}, {a3:.6g}]",
            f"{med_b:.6g} [{b1:.6g}, {b3:.6g}]",
            f"{med_b / med_a:.3f}" if med_a else "-",
            f"{wins}/{len(pairs)}",
            verdict(a, b, sign, spec.get("bound")),
        ])
    return rows


def print_table(header: List[str], rows: List[List[str]]) -> None:
    widths = [max(len(str(r[i])) for r in [header] + rows) for i in range(len(header))]
    for row in [header, ["-" * w for w in widths]] + rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("rev_a", help="baseline revision (A)")
    p.add_argument("rev_b", help="candidate revision (B)")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")

    repo = Path(git("rev-parse", "--show-toplevel", cwd=Path.cwd()))
    revs = {
        side: git("rev-parse", "--verify", f"{rev}^{{commit}}", cwd=repo)
        for side, rev in zip(SIDES, (args.rev_a, args.rev_b))
    }
    with tempfile.TemporaryDirectory(prefix="ab-perfbench-") as tmp:
        checkouts = {side: Path(tmp) / side for side in SIDES}
        for side in SIDES:
            export(repo, revs[side], checkouts[side])
        spec = json.loads((checkouts["B"] / "BENCHMARK.json").read_text())
        declared = {
            m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]
        }

        print(f"A = {args.rev_a} ({revs['A'][:12]}), "
              f"B = {args.rev_b} ({revs['B'][:12]})")
        print(f"workload {args.workload}, seed {args.seed}, {args.pairs} "
              f"pairs, {args.seconds:g}s per run, trace {args.trace}")
        pairs: List[Dict[str, Dict]] = []
        for i in range(args.pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {side: run_side(checkouts[side], args) for side in order}
            pairs.append(pair)
            detail = " ".join(
                f"{side}={pair[side]['metrics'].get('accesses_per_s', 0):.4g}"
                for side in SIDES
            )
            print(f"# pair {i + 1}/{args.pairs} first={order[0]} "
                  f"accesses_per_s {detail}", flush=True)

    print()
    print_table(
        ["metric", "A median [q1, q3]", "B median [q1, q3]", "B/A", "B won",
         "verdict"],
        summarize(pairs, declared),
    )
    sim_names = [n for n in pairs[0]["A"]["metrics"] if n.startswith("sim_")]
    sim_same = sum(
        all(p["A"]["metrics"][n] == p["B"]["metrics"][n] for n in sim_names)
        for p in pairs
    )
    digest_same = sum(p["A"]["digest"] == p["B"]["digest"] for p in pairs)
    failed = {s: sum(p[s]["failed"] for p in pairs) for s in SIDES}
    print()
    if sim_names:
        print(f"sim_* metrics identical in {sim_same}/{len(pairs)} pairs")
    print(f"counter digests identical in {digest_same}/{len(pairs)} pairs "
          f"(A {pairs[0]['A']['digest'][:12]}, B {pairs[0]['B']['digest'][:12]})")
    print(f"failed accesses: A {failed['A']}, B {failed['B']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
