"""The verdict column of ``scripts/ab_perfbench.py``, on synthetic pairs."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[2] / "scripts" / "ab_perfbench.py"
_spec = importlib.util.spec_from_file_location("ab_perfbench", SCRIPT)
ab_perfbench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_perfbench)

DECLARED = {
    "accesses_per_s": {"better": "higher", "bound": 0.25},
    "setup_s": {"better": "lower", "bound": 0.25},
    "peak_rss_mb": {"better": "lower", "bound": 0.1},
    "sim_stable_gbps": {"better": "higher", "bound": 0.1},
    "sim.engine.steps": {"better": "lower"},
}


def _pairs(series):
    """Ten pairs from per-metric (A runs, B runs) lists."""
    return [
        {
            side: {"metrics": {name: runs[i][k] for name, runs in series.items()}}
            for k, side in enumerate(ab_perfbench.SIDES)
        }
        for i in range(10)
    ]


def _verdicts(series):
    rows = ab_perfbench.summarize(_pairs(series), DECLARED)
    return {row[0]: row[-1] for row in rows}


def test_summarize_verdicts():
    steady = [100.0 + i % 3 for i in range(10)]
    series = {
        # Planted regression: B runs at 70% of A, well past the 25% bound.
        "accesses_per_s": [(a, 0.7 * a) for a in steady],
        # Gain: B is faster in every pair, by far more than A's spread.
        "setup_s": [(a / 100, 0.8 * a / 100) for a in steady],
        # No change beyond noise.
        "peak_rss_mb": [(a, a) for a in steady],
        # Noisy: A's quartiles span more than the 10% bound and the two
        # sides overlap.
        "sim_stable_gbps": [(50.0 + 10 * i, 55.0 + 10 * i) for i in range(10)],
        # Per-layer metrics carry no bound and get no verdict.
        "sim.engine.steps": [(a, a) for a in steady],
    }
    assert _verdicts(series) == {
        "accesses_per_s": "worse",
        "setup_s": "gain",
        "peak_rss_mb": "ok",
        "sim_stable_gbps": "unresolved",
        "sim.engine.steps": "-",
    }


def test_noisy_baseline_resolves_when_b_dominates():
    """A wide baseline spread is no excuse when every B run beats every
    A run."""
    noisy = [50.0 + 10 * i for i in range(10)]
    series = {"sim_stable_gbps": [(a, a + 200.0) for a in noisy]}
    assert _verdicts(series) == {"sim_stable_gbps": "gain"}


def test_gain_needs_nine_of_ten_pairs():
    """A better median alone is not a gain: B must also win 9/10 pairs."""
    steady = [100.0 + i % 3 for i in range(10)]
    b = [a * 1.2 if i < 8 else a * 0.9 for i, a in enumerate(steady)]
    series = {"accesses_per_s": list(zip(steady, b))}
    assert _verdicts(series) == {"accesses_per_s": "ok"}
