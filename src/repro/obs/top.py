"""``repro top``: a live, terminal-only view of a running cell.

Tails the machine-wide window view of :mod:`repro.obs.windows`
(:class:`~repro.obs.windows.TimeSeriesAggregator`) through its
``on_window`` feed and redraws one dashboard frame per closed window:
migration and fault rates for the window, the abort rate with a trend
bar, boundary queue/shadow gauges, and the window's TPM latency
percentiles. Pure
stdlib -- on a TTY the frame is repainted in place with ANSI
cursor-home + clear; on anything else (pipes, CI logs, tests) each
frame is printed sequentially with a separator, so the command is
usable and assertable without a terminal.

Rendering is split from driving: :func:`render_frame` is a pure
``rows -> str`` function (unit-testable), :func:`run_top` wires it to a
machine/workload pair and runs the simulation. The consumer only reads
closed window rows, so a ``repro top`` run is simulation-identical to
the same cell run without it (the invariance test pins the window view).
"""

from __future__ import annotations

import sys
from typing import Any, Dict, List, Optional, Sequence, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from ..system import Machine

__all__ = ["render_frame", "run_top"]

_CLEAR = "\x1b[H\x1b[J"  # cursor home + erase below: flicker-free redraw

# (label, row column, format) for the per-window rate table.
_RATE_FIELDS = (
    ("promotions", "promotions", "{:.0f}"),
    ("demotions", "demotions", "{:.0f}"),
    ("tpm commits", "tpm_commits", "{:.0f}"),
    ("tpm aborts", "tpm_aborts", "{:.0f}"),
    ("shadow faults", "shadow_faults", "{:.0f}"),
    ("faults (all)", "faults", "{:.0f}"),
)

_GAUGE_FIELDS = (
    ("MPQ depth", "nomad_mpq_depth", "{:.0f}"),
    ("PCQ depth", "nomad_pcq_depth", "{:.0f}"),
    ("shadow pages", "nomad_shadow_pages", "{:.0f}"),
    ("fast free", "mem_fast_free_pages", "{:.0f}"),
)


def _fmt(row: Dict[str, Any], col: str, fmt: str) -> str:
    value = row.get(col)
    if value is None:
        return "-"
    return fmt.format(value)


def _trend_bar(values: Sequence[float], width: int = 24) -> str:
    """ASCII trend of the last ``width`` values scaled to their max."""
    tail = list(values)[-width:]
    if not tail:
        return ""
    peak = max(tail)
    if peak <= 0:
        return "." * len(tail)
    levels = " .:-=+*#%@"
    out = []
    for v in tail:
        idx = int((v / peak) * (len(levels) - 1) + 0.5)
        out.append(levels[max(0, min(idx, len(levels) - 1))])
    return "".join(out)


def render_frame(
    machine: "Machine",
    rows: Sequence[Dict[str, Any]],
    width: int = 72,
) -> str:
    """One dashboard frame from the closed windows seen so far (pure)."""
    policy = type(machine.policy).__name__ if machine.policy else "none"
    lines: List[str] = []
    bar = "-" * width
    if not rows:
        lines.append(f"repro top | policy {policy} | waiting for first window")
        return "\n".join(lines) + "\n"
    row = rows[-1]
    window = row["t_end"] - row["t_start"]
    lines.append(
        f"repro top | policy {policy} | sim {row['t_end']:.0f} cyc "
        f"| window {window:.0f} cyc | #{len(rows)}"
    )
    lines.append(bar)
    lines.append("rates/window")
    for label, col, fmt in _RATE_FIELDS:
        lines.append(f"  {label:<14} {_fmt(row, col, fmt):>12}")
    lines.append(
        f"  {'abort rate':<14} {_fmt(row, 'abort_rate', '{:.3f}'):>12}   "
        f"[{_trend_bar([r.get('abort_rate') or 0.0 for r in rows])}]"
    )
    lines.append("gauges (window end)")
    for label, col, fmt in _GAUGE_FIELDS:
        lines.append(f"  {label:<14} {_fmt(row, col, fmt):>12}")
    lines.append("tpm migration latency (spans closed this window)")
    lines.append(
        f"  {'p50':<14} {_fmt(row, 'tpm_p50_cycles', '{:.0f}'):>12} cyc"
    )
    lines.append(
        f"  {'p99':<14} {_fmt(row, 'tpm_p99_cycles', '{:.0f}'):>12} cyc"
    )
    lines.append(
        f"  {'closed':<14} {_fmt(row, 'spans_closed', '{:.0f}'):>12}"
    )
    lines.append(bar)
    return "\n".join(lines) + "\n"


def run_top(
    machine: "Machine",
    workload,
    window_cycles: float = 100_000.0,
    out=None,
    ansi: Optional[bool] = None,
    refresh_windows: int = 1,
) -> int:
    """Run ``workload`` on ``machine``, redrawing a frame per window.

    ``ansi=None`` auto-detects a TTY on ``out`` (default stdout);
    ``refresh_windows`` redraws every Nth window (coarser refresh for
    slow terminals). Returns the number of frames drawn.
    """
    if out is None:
        out = sys.stdout
    if ansi is None:
        ansi = bool(getattr(out, "isatty", lambda: False)())
    if refresh_windows < 1:
        raise ValueError("refresh_windows must be >= 1")
    agg = machine.obs.enable_timeseries(window_cycles=window_cycles)
    frames = 0
    seen = 0

    def _on_window(_row: Dict[str, Any]) -> None:
        nonlocal frames, seen
        seen += 1
        if seen % refresh_windows:
            return
        frame = render_frame(machine, agg.as_rows())
        if ansi:
            out.write(_CLEAR + frame)
        else:
            out.write(frame + "\n")
        out.flush()
        frames += 1

    agg.on_window(_on_window)
    machine.run_workload(workload)
    agg.finish()
    # Final frame: the last (possibly partial) window always lands.
    frame = render_frame(machine, agg.as_rows())
    out.write((_CLEAR + frame) if ansi else (frame + "\n"))
    out.flush()
    return frames + 1
