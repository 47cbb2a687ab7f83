"""Render telemetry snapshots as sorted self-time breakdowns.

``repro obs report telemetry.json`` lands here: given a per-run
snapshot (:meth:`~repro.obs.telemetry.Telemetry.snapshot`) or a
sweep-level roll-up (:func:`~repro.obs.telemetry.merge_snapshots`), the
renderer prints the spans ranked by *self* time — where the run
actually spent its wall clock, each phase counted exactly once — plus
the counters (each also per second of ``wall_s``) and gauge summaries.
Snapshots of the older schema 1 carry a ``rates`` block, which is
ignored.
"""

from __future__ import annotations

import json
import logging
import os
import tempfile
from pathlib import Path

logger = logging.getLogger(__name__)

_SPAN_HEADERS = ["Span", "Calls", "Total (s)", "Self (s)", "Self %", "Max (ms)"]


def phase_coverage(snapshot: dict, root: str = "run") -> float:
    """Fraction of the root span's time attributed to child phases.

    Self-time accounting makes this exact: time inside ``root`` that no
    child span claimed is ``root``'s own self time, so coverage is
    ``1 - self/total``. Returns 0.0 when the root span is absent or
    empty. The acceptance bar for the instrumented event loop is >= 0.9
    — at least 90% of the run's wall clock lands in a named phase.
    """
    stat = snapshot.get("spans", {}).get(root)
    if not stat or stat["total_s"] <= 0.0:
        return 0.0
    return 1.0 - stat["self_s"] / stat["total_s"]


def span_rows(snapshot: dict, top: int | None = None) -> list[list]:
    """Span table rows sorted by self time, descending."""
    wall = snapshot.get("wall_s", 0.0)
    stats = sorted(
        snapshot.get("spans", {}).items(),
        key=lambda item: item[1]["self_s"],
        reverse=True,
    )
    if top is not None:
        stats = stats[:top]
    rows = []
    for name, stat in stats:
        share = stat["self_s"] / wall if wall > 0.0 else 0.0
        rows.append(
            [
                name,
                stat["calls"],
                f"{stat['total_s']:.4f}",
                f"{stat['self_s']:.4f}",
                f"{share:6.1%}",
                f"{stat['max_s'] * 1e3:.3f}",
            ]
        )
    return rows


def render_report(snapshot: dict, top: int | None = None) -> str:
    """Full text report: spans by self time, counters, gauges."""
    # Imported here, not at module top: ``repro.sim`` imports the
    # telemetry sibling of this module, and ``repro.harness`` imports
    # ``repro.sim`` — a module-level import would tie the knot.
    from repro.harness.report import format_table

    lines = []
    wall = snapshot.get("wall_s", 0.0)
    header = f"telemetry: {wall:.3f} s wall"
    if "n_runs" in snapshot:
        header += f" across {snapshot['n_runs']} runs"
    coverage = phase_coverage(snapshot)
    if coverage > 0.0:
        header += f", {coverage:.1%} of the run span attributed to phases"
    lines.append(header)
    lines.append("")
    if snapshot.get("spans"):
        lines.append(format_table(_SPAN_HEADERS, span_rows(snapshot, top)))
    else:
        lines.append("(no spans recorded)")
    if snapshot.get("counters"):
        lines.append("")
        lines.append(
            format_table(
                ["Counter", "Count", "Per s"],
                [
                    [name, count, f"{count / wall:.1f}" if wall > 0.0 else "0.0"]
                    for name, count in snapshot["counters"].items()
                ],
            )
        )
    if snapshot.get("gauges"):
        lines.append("")
        lines.append(
            format_table(
                ["Gauge", "Last", "Min", "Mean", "Max", "Samples"],
                [
                    [
                        name,
                        f"{g['last']:.1f}",
                        f"{g['min']:.1f}",
                        f"{g['mean']:.1f}",
                        f"{g['max']:.1f}",
                        g["n"],
                    ]
                    for name, g in snapshot["gauges"].items()
                ],
            )
        )
    return "\n".join(lines)


def load_snapshot(path: str | Path, heal: bool = False) -> dict | None:
    """Read a telemetry JSON artifact, validating its basic shape.

    With ``heal=True`` (the sweep roll-up path) a truncated or
    otherwise corrupt snapshot — a worker killed mid-write before
    snapshots became atomic, manual tampering — is discarded with a
    warning and ``None`` is returned instead of raising, matching
    ``ResultStore.get`` self-healing.

    Raises
    ------
    ValueError
        If the file is not a telemetry snapshot (missing ``spans``)
        and ``heal`` is False.
    """
    path = Path(path)
    try:
        with path.open() as fh:
            payload = json.load(fh)
    except json.JSONDecodeError:
        if heal:
            logger.warning("telemetry snapshot %s is corrupt; discarding", path)
            try:
                path.unlink()
            except OSError:
                pass
            return None
        raise
    if not isinstance(payload, dict) or "spans" not in payload:
        if heal:
            logger.warning(
                "telemetry snapshot %s has no 'spans' key; discarding", path
            )
            try:
                path.unlink()
            except OSError:
                pass
            return None
        raise ValueError(f"{path}: not a telemetry snapshot (no 'spans' key)")
    return payload


def write_snapshot(snapshot: dict, path: str | Path) -> Path:
    """Atomically write a snapshot as an indented, sorted-key artifact.

    Temp file + ``os.replace``, like the result store: a reader (or a
    resumed sweep rolling snapshots up) can never observe a torn write.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(json.dumps(snapshot, indent=1, sort_keys=True) + "\n")
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except FileNotFoundError:
            pass
        raise
    return path
