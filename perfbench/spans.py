"""Aggregates over the spans a traced run records.

A traced run opens its spans on a harness-owned
:class:`repro.obs.tracing.Tracer` (never activated, so the library's own
spans stay out of it).  Each span carries the id of the program it
belongs to as its ``program`` attribute.  A span with ``on_path=False``
times a call that is not on the verdict path of the workload (an extra
run made only to count work); its time counts for its own layer but not
toward the program's path total.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path
from typing import Sequence

from repro.obs.tracing import Span


def self_times(spans: Sequence[Span]) -> dict[int, float]:
    """Span id -> duration minus the time its child spans cover."""
    child_time: dict[int, float] = {}
    for sp in spans:
        if sp.parent_id is not None:
            child_time[sp.parent_id] = child_time.get(sp.parent_id, 0.0) + sp.duration_s
    return {sp.span_id: sp.duration_s - child_time.get(sp.span_id, 0.0) for sp in spans}


def per_program_ms(spans: Sequence[Span], name: str) -> list[float]:
    """Self time of every span called *name*, summed per program, in ms."""
    selfs = self_times(spans)
    totals: dict[str, float] = {}
    for sp in spans:
        if sp.name == name:
            program = sp.attrs["program"]
            totals[program] = totals.get(program, 0.0) + selfs[sp.span_id]
    return [t * 1000.0 for t in totals.values()]


def path_ms(spans: Sequence[Span]) -> dict[str, float]:
    """Per program, the summed self time of its on-path spans, in ms."""
    selfs = self_times(spans)
    totals: dict[str, float] = {}
    for sp in spans:
        if sp.attrs.get("on_path", True):
            program = sp.attrs["program"]
            totals[program] = totals.get(program, 0.0) + selfs[sp.span_id]
    return {p: t * 1000.0 for p, t in totals.items()}


def dump(spans: Sequence[Span], path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps([asdict(sp) for sp in spans]) + "\n")
