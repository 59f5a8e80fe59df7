"""Sample statistics with the harness's sample-count rule.

Every timing the harness prints carries the number of samples behind it,
and a percentile is refused, not printed, unless at least
:data:`MIN_BEYOND` samples lie beyond it: a p90 needs 100 samples, a p99
needs 1000.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Sequence

#: samples that must lie beyond a percentile before it is reported
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """A percentile was asked of fewer samples than the rule allows."""


def samples_beyond(n: int, pct: int) -> int:
    """How many of *n* ranked samples lie beyond the *pct*-th percentile."""
    return n * (100 - pct) // 100


def percentile(values: Sequence[float], pct: int) -> float:
    """Nearest-rank *pct*-th percentile (integer percent, 1..99).

    Raises :class:`TooFewSamples` when fewer than :data:`MIN_BEYOND`
    samples lie beyond it.
    """
    if not 0 < pct < 100:
        raise ValueError(f"percentile must be in 1..99, got {pct}")
    n = len(values)
    beyond = samples_beyond(n, pct)
    if beyond < MIN_BEYOND:
        raise TooFewSamples(
            f"p{pct} of {n} samples has {beyond} beyond it; "
            f"the rule needs {MIN_BEYOND}"
        )
    ranked = sorted(values)
    return ranked[max(0, math.ceil(pct * n / 100) - 1)]


def median(values: Sequence[float]) -> float:
    if not values:
        raise TooFewSamples("median of no samples")
    return statistics.median(values)


@dataclass(frozen=True)
class Metric:
    """One reported number: its value, unit and the samples behind it."""

    name: str
    value: float
    unit: str
    samples: int
    #: the value before it was scaled to the nominal host, if it was
    measured: float | None = None

    def line(self) -> str:
        text = f"{self.name:28s} {self.value:14.6f} {self.unit:6s} (n={self.samples})"
        if self.measured is not None:
            text += f"  measured {self.measured:.6f}"
        return text


def report(metrics: Sequence[Metric]) -> dict[str, dict[str, float | str]]:
    """The ``metrics`` object of the harness's result line."""
    return {m.name: {"value": m.value, "unit": m.unit} for m in metrics}
