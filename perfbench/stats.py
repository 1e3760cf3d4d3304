"""Order statistics of the benchmark's report."""

from __future__ import annotations

import statistics

TAIL_BEYOND = 10  # samples that must lie beyond a reported tail percentile


def tail_percentile(samples: list[float]) -> tuple[float, float]:
    """Highest nearest-rank percentile with at least TAIL_BEYOND samples beyond it.

    With n samples that is rank n - 10 (1-based), i.e. percentile
    100 * (n - 10) / n: p90 for 100 samples.  Returns (percentile, value).
    With TAIL_BEYOND or fewer samples no rank qualifies and the maximum is
    returned as percentile 100.
    """
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    rank = len(ordered) - TAIL_BEYOND
    if rank < 1:
        return 100.0, ordered[-1]
    return 100.0 * rank / len(ordered), ordered[rank - 1]


def window_medians(values: list[float], half: int) -> list[float]:
    """The median of each value and up to ``half`` neighbours on either side."""
    return [statistics.median(values[max(0, i - half):i + half + 1]) for i in range(len(values))]
