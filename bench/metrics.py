"""The layers the traced run reports, and the rules that turn samples into metrics."""

from __future__ import annotations

import statistics

LAYERS = ("cli", "match_data", "trainer", "model_io", "analytics", "baselines", "valuation")

#: Candidate tail percentiles, in per-mille so the rank arithmetic is exact.
TAIL_LADDER_PER_MILLE = (500, 750, 900, 950, 990, 999)
TAIL_MIN_BEYOND = 10


def tail_percentile(samples) -> tuple[float, float]:
    """The highest ladder percentile with at least 10 samples beyond it.

    Returns ``(percentile, value)``.  The value is the nearest-rank
    percentile: the ``ceil(p * n)``-th smallest sample, so exactly
    ``n - ceil(p * n)`` samples lie beyond it.
    """
    ordered = sorted(samples)
    n = len(ordered)
    best = None
    for per_mille in TAIL_LADDER_PER_MILLE:
        rank = -(-per_mille * n // 1000)
        if n - rank >= TAIL_MIN_BEYOND:
            best = (per_mille / 10, ordered[rank - 1])
    if best is None:
        raise ValueError(
            f"{n} samples: a tail percentile needs at least {TAIL_MIN_BEYOND} samples beyond the median"
        )
    return best


def median(values) -> float:
    return float(statistics.median(values))


def probe_scaled(timeline, reference: float) -> dict[int, float]:
    """Each sample's time at the host speed where the probe takes ``reference`` s.

    ``timeline`` holds, in the order they ran, probe times (floats) and
    samples (objects with ``seconds``); a probe runs before and after every
    sample.  A sample's time is multiplied by ``reference`` over the mean of
    the probes just before and after it.  Returns ``{id(sample): seconds}``.
    """
    scaled, before, pending = {}, None, []
    for item in timeline:
        if isinstance(item, float):
            for sample in pending:
                scaled[id(sample)] = sample.seconds * reference / ((before + item) / 2)
            before, pending = item, []
        elif before is None:
            raise ValueError("a sample ran before the first probe")
        else:
            pending.append(item)
    if pending:
        raise ValueError("a sample ran after the last probe")
    return scaled
