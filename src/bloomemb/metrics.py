"""Ranking measures.

Average precision (MAP) scores one ranked item list; the reciprocal rank
(RR) of one item is the average precision of that item alone. An
:class:`EvaluationResult` names its measure "MAP" or "RR". Runs
are compared in relative terms (score ratio S_i/S_0 against a
no-embedding baseline, dimensionality ratio m/d, time ratio T_i/T_0);
:func:`bloomemb.experiment.run_sweep` computes those ratios per cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class EvaluationResult:
    score: float
    measure: str
    n_evaluated: int
    wall_time: float

    def __post_init__(self):
        if not 0.0 <= self.score <= 1.0:
            raise ValueError(f"{self.measure} must lie in [0, 1], got {self.score}")
        if self.wall_time < 0:
            raise ValueError("wall_time must be >= 0")


def average_precision(ranked: Sequence[int], relevant: set[int]) -> float:
    """Mean, over relevant items, of the precision at each one's rank.

    Relevant items missing from `ranked` contribute 0, so a truncated
    ranking can only lower the value.
    """
    if not relevant:
        raise ValueError("relevant set must be nonempty")
    hits = 0
    total = 0.0
    for position, item in enumerate(ranked, start=1):
        if item in relevant:
            hits += 1
            total += hits / position
    return total / len(relevant)
