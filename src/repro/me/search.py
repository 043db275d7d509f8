"""Integer-pel motion search algorithms.

The paper fixes the estimators per codec (Section IV): EPZS (Enhanced
Predictive Zonal Search, Tourapis 2002) for MPEG-2 and MPEG-4, hexagon
search (Zhu/Lin/Chau 2002, x264's ``--me hex``) for H.264.  Exhaustive full
search is provided as the ablation baseline.

All searches share the :class:`~repro.me.cost.MotionCost` model and return
an integer-pel :class:`~repro.me.types.SearchResult`; sub-pel refinement is
layered on top by :mod:`repro.me.subpel`.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

from repro.errors import ConfigError
from repro.me.cost import MotionCost
from repro.me.types import MotionVector, SearchResult, ZERO_MV
from repro.telemetry.instrument import counting_cost
from repro.telemetry.metrics import registry as _telemetry_registry
from repro.telemetry.trace import state as _telemetry_state

#: Small diamond used for final refinement by EPZS and hexagon search.
SMALL_DIAMOND = (
    MotionVector(0, -1),
    MotionVector(-1, 0),
    MotionVector(1, 0),
    MotionVector(0, 1),
)

#: Large hexagon pattern of the hexagon search (radius-2, 6 points).
HEXAGON = (
    MotionVector(-2, 0),
    MotionVector(2, 0),
    MotionVector(-1, -2),
    MotionVector(1, -2),
    MotionVector(-1, 2),
    MotionVector(1, 2),
)


def _best(cost: MotionCost, candidates: Iterable[MotionVector],
          seed: SearchResult) -> SearchResult:
    """The first candidate strictly cheaper than all before it, or ``seed``."""
    best = seed
    candidates = list(candidates)
    for mv, value in zip(candidates, cost.evaluate_many(candidates)):
        if value < best.cost:
            best = SearchResult(mv, value)
    return best


def _refine_diamond(cost: MotionCost, start: SearchResult,
                    max_iterations: int = 64) -> SearchResult:
    """Iterative small-diamond descent until the centre is the minimum."""
    best = start
    for _ in range(max_iterations):
        improved = _best(cost, (best.mv + step for step in SMALL_DIAMOND), best)
        if improved.mv == best.mv:
            break
        best = improved
    return best


def full_search(cost: MotionCost) -> SearchResult:
    """Exhaustive search of the full +-search_range window."""
    rng = cost.search_range
    best = SearchResult(ZERO_MV, cost.evaluate(ZERO_MV))
    window = [
        MotionVector(dx, dy)
        for dy in range(-rng, rng + 1)
        for dx in range(-rng, rng + 1)
    ]
    return _best(cost, window, best)


def epzs_search(cost: MotionCost,
                extra_predictors: Sequence[MotionVector] = ()) -> SearchResult:
    """Enhanced Predictive Zonal Search.

    Examines the zero vector, the median predictor and the supplied spatial
    and temporal predictors; terminates early when the best predictor cost
    is already below an adaptive threshold, otherwise descends with the
    small diamond pattern.
    """
    candidates: List[MotionVector] = [ZERO_MV, cost.predictor]
    for mv in extra_predictors:
        candidates.append(mv.clamped(cost.search_range))
    best = SearchResult(ZERO_MV, cost.evaluate(ZERO_MV))
    best = _best(cost, candidates, best)
    # Early-termination: proportional to block size, as in Tourapis' T1.
    threshold = cost.width * cost.height
    if best.cost < threshold:
        return best
    return _refine_diamond(cost, best)


def hexagon_search(cost: MotionCost, max_iterations: int = 16) -> SearchResult:
    """Hexagon-based search: large-hexagon descent then small diamond."""
    start = cost.predictor.clamped(cost.search_range)
    start_cost, zero_cost = cost.evaluate_many((start, ZERO_MV))
    best = SearchResult(start, start_cost)
    if zero_cost < best.cost:
        best = SearchResult(ZERO_MV, zero_cost)
    for _ in range(max_iterations):
        improved = _best(cost, (best.mv + step for step in HEXAGON), best)
        if improved.mv == best.mv:
            break
        best = improved
    return _refine_diamond(cost, best, max_iterations=4)


_ALGORITHMS = {
    "full": lambda cost, extra: full_search(cost),
    "epzs": lambda cost, extra: epzs_search(cost, extra),
    "hex": lambda cost, extra: hexagon_search(cost),
}

ALGORITHM_NAMES = tuple(sorted(_ALGORITHMS))


def run_search(algorithm: str, cost: MotionCost,
               extra_predictors: Sequence[MotionVector] = ()) -> SearchResult:
    """Dispatch a search by algorithm name ("full", "epzs" or "hex").

    While telemetry is enabled, every dispatch tallies the search count
    and the number of candidate points evaluated
    (``me.search.calls`` / ``me.search.points`` plus per-algorithm
    variants); disabled, the dispatch is a single flag check.
    """
    try:
        search = _ALGORITHMS[algorithm]
    except KeyError:
        known = ", ".join(ALGORITHM_NAMES)
        raise ConfigError(f"unknown ME algorithm {algorithm!r} (known: {known})") from None
    if not _telemetry_state.enabled:
        return search(cost, extra_predictors)
    counted = counting_cost(cost)
    result = search(counted, extra_predictors)
    reg = _telemetry_registry()
    reg.counter("me.search.calls").inc()
    reg.counter("me.search.points").inc(counted.points)
    reg.counter(f"me.{algorithm}.calls").inc()
    reg.counter(f"me.{algorithm}.points").inc(counted.points)
    return result
