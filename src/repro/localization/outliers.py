"""Iterative outlier-link detection (paper Algorithm 1).

Occluded links produce distance estimates that are too long (a
reflection masquerades as the direct path) but usually not long enough
to violate the triangle inequality, so triangle tests miss them. The
paper's insight: without outliers, the *normalised* SMACOF stress stays
below a threshold (1.5 m). When it does not, the algorithm searches
subsets of links to drop (weights set to 0), accepting a subset when it
reduces the stress by at least 90% — but only trying subsets whose
removal keeps the graph uniquely realizable, and never dropping more
than 3 links.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterator, List, Tuple

import numpy as np

from repro.constants import (
    MAX_OUTLIER_LINKS,
    OUTLIER_IMPROVEMENT_RATIO,
    OUTLIER_STRESS_THRESHOLD_M,
)
from repro.localization.rigidity import edges_from_weights, is_uniquely_realizable
from repro.localization.smacof import smacof, smacof_stack

Edge = Tuple[int, int]

#: Element budget of one stacked ``(k, n, n)`` array in the candidate
#: search.  A level's realizable subsets are solved in chunks of
#: ``max(1, STACK_ELEMENTS // n**2)``, in candidate order, so the search
#: holds O(STACK_ELEMENTS) floats per array whatever the level size.
#: Results do not depend on it (DESIGN.md section 13).
STACK_ELEMENTS = 1 << 16


def _realizable_drops(
    n: int,
    links: List[Edge],
    n_drop: int,
    dropped: List[Edge],
    weights: np.ndarray,
) -> Iterator[Tuple[List[Tuple[Edge, ...]], np.ndarray]]:
    """Chunks of the ``n_drop``-link subsets whose drop stays realizable.

    Yields ``(subsets, trial weight stack)`` in candidate order, at most
    ``max(1, STACK_ELEMENTS // n**2)`` subsets at a time.  The
    realizability test draws no random numbers.
    """
    chunk = max(1, STACK_ELEMENTS // (n * n))
    subsets: List[Tuple[Edge, ...]] = []
    trial_ws: List[np.ndarray] = []
    for subset in combinations(links, n_drop):
        if any(e in dropped for e in subset):
            continue
        trial_w = np.array(weights, copy=True)
        for i, j in subset:
            trial_w[i, j] = 0.0
            trial_w[j, i] = 0.0
        if is_uniquely_realizable(n, edges_from_weights(trial_w)):
            subsets.append(subset)
            trial_ws.append(trial_w)
            if len(subsets) == chunk:
                yield subsets, np.stack(trial_ws)
                subsets, trial_ws = [], []
    if subsets:
        yield subsets, np.stack(trial_ws)


@dataclass(frozen=True)
class OutlierResult:
    """Output of Algorithm 1.

    Attributes
    ----------
    positions:
        Final 2D embedding.
    normalized_stress:
        Normalised stress of the accepted solution (metres).
    dropped_links:
        Links identified as outliers (empty when none were needed).
    outliers_suspected:
        True when the initial stress exceeded the threshold.
    weights:
        The final weight matrix actually used.
    """

    positions: np.ndarray
    normalized_stress: float
    dropped_links: Tuple[Edge, ...] = ()
    outliers_suspected: bool = False
    weights: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))


def detect_outliers(
    distances: np.ndarray,
    weights: np.ndarray | None = None,
    stress_threshold: float = OUTLIER_STRESS_THRESHOLD_M,
    improvement_ratio: float = OUTLIER_IMPROVEMENT_RATIO,
    max_outliers: int = MAX_OUTLIER_LINKS,
    dim: int = 2,
    rng: np.random.Generator | None = None,
) -> OutlierResult:
    """Run Algorithm 1: SMACOF with iterative outlier-link dropping.

    Parameters
    ----------
    distances:
        (N, N) projected 2D distance matrix.
    weights:
        Symmetric weight matrix; zero marks missing links. Defaults to
        fully connected.
    stress_threshold:
        Normalised stress (m) below which a solution is accepted.
    improvement_ratio:
        Required relative stress reduction (paper: 0.9, i.e. the new
        stress must be at least 90% lower).
    max_outliers:
        Maximum total number of dropped links.
    """
    d = np.asarray(distances, dtype=float)
    n = d.shape[0]
    if weights is None:
        w0 = np.ones((n, n))
        np.fill_diagonal(w0, 0.0)
    else:
        w0 = np.array(weights, dtype=float, copy=True)
    rng = rng or np.random.default_rng(0)

    base = smacof(d, w0, dim=dim, rng=rng)
    if base.normalized_stress < stress_threshold:
        return OutlierResult(
            positions=base.positions,
            normalized_stress=base.normalized_stress,
            dropped_links=(),
            outliers_suspected=False,
            weights=w0,
        )

    links = edges_from_weights(w0)
    current_raw = base.stress
    current_stress = base.normalized_stress
    current_positions = base.positions
    current_weights = w0
    dropped_total: List[Edge] = []

    for n_drop in range(1, max_outliers + 1):
        best_raw = current_raw
        best_stress = current_stress
        best_positions = current_positions
        best_weights = current_weights
        best_drop: Tuple[Edge, ...] = ()
        # Only drops that keep the graph uniquely realizable are tried.
        # Each chunk's init jitter is drawn as one block in candidate
        # order, as one solve per subset would draw it.
        for subsets, trial_ws in _realizable_drops(
            n, links, n_drop, dropped_total, current_weights
        ):
            trials = smacof_stack(d, trial_ws, dim=dim, rng=rng)
            for subset, trial_w, trial in zip(subsets, trial_ws, trials):
                # The paper's acceptance test: dropping the subset must
                # cut the (raw) stress-function output by at least 90%.
                significant = current_raw - trial.stress > improvement_ratio * current_raw
                if significant and trial.stress < best_raw:
                    best_raw = trial.stress
                    best_stress = trial.normalized_stress
                    best_positions = trial.positions
                    best_weights = trial_w.copy()
                    best_drop = subset
        if not best_drop:
            # No subset of this size achieved a significant reduction.
            break
        dropped_total.extend(best_drop)
        current_raw = best_raw
        current_stress = best_stress
        current_positions = best_positions
        current_weights = best_weights
        if current_stress < stress_threshold:
            break

    return OutlierResult(
        positions=current_positions,
        normalized_stress=current_stress,
        dropped_links=tuple(dropped_total),
        outliers_suspected=True,
        weights=current_weights,
    )
