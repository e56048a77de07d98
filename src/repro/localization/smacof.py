"""Weighted SMACOF multidimensional scaling.

SMACOF (Scaling by MAjorizing a COmplicated Function) minimises the
weighted stress::

    S(X) = sum_{i<j} w_ij (delta_ij - ||x_i - x_j||)^2

by iteratively minimising a convex majorising function — the Guttman
transform ``X <- V^+ B(X) X`` — which converges monotonically and, per
the paper, faster and more accurately than steepest descent on the raw
stress. Missing links are handled by zero weights (paper section 2.1.2).

The *normalised stress* reported here is ``sqrt(S / n_links)``, which
has units of metres (RMS per-link distance residual) and is the
statistic Algorithm 1 thresholds at 1.5 m.

Every solve runs through one kernel, :func:`_guttman`, on a
``(k, n, dim)`` stack of configurations: :func:`smacof` is its
``k = 1`` call, and :func:`smacof_stack` solves Algorithm 1's candidate
weight matrices together.  Slices never mix, so each result has the
bits of a solve on its own (DESIGN.md section 13).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.errors import LocalizationError
from repro.geometry.topology import full_weight_matrix

#: Default iteration cap and relative-stress-decrease tolerance.
MAX_ITER = 300
TOL = 1e-7


@dataclass(frozen=True)
class SmacofResult:
    """Output of a SMACOF run.

    Attributes
    ----------
    positions:
        (N, dim) embedding.
    stress:
        Final raw stress value.
    normalized_stress:
        ``sqrt(stress / n_links)`` in metres.
    n_iter:
        Iterations executed.
    converged:
        Whether the relative stress change dropped below tolerance.
    """

    positions: np.ndarray
    stress: float
    normalized_stress: float
    n_iter: int
    converged: bool


def _validate_inputs(distances: np.ndarray, weights: np.ndarray) -> None:
    """Check one ``(n, n)`` weight matrix or a ``(k, n, n)`` stack of them."""
    if distances.ndim != 2 or distances.shape[0] != distances.shape[1]:
        raise ValueError("distances must be a square matrix")
    if weights.shape[-2:] != distances.shape:
        raise ValueError("weights must match distances in shape")
    if np.any(weights < 0):
        raise ValueError("weights must be non-negative")
    if not np.allclose(weights, np.swapaxes(weights, -1, -2)):
        raise ValueError("weights must be symmetric")
    active = weights > 0
    linked = np.broadcast_to(distances, weights.shape)[active]
    if np.any(~np.isfinite(linked)):
        raise ValueError("active links must have finite distances")
    if np.any(linked < 0):
        raise ValueError("distances must be non-negative")


def _checked_inputs(distances, weights) -> tuple[np.ndarray, np.ndarray]:
    """Float arrays of validated inputs with enough nodes to embed."""
    d = np.asarray(distances, dtype=float)
    w = np.asarray(weights, dtype=float)
    _validate_inputs(d, w)
    if d.shape[0] < 3:
        raise LocalizationError("need at least 3 nodes to embed in 2D")
    return d, w


def _pairwise(x: np.ndarray) -> np.ndarray:
    """Distances between the rows of each ``(n, dim)`` slice of ``x``.

    Bitwise equal to ``np.linalg.norm(diff, axis=-1)``, which numpy
    computes as exactly this square root of a last-axis sum.
    """
    diff = x[..., :, None, :] - x[..., None, :, :]
    return np.sqrt(np.add.reduce(diff * diff, axis=-1))


def _stress(dist, distances, upper, upper_weights) -> np.ndarray:
    """Raw stress of each slice, given its pairwise distances.

    Each slice's residuals are summed as one flattened ``n * n`` row, the
    same reduction ``np.sum`` runs over a 2-D array, so a slice of a
    stack has the bits of the single-matrix sum.
    """
    resid = np.where(upper, distances - dist, 0.0)
    terms = upper_weights * resid**2
    return np.add.reduce(terms.reshape(terms.shape[:-2] + (-1,)), axis=-1)


def stress_value(positions: np.ndarray, distances: np.ndarray, weights: np.ndarray) -> float:
    """Weighted raw stress of an embedding."""
    upper = np.triu(weights, k=1) > 0
    return float(_stress(_pairwise(positions), distances, upper, np.where(upper, weights, 0.0)))


def normalized_stress(stress: float, weights: np.ndarray) -> float:
    """RMS per-link residual in metres: ``sqrt(stress / n_links)``."""
    n_links = int(np.count_nonzero(np.triu(weights, k=1)))
    if n_links == 0:
        raise LocalizationError("no links in the network")
    return float(np.sqrt(stress / n_links))


def _graph_complete_distances(distances: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Fill missing entries with shortest-path distances for MDS init."""
    n = distances.shape[0]
    completed = np.array(distances, dtype=float, copy=True)
    missing = weights == 0
    np.fill_diagonal(missing, False)
    if missing.any():
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(range(n))
        for i in range(n):
            for j in range(i + 1, n):
                if weights[i, j] > 0:
                    graph.add_edge(i, j, weight=float(distances[i, j]))
        if not nx.is_connected(graph):
            raise LocalizationError("measurement graph is disconnected")
        lengths = dict(nx.all_pairs_dijkstra_path_length(graph))
        for i, j in zip(*np.nonzero(missing)):
            completed[i, j] = lengths[i][j]
    np.fill_diagonal(completed, 0.0)
    return completed


def classical_mds(distances: np.ndarray, dim: int = 2) -> np.ndarray:
    """Torgerson classical MDS embedding of a complete distance matrix.

    Used as the SMACOF initialiser. Eigenvalues below zero (from
    measurement noise / non-euclidean input) are clamped.
    """
    d = np.asarray(distances, dtype=float)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ValueError("distances must be square")
    n = d.shape[0]
    if dim >= n:
        raise ValueError("dim must be smaller than the number of points")
    j = np.eye(n) - np.ones((n, n)) / n
    b = -0.5 * j @ (d**2) @ j
    eigvals, eigvecs = np.linalg.eigh(b)
    order = np.argsort(eigvals)[::-1][:dim]
    vals = np.clip(eigvals[order], 0.0, None)
    return eigvecs[:, order] * np.sqrt(vals)


def _initial_positions(distances, weights, dim, rng) -> np.ndarray:
    """Jittered classical-MDS starts for a ``(k, n, n)`` weight stack.

    The jitter is one ``(k, n, dim)`` normal block: the same numbers,
    and the same final generator state, as ``k`` draws of ``(n, dim)``
    in stack order.
    """
    x = np.stack([classical_mds(_graph_complete_distances(distances, w), dim=dim) for w in weights])
    return x + rng.normal(0.0, 1e-6, size=x.shape)


def _diagonal(stack: np.ndarray) -> np.ndarray:
    """Writable ``(k, n)`` view of the diagonals of a contiguous ``(k, n, n)`` stack."""
    n = stack.shape[-1]
    return stack.reshape(stack.shape[0], n * n)[:, :: n + 1]


def _guttman(x, distances, weights, max_iter, tol) -> List[SmacofResult]:
    """Run the Guttman transform on a ``(k, n, dim)`` stack of starts.

    Slice ``i`` solves ``weights[i]`` exactly as an unstacked solve
    would: stacked matmul, ``pinv``, row sums and flattened per-slice
    sums all reduce each slice on its own, in the same order as the
    2-D calls.  A slice leaves the active set on the iteration it
    converges; the rest iterate on.
    """
    k, n = x.shape[:2]
    weights = np.ascontiguousarray(weights)
    upper = np.triu(weights, k=1) > 0
    upper_weights = np.where(upper, weights, 0.0)
    d_clean = np.where(weights > 0, np.nan_to_num(distances, nan=0.0), 0.0)
    # -w with a +0.0 diagonal.  The ratio's diagonal is +0.0 too (a
    # point's distance to itself is 0), so B's off-diagonal product
    # leaves the +0.0 diagonal that B's row sums expect.
    neg_w = -weights
    _diagonal(neg_w)[:] = 0.0

    # V depends only on the weights.
    v = neg_w.copy()
    _diagonal(v)[:] = -v.sum(axis=-1)
    v_pinv = np.linalg.pinv(v)

    dist = _pairwise(x)
    prev = _stress(dist, d_clean, upper, upper_weights)
    positions = np.empty_like(x)
    stress = prev.copy()
    n_iter = np.zeros(k, dtype=int)
    converged = np.zeros(k, dtype=bool)
    rows = np.arange(k)
    for iteration in range(1, max_iter + 1):
        ratio = np.divide(d_clean, dist, out=np.zeros(dist.shape), where=dist > 1e-12)
        b = neg_w * ratio
        _diagonal(b)[:] = -b.sum(axis=-1)
        x = v_pinv @ (b @ x)
        dist = _pairwise(x)
        current = _stress(dist, d_clean, upper, upper_weights)
        done = (prev > 0) & ((prev - current) / np.maximum(prev, 1e-15) < tol)
        prev = current
        if done.any():
            finished = rows[done]
            positions[finished] = x[done]
            stress[finished] = current[done]
            n_iter[finished] = iteration
            converged[finished] = True
            keep = ~done
            rows, x, dist, prev = rows[keep], x[keep], dist[keep], prev[keep]
            d_clean, neg_w, v_pinv = d_clean[keep], neg_w[keep], v_pinv[keep]
            upper, upper_weights = upper[keep], upper_weights[keep]
            if rows.size == 0:
                break
    else:
        # Slices still active ran out of iterations (or none were allowed).
        positions[rows] = x
        stress[rows] = prev
        n_iter[rows] = max_iter

    return [
        SmacofResult(
            positions=positions[i],
            stress=float(stress[i]),
            normalized_stress=normalized_stress(float(stress[i]), weights[i]),
            n_iter=int(n_iter[i]),
            converged=bool(converged[i]),
        )
        for i in range(k)
    ]


def smacof(
    distances: np.ndarray,
    weights: np.ndarray | None = None,
    dim: int = 2,
    init: np.ndarray | None = None,
    max_iter: int = MAX_ITER,
    tol: float = TOL,
    rng: np.random.Generator | None = None,
) -> SmacofResult:
    """Minimise weighted stress with the Guttman transform.

    Parameters
    ----------
    distances:
        Target dissimilarities (metres). Entries with zero weight are
        ignored (may be NaN).
    weights:
        Symmetric non-negative weight matrix; defaults to fully
        connected. Zero marks a missing link.
    dim:
        Embedding dimension (2 for this system).
    init:
        Optional initial configuration; defaults to classical MDS on the
        shortest-path-completed matrix (plus a tiny jitter to escape
        collinear degeneracies).
    max_iter / tol:
        Iteration controls; ``tol`` is the relative stress decrease that
        counts as convergence.
    """
    n = np.shape(distances)[0]
    d, w = _checked_inputs(distances, full_weight_matrix(n) if weights is None else weights)
    rng = rng or np.random.default_rng(0)

    if init is None:
        x = _initial_positions(d, w[None], dim, rng)
    else:
        x = np.array(init, dtype=float, copy=True)
        if x.shape != (n, dim):
            raise ValueError(f"init must be ({n}, {dim})")
        x = x[None]
    return _guttman(x, d, w[None], max_iter, tol)[0]


def smacof_stack(
    distances: np.ndarray,
    weights: np.ndarray,
    dim: int = 2,
    rng: np.random.Generator | None = None,
) -> List[SmacofResult]:
    """Solve one distance matrix under each of a stack of weight matrices.

    ``weights`` is ``(k, n, n)``.  The results, and the state ``rng`` is
    left in, are bitwise those of ``k`` sequential :func:`smacof` calls
    in stack order sharing ``rng``; the Guttman iterations run as one
    stacked transform.  An empty stack draws nothing.
    """
    if np.ndim(weights) != 3:
        raise ValueError("weights must be a (k, n, n) stack")
    d, w = _checked_inputs(distances, weights)
    if w.shape[0] == 0:
        return []
    rng = rng or np.random.default_rng(0)
    return _guttman(_initial_positions(d, w, dim, rng), d, w, MAX_ITER, TOL)
