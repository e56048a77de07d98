"""Tests for weighted SMACOF and classical MDS."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import LocalizationError
from repro.geometry.procrustes import procrustes_error
from repro.geometry.topology import full_weight_matrix, pairwise_distance_matrix
from repro.localization.smacof import (
    MAX_ITER,
    TOL,
    _guttman,
    _initial_positions,
    classical_mds,
    normalized_stress,
    smacof,
    smacof_stack,
    stress_value,
)


def _square():
    return np.array([[0.0, 0.0], [10.0, 0.0], [10.0, 10.0], [0.0, 10.0]])


def _pentagon():
    angles = np.linspace(0, 2 * np.pi, 6)[:-1]
    return 8.0 * np.column_stack([np.cos(angles), np.sin(angles)])


class TestClassicalMds:
    def test_exact_recovery(self):
        pts = _pentagon()
        d = pairwise_distance_matrix(pts)
        embedding = classical_mds(d)
        assert procrustes_error(embedding, pts).max() < 1e-8

    def test_dim_validation(self):
        with pytest.raises(ValueError):
            classical_mds(np.zeros((3, 3)), dim=3)
        with pytest.raises(ValueError):
            classical_mds(np.zeros((3, 4)))


class TestSmacof:
    def test_exact_distances_recovered(self):
        pts = _square()
        d = pairwise_distance_matrix(pts)
        result = smacof(d)
        assert result.normalized_stress < 1e-4
        assert procrustes_error(result.positions, pts).max() < 1e-3

    def test_missing_link_still_recovered(self):
        pts = _pentagon()
        d = pairwise_distance_matrix(pts)
        w = full_weight_matrix(5)
        w[0, 2] = w[2, 0] = 0.0
        result = smacof(d, w)
        assert procrustes_error(result.positions, pts).max() < 1e-2

    def test_weights_ignore_bogus_entries(self):
        pts = _square()
        d = pairwise_distance_matrix(pts)
        w = full_weight_matrix(4)
        d_corrupt = d.copy()
        d_corrupt[0, 2] = d_corrupt[2, 0] = np.nan  # missing -> NaN ok
        w[0, 2] = w[2, 0] = 0.0
        result = smacof(d_corrupt, w)
        assert procrustes_error(result.positions, pts).max() < 1e-2

    def test_noisy_distances_reasonable(self):
        rng = np.random.default_rng(0)
        pts = _pentagon()
        d = pairwise_distance_matrix(pts) + rng.normal(0, 0.2, (5, 5))
        d = np.abs(np.triu(d, 1))
        d = d + d.T
        result = smacof(d)
        assert procrustes_error(result.positions, pts).max() < 1.0

    def test_stress_monotone_through_iterations(self):
        # Run with explicit init and verify reported stress <= init stress.
        rng = np.random.default_rng(1)
        pts = _pentagon()
        d = pairwise_distance_matrix(pts)
        init = rng.uniform(-10, 10, (5, 2))
        w = full_weight_matrix(5)
        init_stress = stress_value(init, d, w)
        result = smacof(d, init=init)
        assert result.stress <= init_stress

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            smacof(np.zeros((3, 4)))
        d = pairwise_distance_matrix(_square())
        with pytest.raises(ValueError):
            smacof(d, weights=-np.ones((4, 4)))
        with pytest.raises(LocalizationError):
            smacof(np.zeros((2, 2)))

    def test_disconnected_graph_rejected(self):
        d = pairwise_distance_matrix(_square())
        w = np.zeros((4, 4))
        w[0, 1] = w[1, 0] = 1.0
        w[2, 3] = w[3, 2] = 1.0
        with pytest.raises(LocalizationError):
            smacof(d, w)

    def test_normalized_stress_units(self):
        # Uniform residual of r metres on every link -> normalised
        # stress ~ r.
        pts = _square()
        d = pairwise_distance_matrix(pts) + 0.5
        np.fill_diagonal(d, 0.0)
        w = full_weight_matrix(4)
        s = stress_value(pts, d, w)
        assert normalized_stress(s, w) == pytest.approx(0.5)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(4, 8))
    def test_random_configs_recovered(self, seed, n):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-20, 20, (n, 2))
        # Skip nearly-degenerate (collinear) draws.
        spread = np.linalg.svd(pts - pts.mean(0), compute_uv=False)
        if spread[-1] < 2.0:
            return
        d = pairwise_distance_matrix(pts)
        result = smacof(d)
        assert procrustes_error(result.positions, pts).max() < 0.05

    def test_convergence_flag(self):
        d = pairwise_distance_matrix(_square())
        result = smacof(d, max_iter=300)
        assert result.converged
        assert result.n_iter <= 300


class TestSmacofStack:
    """One stacked solve is bitwise k sequential single solves."""

    @staticmethod
    def _variants(rng, n, k):
        # Each variant drops up to n - 3 links (an ear of missing links
        # can disconnect the graph; those draws are skipped by the
        # caller) and reweights one link.
        links = [(i, j) for i in range(n) for j in range(i + 1, n)]
        out = []
        for _ in range(k):
            w = full_weight_matrix(n)
            for e in rng.choice(len(links), int(rng.integers(0, n - 2)), replace=False):
                i, j = links[e]
                w[i, j] = w[j, i] = 0.0
            i, j = links[int(rng.integers(len(links)))]
            if w[i, j] > 0:
                w[i, j] = w[j, i] = rng.uniform(0.2, 3.0)
            out.append(w)
        return np.array(out)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(4, 10),
        k=st.integers(1, 12),
        max_iter=st.sampled_from([0, 1, 7, MAX_ITER]),
    )
    def test_stack_equals_sequential_solves(self, seed, n, k, max_iter):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-20, 20, (n, 2))
        noise = np.triu(rng.normal(0.0, 0.3, (n, n)), k=1)
        d = np.abs(pairwise_distance_matrix(pts) + noise + noise.T)
        weights = self._variants(rng, n, k)
        one, many = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
        try:
            sequential = [smacof(d, w, rng=one, max_iter=max_iter) for w in weights]
        except LocalizationError:
            return  # a variant's drops disconnected the graph
        if max_iter == MAX_ITER:
            stacked = smacof_stack(d, weights, rng=many)
        else:
            # Capped runs leave slices unconverged; smacof_stack always
            # runs to MAX_ITER, so call its kernel directly.
            stacked = _guttman(_initial_positions(d, weights, 2, many), d, weights, max_iter, TOL)
        assert len(stacked) == k
        for a, b in zip(sequential, stacked):
            assert a.positions.tobytes() == b.positions.tobytes()
            assert a.stress == b.stress
            assert a.normalized_stress == b.normalized_stress
            assert a.n_iter == b.n_iter
            assert a.converged == b.converged
        assert one.bit_generator.state == many.bit_generator.state

    def test_empty_stack_draws_nothing(self):
        d = pairwise_distance_matrix(_square())
        rng = np.random.default_rng(3)
        before = rng.bit_generator.state
        assert smacof_stack(d, np.zeros((0, 4, 4)), rng=rng) == []
        assert rng.bit_generator.state == before

    def test_stack_validates_every_slice(self):
        d = pairwise_distance_matrix(_square())
        weights = np.stack([full_weight_matrix(4), full_weight_matrix(4)])
        weights[1, 0, 1] = 5.0  # asymmetric
        with pytest.raises(ValueError):
            smacof_stack(d, weights)
        with pytest.raises(ValueError):
            smacof_stack(d, full_weight_matrix(4))
