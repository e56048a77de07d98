"""Tests for projection, outlier detection, ambiguity, and the pipeline."""

import json
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from regen_parity_baselines import (
    BASELINE_DIR,
    LOCALIZATION_CASES,
    LOCALIZATION_FIGURES,
    LOCALIZATION_GOLDEN,
    localization_case_payload,
)
from repro.errors import LocalizationError
from repro.experiments import engine
from repro.geometry.topology import pairwise_distance_matrix
from repro.geometry.transforms import angle_of
from repro.localization.ambiguity import (
    flip_candidates,
    flipping_vote,
    mic_arrival_sign,
    resolve_flipping,
    resolve_rotation,
)
from repro.localization import outliers
from repro.localization.outliers import detect_outliers
from repro.localization.pipeline import localize
from repro.localization.projection import project_distances


def _positions3d():
    return np.array(
        [
            [0.0, 0.0, 1.0],
            [6.0, 0.0, 2.0],
            [3.0, 8.0, 1.5],
            [10.0, 5.0, 2.5],
            [-4.0, 6.0, 1.0],
        ]
    )


class TestProjection:
    def test_projection_formula(self):
        pts = _positions3d()
        d3 = pairwise_distance_matrix(pts)
        proj, w = project_distances(d3, pts[:, 2])
        d2 = pairwise_distance_matrix(pts[:, :2])
        assert np.allclose(proj, d2, atol=1e-9)
        assert np.all(w[np.triu_indices(5, 1)] == 1.0)

    def test_small_violation_clamped(self):
        d = np.array([[0.0, 0.5], [0.5, 0.0]])
        depths = np.array([0.0, 1.0])  # |dh| = 1 > d = 0.5, violation 0.5
        proj, w = project_distances(d, depths, violation_tolerance_m=1.0)
        assert proj[0, 1] == 0.0
        assert w[0, 1] == 1.0

    def test_large_violation_marks_missing(self):
        d = np.array([[0.0, 0.5], [0.5, 0.0]])
        depths = np.array([0.0, 3.0])
        proj, w = project_distances(d, depths, violation_tolerance_m=1.0)
        assert w[0, 1] == 0.0

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            project_distances(np.zeros((2, 3)), np.zeros(2))
        with pytest.raises(ValueError):
            project_distances(np.zeros((2, 2)), np.zeros(3))


class TestOutlierDetection:
    def _clean_case(self):
        pts = _positions3d()[:, :2]
        return pts, pairwise_distance_matrix(pts)

    def test_clean_network_untouched(self):
        _pts, d = self._clean_case()
        result = detect_outliers(d)
        assert not result.outliers_suspected
        assert result.dropped_links == ()
        assert result.normalized_stress < 0.1

    def test_single_outlier_dropped(self):
        pts, d = self._clean_case()
        corrupted = d.copy()
        # Occlusion-grade outlier: the first audible reflection adds
        # several metres of path.
        corrupted[1, 3] += 6.0
        corrupted[3, 1] += 6.0
        result = detect_outliers(corrupted)
        assert result.outliers_suspected
        assert (1, 3) in result.dropped_links
        assert result.normalized_stress < 0.5

    def test_positions_accurate_after_drop(self):
        from repro.geometry.procrustes import procrustes_error

        pts, d = self._clean_case()
        corrupted = d.copy()
        corrupted[0, 2] += 5.0
        corrupted[2, 0] += 5.0
        result = detect_outliers(corrupted)
        assert procrustes_error(result.positions, pts).max() < 0.5

    def test_never_breaks_realizability(self):
        from repro.localization.rigidity import (
            edges_from_weights,
            is_uniquely_realizable,
        )

        pts, d = self._clean_case()
        corrupted = d.copy()
        corrupted[1, 2] += 8.0
        corrupted[2, 1] += 8.0
        result = detect_outliers(corrupted)
        edges = edges_from_weights(result.weights)
        assert is_uniquely_realizable(5, edges)

    def test_respects_max_outliers(self):
        pts, d = self._clean_case()
        corrupted = d + 3.0
        np.fill_diagonal(corrupted, 0.0)
        result = detect_outliers(corrupted, max_outliers=2)
        assert len(result.dropped_links) <= 2

    def test_disabled_with_infinite_threshold(self):
        pts, d = self._clean_case()
        corrupted = d.copy()
        corrupted[1, 3] += 6.0
        corrupted[3, 1] += 6.0
        result = detect_outliers(corrupted, stress_threshold=np.inf)
        assert result.dropped_links == ()


class TestAmbiguity:
    def test_rotation_puts_user1_on_pointing_ray(self):
        pts = _positions3d()[:, :2]
        rotated = resolve_rotation(pts, pointing_azimuth_rad=np.pi / 3)
        assert np.allclose(rotated[0], 0.0)
        assert angle_of(rotated[1]) == pytest.approx(np.pi / 3)
        # Rigid: pairwise distances preserved.
        assert np.allclose(
            pairwise_distance_matrix(rotated), pairwise_distance_matrix(pts)
        )

    def test_flip_candidates_mirror(self):
        pts = _positions3d()[:, :2]
        original, mirrored = flip_candidates(pts)
        assert np.allclose(original, pts)
        # Leader and user1 are on the flip axis -> fixed points.
        assert np.allclose(mirrored[0], pts[0])
        assert np.allclose(mirrored[1], pts[1])
        assert not np.allclose(mirrored[2], pts[2])
        assert np.allclose(
            pairwise_distance_matrix(mirrored), pairwise_distance_matrix(pts)
        )

    def test_mic_arrival_sign_geometry(self):
        # Leader at origin pointing +x; left mic at +y.
        left = np.array([0.0, 0.08, 1.0])
        right = np.array([0.0, -0.08, 1.0])
        assert mic_arrival_sign(left, right, np.array([5.0, 5.0, 1.0])) == -1
        assert mic_arrival_sign(left, right, np.array([5.0, -5.0, 1.0])) == 1
        assert mic_arrival_sign(left, right, np.array([5.0, 0.0, 1.0])) == 0

    def test_vote_selects_true_configuration(self):
        pts = _positions3d()
        pts2d = pts[:, :2]
        left = pts[0] + np.array([0.0, 0.08, 0.0])
        right = pts[0] - np.array([0.0, 0.08, 0.0])
        # Leader points at user 1 (along +x), so lateral mics are +-y.
        signs = {i: mic_arrival_sign(left, right, pts[i]) for i in range(2, 5)}
        winner, v_orig, v_mirr = resolve_flipping(pts2d, signs)
        assert np.allclose(winner, pts2d)
        assert v_orig > v_mirr

    def test_majority_vote_overrides_one_bad_sign(self):
        pts = _positions3d()
        pts2d = pts[:, :2]
        left = pts[0] + np.array([0.0, 0.08, 0.0])
        right = pts[0] - np.array([0.0, 0.08, 0.0])
        signs = {i: mic_arrival_sign(left, right, pts[i]) for i in range(2, 5)}
        corrupted = dict(signs)
        corrupted[2] = -corrupted[2]
        winner, _v1, _v2 = resolve_flipping(pts2d, corrupted)
        assert np.allclose(winner, pts2d)

    def test_empty_votes_keep_original(self):
        pts = _positions3d()[:, :2]
        winner, v1, v2 = resolve_flipping(pts, {})
        assert np.allclose(winner, pts)
        assert v1 == v2 == 0.0

    def test_vote_index_validation(self):
        pts = _positions3d()[:, :2]
        with pytest.raises(ValueError):
            flipping_vote(pts, {0: 1})

    def test_degenerate_flip_axis_rejected(self):
        pts = np.zeros((3, 2))
        with pytest.raises(ValueError):
            flip_candidates(pts)


class TestPipeline:
    def _run(self, noise=0.0, seed=0):
        rng = np.random.default_rng(seed)
        pts = _positions3d()
        d = pairwise_distance_matrix(pts)
        if noise:
            d = d + rng.uniform(-noise, noise, d.shape)
            d = np.triu(d, 1)
            d = d + d.T
        azimuth = angle_of(pts[1, :2] - pts[0, :2])
        left = pts[0] + np.array([0.0, 0.08, 0.0])
        right = pts[0] - np.array([0.0, 0.08, 0.0])
        signs = {i: mic_arrival_sign(left, right, pts[i]) for i in range(2, 5)}
        result = localize(d, pts[:, 2], azimuth, signs, rng=rng)
        truth = pts - pts[0]
        return result, truth

    def test_exact_inputs_recovered(self):
        result, truth = self._run()
        assert np.allclose(result.positions3d, truth, atol=1e-3)

    def test_noisy_inputs_reasonable(self):
        result, truth = self._run(noise=0.3, seed=1)
        errors = np.linalg.norm(result.positions2d - truth[:, :2], axis=1)
        assert np.median(errors[1:]) < 1.0

    def test_depth_attached_to_output(self):
        result, truth = self._run()
        assert np.allclose(result.positions3d[:, 2], truth[:, 2], atol=1e-9)

    def test_too_few_devices_rejected(self):
        with pytest.raises(LocalizationError):
            localize(np.zeros((2, 2)), np.zeros(2))

    def test_depth_shape_validated(self):
        with pytest.raises(ValueError):
            localize(np.zeros((4, 4)), np.zeros(3))

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 1_000))
    def test_random_geometries_recovered_exactly(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-15, 15, (5, 3))
        pts[:, 2] = rng.uniform(0.5, 3.0, 5)
        # Reject near-collinear horizontal layouts (legit degenerate case).
        spread = np.linalg.svd(pts[:, :2] - pts[:, :2].mean(0), compute_uv=False)
        if spread[-1] < 3.0 or np.linalg.norm(pts[1, :2] - pts[0, :2]) < 1.0:
            return
        d = pairwise_distance_matrix(pts)
        azimuth = angle_of(pts[1, :2] - pts[0, :2])
        perp = np.array([-np.sin(azimuth), np.cos(azimuth), 0.0])
        left = pts[0] + 0.08 * perp
        right = pts[0] - 0.08 * perp
        signs = {
            i: s
            for i in range(2, 5)
            if (s := mic_arrival_sign(left, right, pts[i])) != 0
        }
        result = localize(d, pts[:, 2], azimuth, signs, rng=rng)
        truth = pts - pts[0]
        errors = np.linalg.norm(result.positions2d - truth[:, :2], axis=1)
        assert errors.max() < 0.1


@pytest.fixture(scope="module")
def localization_golden():
    """The committed localization golden oracle, or ``None`` when pins are off.

    Same pin policy as the parity-epoch artifact: the digests pin the
    BLAS/LAPACK bits of the pinned build platform, so
    ``REPRO_PARITY_PIN_SKIP=1`` or a numpy/scipy version differing from
    the artifact's provenance turns the pins off.
    """
    if os.environ.get("REPRO_PARITY_PIN_SKIP") == "1":
        return None
    path = BASELINE_DIR / LOCALIZATION_GOLDEN
    assert path.exists(), (
        f"missing localization golden {path} — run "
        "PYTHONPATH=src python tests/regen_parity_baselines.py"
    )
    doc = json.loads(path.read_text(encoding="utf-8"))
    import scipy

    provenance = doc.get("provenance", {})
    for lib, version in (("numpy", np.__version__), ("scipy", scipy.__version__)):
        if provenance.get(lib) not in (None, version):
            return None
    return doc


class TestLocalizationGolden:
    """Every localization output is pinned bit for bit.

    Speed-ups of SMACOF, Algorithm 1 or the rigidity test must not
    change a byte of positions, stresses, iteration counts, dropped
    links, weights or the generator state left behind.
    """

    @pytest.mark.parametrize("index", range(len(LOCALIZATION_CASES)))
    def test_case_pinned(self, index, localization_golden):
        if localization_golden is None:
            pytest.skip("localization golden pins disabled on this platform")
        assert localization_case_payload(index) == localization_golden["cases"][index]

    @pytest.mark.parametrize("budget", [1, 100])
    @pytest.mark.parametrize("index", range(len(LOCALIZATION_CASES)))
    def test_case_pinned_across_chunk_boundaries(
        self, index, budget, localization_golden, monkeypatch
    ):
        # A budget of 1 solves every candidate subset on its own; 100
        # splits the 4-7 node searches into chunks of 2-6 subsets.
        if localization_golden is None:
            pytest.skip("localization golden pins disabled on this platform")
        monkeypatch.setattr(outliers, "STACK_ELEMENTS", budget)
        assert localization_case_payload(index) == localization_golden["cases"][index]

    @pytest.mark.parametrize("name, variant, scale", LOCALIZATION_FIGURES)
    def test_figure_pinned(self, name, variant, scale, localization_golden):
        if localization_golden is None:
            pytest.skip("localization golden pins disabled on this platform")
        result = engine.run_unit(name, variant, scale=scale)
        pinned = localization_golden["figures"][f"{name}/{variant}@{scale}"]
        assert engine.jsonify(result.measured) == pinned
