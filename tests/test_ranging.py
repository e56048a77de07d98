"""Tests for preamble detection and direct-path estimation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.channel.multipath import PathTap
from repro.channel.render import apply_channel
from repro.ranging import batch as ranging_batch
from repro.ranging.batch import detect_preamble_batch
from repro.ranging.detector import (
    Detection,
    DetectionConfig,
    detect_power_threshold,
    detect_preamble,
)
from repro.ranging.estimator import (
    estimate_direct_path,
    single_mic_direct_path,
)
from repro.ranging.pairwise import estimate_arrival
from repro.signals.batchcorr import (
    CachedTemplate,
    local_peak_indices_fast,
    normalized_cross_correlation_fused,
    segment_autocorrelation_scores,
)
from repro.signals.preamble import make_preamble


@pytest.fixture(scope="module")
def preamble():
    return make_preamble()


def _stream_with_preamble(preamble, offset, noise_rms, rng, scale=1.0):
    stream = noise_rms * rng.standard_normal(offset + len(preamble) + 2_000)
    stream[offset : offset + len(preamble)] += scale * preamble.waveform
    return stream


class TestDetectPreamble:
    def test_detects_clean_preamble(self, preamble):
        rng = np.random.default_rng(0)
        stream = _stream_with_preamble(preamble, 4_000, 0.01, rng)
        det = detect_preamble(stream, preamble)
        assert det is not None
        # Coarse sync tolerance: within the fine stage's wrap margin.
        assert abs(det.start_index - 4_000) <= 64
        assert det.autocorr_score > 0.35

    def test_no_detection_on_noise(self, preamble):
        rng = np.random.default_rng(1)
        stream = 0.05 * rng.standard_normal(20_000)
        assert detect_preamble(stream, preamble) is None

    def test_spike_rejected_by_autocorr_gate(self, preamble):
        rng = np.random.default_rng(2)
        stream = 0.005 * rng.standard_normal(25_000)
        # A loud impulsive burst that fools amplitude thresholds.
        stream[6_000:6_050] += 2.0 * rng.standard_normal(50)
        assert detect_preamble(stream, preamble) is None

    def test_detects_at_low_snr(self, preamble):
        rng = np.random.default_rng(3)
        stream = _stream_with_preamble(preamble, 3_000, 0.15, rng, scale=0.5)
        det = detect_preamble(stream, preamble)
        assert det is not None
        assert abs(det.start_index - 3_000) <= 64

    def test_stream_shorter_than_preamble(self, preamble):
        assert detect_preamble(np.zeros(100), preamble) is None

    def test_earliest_candidate_wins(self, preamble):
        # Two copies (direct + echo): detection must lock onto the first.
        rng = np.random.default_rng(4)
        n = 30_000
        stream = 0.01 * rng.standard_normal(n)
        stream[3_000 : 3_000 + len(preamble)] += 0.7 * preamble.waveform
        stream[3_400 : 3_400 + len(preamble)] += 1.0 * preamble.waveform
        det = detect_preamble(stream, preamble)
        assert det is not None
        assert abs(det.start_index - 3_000) <= 64


class TestDetectionConfig:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("early_peak_ratio", 0.0),
            ("early_peak_ratio", -0.5),
            ("early_peak_ratio", 1.5),
            ("early_peak_ratio", float("nan")),
            ("max_candidates", 0),
            ("max_candidates", -3),
            ("xcorr_threshold", -0.1),
            ("xcorr_threshold", float("nan")),
        ],
    )
    def test_rejects_out_of_range(self, field, value):
        with pytest.raises(ValueError, match=field):
            DetectionConfig(**{field: value})

    def test_accepts_boundary_values(self):
        cfg = DetectionConfig(xcorr_threshold=0.0, early_peak_ratio=1.0, max_candidates=1)
        assert cfg.early_peak_ratio == 1.0


def _clean(preamble, rng):
    return _stream_with_preamble(preamble, 4_000, 0.01, rng)


def _echo_before_peak(preamble, rng):
    # The strongest peak is the later echo; the earlier direct copy is
    # only found by the second (earlier-candidates) phase of the gate.
    stream = 0.01 * rng.standard_normal(30_000)
    stream[3_000 : 3_000 + len(preamble)] += 0.7 * preamble.waveform
    stream[3_400 : 3_400 + len(preamble)] += 1.0 * preamble.waveform
    return stream


def _two_echoes_before_peak(preamble, rng):
    # Two earlier copies both qualify in the second phase; the
    # earliest one must win.
    stream = 0.01 * rng.standard_normal(30_000)
    for start, scale in ((3_000, 0.7), (3_400, 0.85), (3_800, 1.0)):
        stream[start : start + len(preamble)] += scale * preamble.waveform
    return stream


def _half_preamble(preamble):
    # Loud, well-correlated decoy: the first two symbols only, so the
    # PN-segment auto-correlation gate rejects it.
    decoy = preamble.waveform.copy()
    decoy[2 * preamble.config.symbol_stride :] = 0.0
    return 2.0 * decoy


def _decoys_then_preamble(preamble, rng):
    # The decoys out-correlate the weaker true preamble, so the gate
    # rejects them first.
    stream = 0.2 * rng.standard_normal(60_000)
    for start in (2_000, 14_000):
        stream[start : start + len(preamble)] += _half_preamble(preamble)
    stream[30_000 : 30_000 + len(preamble)] += 0.32 * preamble.waveform
    return stream


def _decoys_only(preamble, rng):
    stream = 0.2 * rng.standard_normal(40_000)
    for start in (2_000, 15_000):
        stream[start : start + len(preamble)] += _half_preamble(preamble)
    return stream


def _noise_only(preamble, rng):
    return 0.05 * rng.standard_normal(20_000)


_SCENARIOS = {
    "clean": _clean,
    "echo_before_peak": _echo_before_peak,
    "two_echoes_before_peak": _two_echoes_before_peak,
    "decoys_then_preamble": _decoys_then_preamble,
    "decoys_only": _decoys_only,
    "noise_only": _noise_only,
}


@pytest.fixture
def gate_calls(monkeypatch):
    """Candidate starts of every gate-kernel call the batch detector makes."""
    calls = []
    kernel = ranging_batch.segment_autocorrelation_scores_multi

    def counting(streams, starts_per_stream, *args, **kwargs):
        calls.append([list(starts) for starts in starts_per_stream])
        return kernel(streams, starts_per_stream, *args, **kwargs)

    monkeypatch.setattr(ranging_batch, "segment_autocorrelation_scores_multi", counting)
    return calls


def _exhaustive_fast(streams, preamble, template, cfg):
    """The reference selection over *every* shortlisted forced-GEMM score.

    The fused NCC pads a batch to one shared transform length, so it
    runs over the same batch as the detector under test.
    """
    pcfg = preamble.config
    window = pcfg.symbol_stride * pcfg.num_symbols
    out = []
    for stream, ncc in zip(streams, normalized_cross_correlation_fused(streams, template)):
        candidates = local_peak_indices_fast(ncc, cfg.xcorr_threshold)
        order = np.argsort(ncc[candidates])[::-1][: cfg.max_candidates]
        valid = [int(s) for s in candidates[order] if int(s) + window <= stream.size]
        scores = segment_autocorrelation_scores(
            stream, valid, pcfg.pn_signs, pcfg.symbol_stride, pcfg.ofdm.n_fft, force_gemm=True
        )
        accepted = [
            Detection(start, float(ncc[start]), float(score))
            for start, score in zip(valid, scores)
            if score >= cfg.autocorr_threshold
        ]
        if not accepted:
            out.append(None)
            continue
        best = max(det.xcorr_score for det in accepted)
        significant = [d for d in accepted if d.xcorr_score >= cfg.early_peak_ratio * best]
        out.append(min(significant, key=lambda det: det.start_index))
    return out


class TestLazyCandidateGate:
    """The batch detector scores only the candidates that decide each
    stream, yet returns exactly the exhaustive reference's detection."""

    @pytest.mark.parametrize("scenario", sorted(_SCENARIOS))
    def test_parity_matches_scalar(self, preamble, scenario):
        stream = _SCENARIOS[scenario](preamble, np.random.default_rng(11))
        (got,) = detect_preamble_batch([stream], preamble)
        assert got == detect_preamble(stream, preamble)

    def test_echo_before_peak_is_found_by_second_phase(self, preamble, gate_calls):
        stream = _echo_before_peak(preamble, np.random.default_rng(4))
        (got,) = detect_preamble_batch([stream], preamble)
        assert got == detect_preamble(stream, preamble)
        assert abs(got.start_index - 3_000) <= 64
        assert len(gate_calls) == 2  # the strongest peak, then the earlier copy

    def test_clean_stream_scores_at_most_two_candidates(self, preamble, gate_calls):
        stream = _clean(preamble, np.random.default_rng(0))
        (got,) = detect_preamble_batch([stream], preamble)
        assert got == detect_preamble(stream, preamble)
        assert sum(len(starts) for call in gate_calls for starts in call) <= 2

    def test_rejected_decoys_are_scored_once(self, preamble, gate_calls):
        stream = _decoys_then_preamble(preamble, np.random.default_rng(11))
        (got,) = detect_preamble_batch([stream], preamble)
        assert got == detect_preamble(stream, preamble)
        assert abs(got.start_index - 30_000) <= 64
        scored = [start for call in gate_calls for (start,) in call]
        assert sorted(scored[:2]) == [2_000, 14_000]
        assert len(set(scored)) == len(scored)

    def test_multi_stream_batch_resolves_in_different_rounds(self, preamble, gate_calls):
        rng = np.random.default_rng(12)
        streams = [_SCENARIOS[name](preamble, rng) for name in sorted(_SCENARIOS)]
        got = detect_preamble_batch(streams, preamble)
        assert got == [detect_preamble(s, preamble) for s in streams]
        assert got[sorted(_SCENARIOS).index("decoys_then_preamble")] is not None
        # One candidate per unresolved stream and round; streams drop out
        # as they resolve, so later rounds are narrower.
        widths = [len(call) for call in gate_calls]
        assert all(len(starts) == 1 for call in gate_calls for starts in call)
        assert widths == sorted(widths, reverse=True) and widths[0] > widths[-1]

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        names=st.lists(st.sampled_from(sorted(_SCENARIOS)), min_size=1, max_size=4),
        ratio=st.floats(0.05, 1.0),
        max_candidates=st.integers(1, 40),
        xcorr_threshold=st.floats(0.0, 0.3),
    )
    def test_parity_matches_scalar_for_any_config(
        self, preamble, seed, names, ratio, max_candidates, xcorr_threshold
    ):
        rng = np.random.default_rng(seed)
        streams = [_SCENARIOS[name](preamble, rng) for name in names]
        configs = [
            DetectionConfig(
                xcorr_threshold=xcorr_threshold,
                early_peak_ratio=ratio if k % 2 else 0.6,
                max_candidates=max_candidates,
            )
            for k in range(len(streams))
        ]
        got = detect_preamble_batch(streams, preamble, configs)
        assert got == [detect_preamble(s, preamble, c) for s, c in zip(streams, configs)]

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_fast_matches_exhaustive_gemm_selection(self, preamble, dtype):
        rng = np.random.default_rng(13)
        template = CachedTemplate(preamble.waveform, dtype=dtype)
        streams = [_SCENARIOS[name](preamble, rng).astype(dtype) for name in sorted(_SCENARIOS)]
        got = detect_preamble_batch(streams, preamble, template=template, fast=True)
        cfg = DetectionConfig()
        assert got == _exhaustive_fast(streams, preamble, template, cfg)
        assert sum(det is not None for det in got) == 4


class TestPowerThresholdBaseline:
    def test_detects_energy_onset(self, preamble):
        rng = np.random.default_rng(5)
        stream = _stream_with_preamble(preamble, 10_000, 0.01, rng)
        hit = detect_power_threshold(stream, threshold_db=6.0)
        assert hit is not None
        assert abs(hit - 10_000) < 500

    def test_fooled_by_spike(self, preamble):
        # The spike fires the power detector -- the weakness Fig. 12a
        # quantifies.
        rng = np.random.default_rng(6)
        stream = 0.01 * rng.standard_normal(30_000)
        stream[8_000:8_064] += 1.5 * rng.standard_normal(64)
        hit = detect_power_threshold(stream, threshold_db=6.0)
        assert hit is not None and abs(hit - 8_000) < 300

    def test_short_stream(self):
        assert detect_power_threshold(np.zeros(100)) is None


class TestDirectPathEstimator:
    def _channel(self, peaks, length=1_920):
        h = 0.01 * np.ones(length)
        for tap, amp in peaks:
            h[tap] = amp
        return h

    def test_joint_earliest_valid_pair(self):
        h1 = self._channel([(50, 1.0), (40, 0.5)])
        h2 = self._channel([(52, 1.0), (42, 0.5)])
        est = estimate_direct_path(h1, h2, sample_rate=44_100.0)
        assert est is not None
        assert est.tap == pytest.approx((40 + 42) / 2)

    def test_constraint_rejects_distant_pairs(self):
        # Mic separation 0.16 m at 1480 m/s = ~4.8 samples max offset.
        h1 = self._channel([(40, 0.6), (100, 1.0)])
        h2 = self._channel([(70, 0.6), (102, 1.0)])
        est = estimate_direct_path(h1, h2, sample_rate=44_100.0)
        # 40 vs 70 violates the constraint; the (100, 102) pair wins.
        assert est is not None
        assert est.tap == pytest.approx(101.0)

    def test_wrong_early_peak_rejected(self):
        # A noise peak before the direct path in ONE channel only (the
        # paper's Fig. 7 "wrong peak" situation).
        h1 = self._channel([(30, 0.35), (60, 1.0)])
        h2 = self._channel([(62, 1.0)])
        est = estimate_direct_path(h1, h2, sample_rate=44_100.0)
        assert est is not None
        assert est.tap >= 60.0

    def test_below_margin_ignored(self):
        h1 = self._channel([(50, 0.15), (80, 1.0)])
        h2 = self._channel([(50, 0.15), (82, 1.0)])
        # 0.15 < noise floor (0.01) + lambda (0.2) -> not a candidate.
        est = estimate_direct_path(h1, h2, sample_rate=44_100.0)
        assert est is not None
        assert est.tap >= 80.0

    def test_arrival_sign(self):
        h1 = self._channel([(50, 1.0)])
        h2 = self._channel([(53, 1.0)])
        est = estimate_direct_path(h1, h2, sample_rate=44_100.0)
        assert est.arrival_sign == -1  # mic 1 heard it first

    def test_no_valid_pair_returns_none(self):
        h1 = self._channel([(50, 1.0)])
        h2 = self._channel([(500, 1.0)])
        assert estimate_direct_path(h1, h2, sample_rate=44_100.0) is None

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            estimate_direct_path(np.ones(100), np.ones(200))

    def test_single_mic_earliest_peak(self):
        h = self._channel([(30, 0.4), (60, 1.0)])
        assert single_mic_direct_path(h) == 30

    def test_single_mic_none_when_flat(self):
        assert single_mic_direct_path(0.01 * np.ones(1_920)) is None


class TestEstimateArrival:
    def test_end_to_end_two_tap_channel(self, preamble):
        rng = np.random.default_rng(7)
        fs = preamble.config.ofdm.sample_rate
        direct_delay = 600
        taps = [
            PathTap(delay_s=direct_delay / fs, amplitude=1.0),
            PathTap(delay_s=(direct_delay + 150) / fs, amplitude=0.8, bottom_bounces=1),
        ]
        streams = []
        for extra in (0, 2):  # mic 2 slightly farther
            mic_taps = [
                PathTap(t.delay_s + extra / fs, t.amplitude, t.surface_bounces, t.bottom_bounces)
                for t in taps
            ]
            body = apply_channel(preamble.waveform, mic_taps, fs)
            stream = np.concatenate([np.zeros(2_000), body])
            stream += 0.01 * rng.standard_normal(stream.size)
            streams.append(stream)
        est = estimate_arrival(streams[0], streams[1], preamble)
        assert est is not None
        # The 1-5 kHz band limits time resolution to ~8 samples (the CIR
        # main lobe has strong side lobes); sub-lobe accuracy is not
        # physically available to the real system either.
        assert est.arrival_index == pytest.approx(2_000 + direct_delay, abs=8)
        assert est.arrival_sign in (-1, 0)

    def test_returns_none_without_signal(self, preamble):
        rng = np.random.default_rng(8)
        noise = 0.05 * rng.standard_normal(20_000)
        assert estimate_arrival(noise, noise, preamble) is None
