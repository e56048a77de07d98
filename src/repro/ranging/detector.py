"""Preamble detection: cross-correlation gated by auto-correlation.

Coarse synchronisation (paper section 2.2.1) proceeds in two steps:

1. normalised cross-correlation of the microphone stream against the
   known preamble waveform flags candidate positions, but impulsive
   noise produces tall false peaks at low SNR;
2. each candidate is verified with the segment auto-correlation of the
   PN-signed 4-symbol structure, thresholded at 0.35 — spiky noise
   almost never replicates the same multipath-filtered waveform four
   times with the right sign pattern.

A window-based power-threshold detector (``TH_SD`` of BeepBeep/FMCW
systems) is included as the baseline for the paper's Fig. 12a
comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.constants import AUTOCORR_THRESHOLD
from repro.signals.correlation import (
    normalized_cross_correlation,
    segment_autocorrelation,
)
from repro.signals.peaks import local_peak_indices
from repro.signals.preamble import Preamble


@dataclass(frozen=True)
class DetectionConfig:
    """Detector thresholds.

    Attributes
    ----------
    xcorr_threshold:
        Minimum normalised cross-correlation for a candidate.
    autocorr_threshold:
        Minimum segment auto-correlation for acceptance (paper: 0.35).
    max_candidates:
        Limit on cross-correlation candidates examined per stream.
    early_peak_ratio:
        Among accepted candidates, prefer the earliest whose score is at
        least this fraction of the best accepted score.

    The best accepted candidate must itself count as significant, so
    ``0 <= xcorr_threshold`` (every accepted score is then positive)
    and ``0 < early_peak_ratio <= 1``; otherwise no candidate is
    significant and the selection has nothing to return.
    """

    xcorr_threshold: float = 0.08
    autocorr_threshold: float = AUTOCORR_THRESHOLD
    max_candidates: int = 32
    early_peak_ratio: float = 0.6

    def __post_init__(self) -> None:
        if not self.xcorr_threshold >= 0:
            raise ValueError(f"xcorr_threshold must be >= 0, got {self.xcorr_threshold}")
        if not 0 < self.early_peak_ratio <= 1:
            raise ValueError(f"early_peak_ratio must be in (0, 1], got {self.early_peak_ratio}")
        if not self.max_candidates >= 1:
            raise ValueError(f"max_candidates must be >= 1, got {self.max_candidates}")


@dataclass(frozen=True)
class Detection:
    """A detected preamble.

    Attributes
    ----------
    start_index:
        Sample index of the preamble start in the stream.
    xcorr_score / autocorr_score:
        The statistics that admitted this detection.
    """

    start_index: int
    xcorr_score: float
    autocorr_score: float


def detect_preamble(
    stream: np.ndarray,
    preamble: Preamble,
    config: DetectionConfig | None = None,
) -> Optional[Detection]:
    """Find the preamble in a microphone stream.

    Among candidates passing both gates, returns the *earliest* one
    whose cross-correlation is within a factor of the best accepted
    score: early significant peaks are closer to the direct path than
    the global maximum (which often sits on a strong reflection), while
    weak early side lobes are ignored. Coarse sync only needs to land
    within the fine stage's search window — the paper notes coarse
    correlation alone can be off by hundreds of samples; channel
    estimation plus the dual-mic search recovers the true direct path.
    """
    cfg = config or DetectionConfig()
    stream = np.asarray(stream, dtype=float)
    if stream.size < len(preamble):
        return None
    ncc = normalized_cross_correlation(stream, preamble.waveform)
    candidates = local_peak_indices(ncc, min_height=cfg.xcorr_threshold)
    if candidates.size == 0:
        return None
    # Strongest candidates first, cap the list, then verify with the
    # auto-correlation gate and keep the earliest survivor.
    order = np.argsort(ncc[candidates])[::-1][: cfg.max_candidates]
    shortlisted = candidates[order]
    stride = preamble.config.symbol_stride
    sym_len = preamble.config.ofdm.n_fft
    accepted: List[Detection] = []
    for start in shortlisted:
        start = int(start)
        window_end = start + stride * preamble.config.num_symbols
        if window_end > stream.size:
            continue
        score = segment_autocorrelation(
            stream[start:window_end], preamble.config.pn_signs, stride, sym_len
        )
        if score >= cfg.autocorr_threshold:
            accepted.append(
                Detection(
                    start_index=start,
                    xcorr_score=float(ncc[start]),
                    autocorr_score=float(score),
                )
            )
    if not accepted:
        return None
    best_score = max(det.xcorr_score for det in accepted)
    significant = [
        det for det in accepted if det.xcorr_score >= cfg.early_peak_ratio * best_score
    ]
    return min(significant, key=lambda det: det.start_index)


def detect_power_threshold(
    stream: np.ndarray,
    threshold_db: float = 3.0,
    window: int = 256,
    noise_window: int = 4096,
) -> Optional[int]:
    """Window-based power-threshold detector (the FMCW baseline's TH_SD).

    Flags the first sample where the short-window power exceeds the
    trailing noise estimate by ``threshold_db``. Sensitive to impulsive
    noise by construction — that is the comparison point of Fig. 12a.
    """
    x = np.asarray(stream, dtype=float)
    if x.size < noise_window + window:
        return None
    power = np.convolve(x**2, np.ones(window) / window, mode="valid")
    # Noise floor from the stream head (assumed signal-free warm-up).
    noise = float(np.mean(power[: noise_window - window + 1]))
    if noise <= 0:
        noise = 1e-12
    ratio_db = 10.0 * np.log10(np.maximum(power, 1e-20) / noise)
    hits = np.nonzero(ratio_db[noise_window:] > threshold_db)[0]
    if hits.size == 0:
        return None
    return int(hits[0] + noise_window)
