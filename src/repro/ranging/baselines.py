"""Baseline 1D ranging algorithms: BeepBeep and CAT (paper Fig. 12).

* **BeepBeep** [Peng et al. 2007] correlates the stream against a linear
  chirp and takes the correlation peak as the arrival — no channel
  estimation, no multi-mic constraint, so underwater side lobes from
  strong reflections routinely beat the direct path.
* **CAT** [Mao et al. 2016] is FMCW: the receiver mixes the received
  sweep with the transmitted sweep and reads the delay off the beat
  frequency. Dense underwater multipath spreads the beat spectrum and
  biases the dominant component away from the direct path.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.signals.correlation import normalized_cross_correlation
from repro.signals.fmcw import FmcwConfig, estimate_delay

#: Minimum normalised correlation for a BeepBeep arrival.  Shared by
#: the scalar path below and the batched fast-mode chirp pipeline.
BEEPBEEP_MIN_SCORE = 0.05

#: CAT's coarse power-detection threshold: the baseline's in-air 3 dB —
#: generous for it underwater, as in the paper's "fair comparison"
#: framing.  Shared by the per-trial loop and the fast-mode batch.
CAT_POWER_THRESHOLD_DB = 3.0


def beepbeep_pick(ncc: np.ndarray, min_score: float = BEEPBEEP_MIN_SCORE) -> Optional[int]:
    """BeepBeep's decision on a precomputed correlation array."""
    best = int(np.argmax(ncc))
    if ncc[best] < min_score:
        return None
    return best


def beepbeep_arrival(
    stream: np.ndarray,
    chirp_template: np.ndarray,
    min_score: float = BEEPBEEP_MIN_SCORE,
) -> Optional[int]:
    """BeepBeep-style arrival estimate: the tallest correlation peak.

    Returns the sample index of the chirp start, or ``None`` when the
    best correlation is below ``min_score``.
    """
    return beepbeep_pick(
        normalized_cross_correlation(stream, chirp_template), min_score
    )


def cat_fmcw_delay(
    stream: np.ndarray,
    coarse_start: int,
    config: FmcwConfig,
    margin_samples: int = 2_048,
    max_delay_s: float = 0.08,
) -> Optional[float]:
    """CAT-style delay refinement around a coarse detection.

    Power detection fires once energy has *accumulated*, i.e. after the
    true sweep onset, which would make the beat frequency negative. The
    dechirp window is therefore anchored ``margin_samples`` before the
    coarse hit so the sweep onset lies at a positive beat.

    Parameters
    ----------
    stream:
        Microphone samples.
    coarse_start:
        Coarse estimate of the sweep start (e.g. from power detection).
    config:
        The FMCW sweep parameters.
    margin_samples:
        How far before the coarse hit to anchor the reference sweep.
    max_delay_s:
        Upper bound on the searched delay (caps the beat frequency).

    Returns
    -------
    float or None
        Estimated delay (seconds) of the sweep onset relative to
        ``coarse_start - margin_samples``; the total arrival is
        ``(coarse_start - margin_samples) / fs + delay``.
    """
    n = config.num_samples
    start = max(coarse_start - margin_samples, 0)
    window = np.asarray(stream, dtype=float)[start : start + n]
    if window.size < n:
        return None
    return estimate_delay(window, config, max_delay_s=max_delay_s)
