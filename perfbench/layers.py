"""Per-layer metrics derived from the spans of a traced run.

Definitions (every time is in seconds unless the name says ``_ms``):

* ``busy_s`` — wall time covered by the layer's spans: the union of
  their intervals, so a span nested in another span of the same layer,
  or two concurrent spans, count once;
* ``self_s`` — ``busy_s`` minus the part of it covered by child spans
  (spans of another layer opened inside one of this layer's spans);
* ``calls`` — outermost spans (a call nested in a call of the same
  layer is part of it);
* ratios name their base in :data:`PER_LAYER`.

Batch workloads report values *per pass* of the workload's unit set
(totals over the traced passes divided by their number); ``serve``
reports totals over its measured phase.  A layer the workload does not
exercise reports 0.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from spans import Span

#: Unit labels of the batch workloads, in the order they run.
LOCALIZE_UNITS = (
    "fig6-default",
    "fig18-dock",
    "fig18-boathouse",
    "fig19-default",
    "fig20-device1",
    "fig20-device2",
)
RANGING_FIGURES = ("fig11", "fig12", "fig13", "fig14", "fig15", "fig22")
RANGING_UNITS = tuple(f"{f}-default" for f in RANGING_FIGURES) + tuple(
    f"{f}-default.f32" for f in RANGING_FIGURES
)
FLEET_UNITS = (
    "fleet-fleet1k",
    "fleet-fleet200",
    "fleet-churn",
    "fleet-mobility",
    "fleet-contention",
)

#: Waveform-layer busy metrics that get a ``.f32`` twin for the
#: fast/float32 half of the ``ranging`` workload.
F32_BUSY = (
    ("batch_exchange.plan", "batch_exchange.plan.busy_s"),
    ("batch_exchange.flush", "batch_exchange.flush.busy_s"),
    ("channel.taps", "channel.taps.busy_s"),
    ("channel.apply", "channel.apply.busy_s"),
    ("channel.noise", "channel.noise.busy_s"),
    ("signals.ncc", "signals.ncc.busy_s"),
    ("signals.gate", "signals.gate.busy_s"),
    ("ranging.detect", "ranging.detect.busy_s"),
    ("ranging.cir", "ranging.cir.busy_s"),
    ("ranging.arrival", "ranging.arrival.busy_s"),
)

_BETTER_HIGHER = {
    "localization.outliers.drop_ratio",
    "ranging.detect.found_ratio",
    "des.sim_s_per_host_s",
    "des.coverage",
    "service.hit_ratio",
}


def _unit_for(name: str) -> str:
    name = name.removesuffix(".f32")
    if name == "des.sim_s_per_host_s":
        return "s/s"
    if name == "localization.solves_per_localize":
        return "ratio"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(("ratio", "_frac", ".util", ".coverage")):
        return "ratio"
    if name.endswith("bytes"):
        return "B"
    return "count"


def _names() -> List[str]:
    names = [f"engine.unit.{u}.s" for u in LOCALIZE_UNITS + RANGING_UNITS + FLEET_UNITS]
    names += [
        "engine.campaign_to_json.busy_s",
        "localization.localize.calls",
        "localization.localize.busy_s",
        "localization.localize.p50_ms",
        "localization.localize.p99_ms",
        "localization.detect_outliers.busy_s",
        "localization.detect_outliers.self_s",
        "localization.smacof.calls",
        "localization.smacof.busy_s",
        "localization.smacof.self_s",
        "localization.smacof.iters",
        "localization.stress_value.calls",
        "localization.classical_mds.busy_s",
        "localization.solves_per_localize",
        "localization.is_uniquely_realizable.calls",
        "localization.is_uniquely_realizable.busy_s",
        "localization.outliers.drop_ratio",
        "localization.run_round.calls",
        "localization.run_round.self_s",
        "localization.run_protocol_round.busy_s",
        "batch_exchange.plan.calls",
        "batch_exchange.plan.busy_s",
        "batch_exchange.flush.calls",
        "batch_exchange.flush.busy_s",
        "batch_exchange.flush.self_s",
        "batch_exchange.flusher_submits",
        "channel.taps.calls",
        "channel.taps.busy_s",
        "channel.apply.busy_s",
        "channel.apply.rows",
        "channel.apply.bytes",
        "channel.noise.busy_s",
        "signals.ncc.busy_s",
        "signals.ncc.samples",
        "signals.gate.busy_s",
        "signals.gate.candidates",
        "ranging.detect.busy_s",
        "ranging.detect.streams",
        "ranging.detect.found_ratio",
        "ranging.cir.busy_s",
        "ranging.arrival.busy_s",
    ]
    names += [f"{metric}.f32" for _, metric in F32_BUSY]
    names += [
        "des.event.run.busy_s",
        "des.events",
        "des.medium.broadcast.calls",
        "des.medium.broadcast.busy_s",
        "des.vec.round.busy_s",
        "des.rounds",
        "des.sim_s",
        "des.sim_s_per_host_s",
        "des.tx_attempts",
        "des.collisions",
        "des.coverage",
        "des.plan_relays.busy_s",
        "service.store.get.calls",
        "service.store.get.p50_ms",
        "service.store.get.p99_ms",
        "service.normalize_request.busy_s",
        "service.cache_key.busy_s",
        "service.compute_unit.busy_s",
        "service.compute.util",
        "service.queue_wait.p50_ms",
        "service.queue_wait.p90_ms",
        "service.store.put.busy_s",
        "service.encode_body.busy_s",
        "service.requests",
        "service.hits",
        "service.misses",
        "service.dedup_waits",
        "service.engine_calls",
        "service.errors",
        "service.hit_ratio",
        "service.store.bytes",
        "client.lag_p99_ms",
        "hit_p50_ms",
        "hit_p99_ms",
        "miss_p50_ms",
        "miss_p90_ms",
        "run_s",
        "cpu_s",
        "host.probe_ms",
        "trace.overhead_frac",
    ]
    return names


#: ``(name, unit, better)`` of every per-layer metric, in print order.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = tuple(
    (
        name,
        _unit_for(name),
        "higher" if name in _BETTER_HIGHER else "lower",
    )
    for name in _names()
)


# ---------------------------------------------------------------------------
# Interval arithmetic over spans
# ---------------------------------------------------------------------------


def _merge(intervals: Iterable[Tuple[float, float]]) -> List[Tuple[float, float]]:
    merged: List[Tuple[float, float]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            if end > merged[-1][1]:
                merged[-1] = (merged[-1][0], end)
        else:
            merged.append((start, end))
    return merged


def _length(merged: Sequence[Tuple[float, float]]) -> float:
    return sum(end - start for start, end in merged)


def _overlap(a: Sequence[Tuple[float, float]], b: Sequence[Tuple[float, float]]) -> float:
    total, i, j = 0.0, 0, 0
    while i < len(a) and j < len(b):
        lo = max(a[i][0], b[j][0])
        hi = min(a[i][1], b[j][1])
        if hi > lo:
            total += hi - lo
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return total


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100); 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return float(ordered[int(min(rank, len(ordered))) - 1])


class SpanIndex:
    """Spans grouped by layer name, with a tag filter for the ``.f32`` split."""

    def __init__(self, spans: Sequence[Span], keep: Optional[Callable[[str], bool]] = None):
        self.by_id = {s[0]: s for s in spans}
        self.by_name: Dict[str, List[Span]] = defaultdict(list)
        self.children: Dict[int, List[Span]] = defaultdict(list)
        for s in spans:
            if keep is None or keep(s[5]):
                self.by_name[s[1]].append(s)
            if s[4] >= 0:
                self.children[s[4]].append(s)

    def _nested_in_same(self, span: Span) -> bool:
        parent = span[4]
        while parent >= 0:
            p = self.by_id.get(parent)
            if p is None:
                return False
            if p[1] == span[1]:
                return True
            parent = p[4]
        return False

    def outer(self, name: str) -> List[Span]:
        return [s for s in self.by_name.get(name, ()) if not self._nested_in_same(s)]

    def calls(self, name: str) -> int:
        return len(self.outer(name))

    def busy(self, name: str) -> float:
        return _length(_merge((s[2], s[3]) for s in self.by_name.get(name, ())))

    def self_time(self, name: str) -> float:
        own = self.by_name.get(name, ())
        mine = _merge((s[2], s[3]) for s in own)
        kids = _merge(
            (c[2], c[3]) for s in own for c in self.children.get(s[0], ()) if c[1] != name
        )
        return _length(mine) - _overlap(mine, kids)

    def durations_ms(self, name: str) -> List[float]:
        return [(s[3] - s[2]) * 1e3 for s in self.outer(name)]

    def note_sum(self, name: str, key: str) -> float:
        return float(sum((s[7] or {}).get(key, 0) for s in self.outer(name)))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    spans: Sequence[Span],
    counts: Dict[str, int],
    passes: int,
    units: Sequence[str],
    window_s: float = 0.0,
) -> Dict[str, float]:
    """Every per-layer metric that spans can give (others stay absent).

    ``passes`` divides totals (1 for ``serve``); ``units`` are the unit
    labels whose ``engine.unit.<label>.s`` this workload reports;
    ``window_s`` is the measured phase length (``service.compute.util``).
    """
    n = max(1, passes)
    every = SpanIndex(spans)
    ref = SpanIndex(spans, keep=lambda tag: not tag.endswith(".f32"))
    f32 = SpanIndex(spans, keep=lambda tag: tag.endswith(".f32"))
    out: Dict[str, float] = {}

    unit_times: Dict[str, List[float]] = defaultdict(list)
    for s in every.outer("engine.run_unit"):
        unit_times[s[5]].append(s[3] - s[2])
    for label in units:
        if unit_times.get(label):
            out[f"engine.unit.{label}.s"] = statistics.median(unit_times[label])
    out["engine.campaign_to_json.busy_s"] = every.busy("engine.campaign_to_json") / n

    localize_calls = ref.calls("localization.localize")
    smacof_calls = ref.calls("localization.smacof")
    durations = ref.durations_ms("localization.localize")
    suspected = dropped = 0
    for s in ref.outer("localization.detect_outliers"):
        note = s[7] or {}
        suspected += bool(note.get("suspected"))
        dropped += bool(note.get("dropped"))
    out.update(
        {
            "localization.localize.calls": localize_calls / n,
            "localization.localize.busy_s": ref.busy("localization.localize") / n,
            "localization.localize.p50_ms": percentile(durations, 50),
            "localization.localize.p99_ms": percentile(durations, 99),
            "localization.detect_outliers.busy_s": ref.busy("localization.detect_outliers") / n,
            "localization.detect_outliers.self_s": ref.self_time("localization.detect_outliers")
            / n,
            "localization.smacof.calls": smacof_calls / n,
            "localization.smacof.busy_s": ref.busy("localization.smacof") / n,
            "localization.smacof.self_s": ref.self_time("localization.smacof") / n,
            "localization.smacof.iters": ref.note_sum("localization.smacof", "iters") / n,
            "localization.stress_value.calls": counts.get("localization.stress_value", 0) / n,
            "localization.classical_mds.busy_s": ref.busy("localization.classical_mds") / n,
            "localization.solves_per_localize": _ratio(smacof_calls, localize_calls),
            "localization.is_uniquely_realizable.calls": ref.calls(
                "localization.is_uniquely_realizable"
            )
            / n,
            "localization.is_uniquely_realizable.busy_s": ref.busy(
                "localization.is_uniquely_realizable"
            )
            / n,
            "localization.outliers.drop_ratio": _ratio(dropped, suspected),
            "localization.run_round.calls": ref.calls("localization.run_round") / n,
            "localization.run_round.self_s": ref.self_time("localization.run_round") / n,
            "localization.run_protocol_round.busy_s": ref.busy(
                "localization.run_protocol_round"
            )
            / n,
        }
    )

    streams = ref.note_sum("ranging.detect", "streams")
    out.update(
        {
            "batch_exchange.plan.calls": ref.calls("batch_exchange.plan") / n,
            "batch_exchange.plan.busy_s": ref.busy("batch_exchange.plan") / n,
            "batch_exchange.flush.calls": ref.calls("batch_exchange.flush") / n,
            "batch_exchange.flush.busy_s": ref.busy("batch_exchange.flush") / n,
            "batch_exchange.flush.self_s": ref.self_time("batch_exchange.flush") / n,
            "batch_exchange.flusher_submits": counts.get("batch_exchange.flusher_submit", 0) / n,
            "channel.taps.calls": ref.calls("channel.taps") / n,
            "channel.taps.busy_s": ref.busy("channel.taps") / n,
            "channel.apply.busy_s": ref.busy("channel.apply") / n,
            "channel.apply.rows": ref.note_sum("channel.apply", "rows") / n,
            "channel.apply.bytes": ref.note_sum("channel.apply", "bytes") / n,
            "channel.noise.busy_s": ref.busy("channel.noise") / n,
            "signals.ncc.busy_s": ref.busy("signals.ncc") / n,
            "signals.ncc.samples": ref.note_sum("signals.ncc", "samples") / n,
            "signals.gate.busy_s": ref.busy("signals.gate") / n,
            "signals.gate.candidates": ref.note_sum("signals.gate", "candidates") / n,
            "ranging.detect.busy_s": ref.busy("ranging.detect") / n,
            "ranging.detect.streams": streams / n,
            "ranging.detect.found_ratio": _ratio(ref.note_sum("ranging.detect", "found"), streams),
            "ranging.cir.busy_s": ref.busy("ranging.cir") / n,
            "ranging.arrival.busy_s": ref.busy("ranging.arrival") / n,
        }
    )
    for span_name, metric in F32_BUSY:
        out[f"{metric}.f32"] = f32.busy(span_name) / n

    rounds = every.note_sum("des.campaign", "rounds")
    sim_s = every.note_sum("des.campaign", "sim_s")
    out.update(
        {
            "des.event.run.busy_s": every.busy("des.event.run") / n,
            "des.events": every.note_sum("des.event.run", "events") / n,
            "des.medium.broadcast.calls": every.calls("des.medium.broadcast") / n,
            "des.medium.broadcast.busy_s": every.busy("des.medium.broadcast") / n,
            "des.vec.round.busy_s": every.busy("des.vec.round") / n,
            "des.rounds": rounds / n,
            "des.sim_s": sim_s / n,
            "des.sim_s_per_host_s": _ratio(sim_s, every.busy("des.campaign")),
            "des.tx_attempts": every.note_sum("des.campaign", "tx_attempts") / n,
            "des.collisions": every.note_sum("des.campaign", "collisions") / n,
            "des.coverage": _ratio(every.note_sum("des.campaign", "coverage_sum"), rounds),
            "des.plan_relays.busy_s": every.busy("des.plan_relays") / n,
        }
    )

    gets = every.durations_ms("service.store.get")
    # Queue wait of a miss: from the end of its leader's store.get miss
    # (the dispatch to the compute executor) to the start of its compute.
    first_miss: Dict[str, float] = {}
    for s in every.outer("service.store.get"):
        note = s[7] or {}
        if not note.get("hit") and note.get("key") not in first_miss:
            first_miss[note.get("key")] = s[3]
    waits = [
        (s[2] - first_miss[(s[7] or {}).get("key")]) * 1e3
        for s in every.outer("service.compute_unit")
        if (s[7] or {}).get("key") in first_miss
    ]
    compute_busy = every.busy("service.compute_unit")
    out.update(
        {
            "service.store.get.calls": float(len(gets)),
            "service.store.get.p50_ms": percentile(gets, 50),
            "service.store.get.p99_ms": percentile(gets, 99),
            "service.normalize_request.busy_s": every.busy("service.normalize_request"),
            "service.cache_key.busy_s": every.busy("service.cache_key"),
            "service.compute_unit.busy_s": compute_busy,
            "service.compute.util": _ratio(compute_busy, window_s),
            "service.queue_wait.p50_ms": percentile(waits, 50),
            "service.queue_wait.p90_ms": percentile(waits, 90),
            "service.store.put.busy_s": every.busy("service.store.put"),
            "service.encode_body.busy_s": every.busy("service.encode_body"),
        }
    )
    return out


def complete(values: Dict[str, float]) -> Dict[str, float]:
    """All per-layer metrics in table order; missing ones are 0."""
    return {name: float(values.get(name, 0.0)) for name, _, _ in PER_LAYER}
