"""In-memory span recorder and the layer wrappers of the traced run.

The traced run wraps the public functions of each layer *from the
benchmark's own files*: :func:`install` replaces every binding of a
target (the defining module, every ``repro.*`` module that imported the
name at import time, or the class attribute of a method) with a wrapper
that records one span per call, and :func:`Recorder.uninstall` puts the
originals back.  The program's source is never edited.

A span is ``(id, name, start, end, parent, tag, thread, note)``:

* ``start``/``end`` come from ``time.perf_counter`` only (the clock the
  program's own DET001 lint rule allows);
* ``parent`` is the innermost open span on the same thread (-1 at a
  thread's root), so self time can be computed per layer;
* ``tag`` is the unit or request id the benchmark set when the span
  opened (a unit label such as ``fig11-default.f32``);
* ``note`` holds per-call counts read from arguments and results
  (iterations, rows, bytes), so ratios are measured where the work is.

Spans stay in memory and are written out once, as Chrome trace-event
JSON, when the run ends (:func:`write_chrome_trace`).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import os
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

Span = Tuple[int, str, float, float, int, str, int, Optional[Dict[str, Any]]]

#: Counter of per-call notes that raised; the run reports them as problems.
NOTE_ERRORS = "trace.note_errors"


class Recorder:
    """Spans and counters of one traced run (thread-safe appends)."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, int] = {}
        self.tag = ""
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: List[Tuple[Any, str, Any]] = []

    def stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def uninstall(self) -> None:
        """Restore every binding :func:`install` replaced."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []


# ---------------------------------------------------------------------------
# Per-call notes (counts read from arguments and results)
# ---------------------------------------------------------------------------


def _arg(args, kwargs, index: int, name: str, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _note_smacof(args, kwargs, out, pre):
    return {"iters": int(out.n_iter)}


def _note_outliers(args, kwargs, out, pre):
    return {"suspected": bool(out.outliers_suspected), "dropped": len(out.dropped_links)}


def _fir_bytes(row, length) -> int:
    # A FIR row is either sparse taps ``(positions, amplitudes)`` or a
    # dense array of which the first ``length`` samples are used.
    if isinstance(row, tuple):
        return sum(int(part.nbytes) for part in row)
    return int(length) * int(row.itemsize)


def _note_apply(args, kwargs, out, pre):
    firs = _arg(args, kwargs, 1, "fir_rows", ())
    lengths = _arg(args, kwargs, 2, "fir_lengths", ())
    out_bytes = sum(int(row.nbytes) for row in out)
    fir_bytes = sum(_fir_bytes(f, n) for f, n in zip(firs, lengths))
    return {"rows": len(out), "bytes": out_bytes + fir_bytes}


def _note_ncc(args, kwargs, out, pre):
    streams = _arg(args, kwargs, 0, "streams", ())
    return {"samples": sum(int(len(s)) for s in streams)}


def _note_gate_multi(args, kwargs, out, pre):
    starts = _arg(args, kwargs, 1, "starts_per_stream", ())
    return {"candidates": sum(len(s) for s in starts)}


def _note_gate_single(args, kwargs, out, pre):
    return {"candidates": len(_arg(args, kwargs, 1, "candidates", ()))}


def _note_detect(args, kwargs, out, pre):
    return {"streams": len(out), "found": sum(d is not None for d in out)}


def _pre_sim_run(args, kwargs):
    return args[0].events_fired


def _note_sim_run(args, kwargs, out, pre):
    return {"events": int(args[0].events_fired - pre)}


def _note_fleet_campaign(args, kwargs, out, pre):
    rounds = out.rounds
    return {
        "rounds": len(rounds),
        "sim_s": float(sum(r.round_duration_s for r in rounds)),
        "tx_attempts": int(sum(r.tx_attempts for r in rounds)),
        "collisions": int(sum(r.collisions for r in rounds)),
        "coverage_sum": float(sum(r.coverage for r in rounds)),
    }


def _note_store_get(args, kwargs, out, pre):
    return {"key": str(_arg(args, kwargs, 1, "key", "")), "hit": out is not None}


def _note_store_put(args, kwargs, out, pre):
    return {"key": str(_arg(args, kwargs, 1, "key", ""))}


def _pre_compute_unit(args, kwargs):
    # The request's cache key, computed with the *unwrapped* function so
    # the lookup itself is not recorded as a span.
    from repro.service import cachekey

    key_fn = getattr(cachekey.cache_key, "__wrapped__", cachekey.cache_key)
    return key_fn(_arg(args, kwargs, 0, "request"))


def _note_compute_unit(args, kwargs, out, pre):
    return {"key": pre}


# ---------------------------------------------------------------------------
# The layer table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Target:
    """One public function (or method, ``Class.method``) to wrap."""

    span: str
    module: str
    attr: str
    note: Optional[Callable] = None
    pre: Optional[Callable] = None
    count_only: bool = False


TARGETS: Tuple[Target, ...] = (
    # engine
    Target("engine.run_unit", "repro.experiments.engine", "run_unit"),
    Target("engine.run_campaign", "repro.experiments.engine", "run_campaign"),
    Target("engine.campaign_to_json", "repro.experiments.engine", "campaign_to_json"),
    # localization (SMACOF, Algorithm 1 outlier search, rigidity) and
    # the protocol round that feeds it
    Target("localization.localize", "repro.localization.pipeline", "localize"),
    Target(
        "localization.detect_outliers",
        "repro.localization.outliers",
        "detect_outliers",
        note=_note_outliers,
    ),
    Target("localization.smacof", "repro.localization.smacof", "smacof", note=_note_smacof),
    Target("localization.classical_mds", "repro.localization.smacof", "classical_mds"),
    Target(
        "localization.stress_value",
        "repro.localization.smacof",
        "stress_value",
        count_only=True,
    ),
    Target(
        "localization.is_uniquely_realizable",
        "repro.localization.rigidity",
        "is_uniquely_realizable",
    ),
    Target("localization.run_round", "repro.simulate.network_sim", "NetworkSimulator.run_round"),
    Target("localization.run_protocol_round", "repro.protocol.round", "run_protocol_round"),
    # waveform stack: Phase A plan / Phase B flush
    Target("batch_exchange.plan", "repro.simulate.batch_exchange", "BatchExchangeRenderer.add"),
    Target("batch_exchange.plan", "repro.simulate.batch_exchange", "BatchOneWay.add"),
    Target(
        "batch_exchange.flush",
        "repro.simulate.batch_exchange",
        "BatchExchangeRenderer.render_plans",
    ),
    Target("batch_exchange.flush", "repro.simulate.batch_exchange", "BatchOneWay.run"),
    Target(
        "batch_exchange.flusher_submit",
        "repro.simulate.batch_exchange",
        "PipelinedFlusher.submit",
        count_only=True,
    ),
    Target("channel.taps", "repro.channel.multipath", "image_method_tap_arrays"),
    Target("channel.apply", "repro.channel.render", "apply_channel_batch", note=_note_apply),
    Target("channel.noise", "repro.channel.noise", "synth_noise_rows"),
    Target(
        "signals.ncc",
        "repro.signals.batchcorr",
        "normalized_cross_correlation_batch",
        note=_note_ncc,
    ),
    Target(
        "signals.ncc",
        "repro.signals.batchcorr",
        "normalized_cross_correlation_fused",
        note=_note_ncc,
    ),
    Target(
        "signals.gate",
        "repro.signals.batchcorr",
        "sliding_autocorrelation_batch",
        note=_note_gate_single,
    ),
    Target(
        "signals.gate",
        "repro.signals.batchcorr",
        "segment_autocorrelation_scores_multi",
        note=_note_gate_multi,
    ),
    Target("ranging.detect", "repro.ranging.batch", "detect_preamble_batch", note=_note_detect),
    Target("ranging.cir", "repro.ranging.batch", "ls_channel_estimate_batch"),
    Target("ranging.cir", "repro.ranging.batch", "channel_impulse_response_batch"),
    Target("ranging.arrival", "repro.ranging.batch", "BatchArrivalEstimator.estimate_many"),
    # discrete-event simulation
    Target(
        "des.event.run",
        "repro.simulate.des.core",
        "Simulator.run",
        note=_note_sim_run,
        pre=_pre_sim_run,
    ),
    Target("des.medium.broadcast", "repro.simulate.des.medium", "AcousticMedium.broadcast"),
    Target("des.vec.round", "repro.simulate.des.fleetvec", "run_fleet_round_vec"),
    Target(
        "des.campaign",
        "repro.simulate.des.fleet",
        "run_fleet_campaign",
        note=_note_fleet_campaign,
    ),
    Target("des.plan_relays", "repro.protocol.relay", "plan_relays"),
    # serving tier (installed inside the server process)
    Target("service.normalize_request", "repro.service.cachekey", "normalize_request"),
    Target("service.cache_key", "repro.service.cachekey", "cache_key"),
    Target("service.store.get", "repro.service.store", "CacheStore.get", note=_note_store_get),
    Target("service.store.put", "repro.service.store", "CacheStore.put", note=_note_store_put),
    Target(
        "service.compute_unit",
        "repro.service.compute",
        "compute_unit",
        note=_note_compute_unit,
        pre=_pre_compute_unit,
    ),
    Target("service.encode_body", "repro.service.compute", "encode_body"),
)


def _wrap(rec: Recorder, target: Target, fn: Callable) -> Callable:
    name = target.span
    if target.count_only:

        @functools.wraps(fn)
        def counting(*args, **kwargs):
            rec.count(name)
            return fn(*args, **kwargs)

        return counting

    note, pre = target.note, target.pre
    clock = time.perf_counter

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        stack = rec.stack()
        parent = stack[-1] if stack else -1
        sid = next(rec._ids)
        tag = rec.tag
        before = None
        if pre is not None:
            try:
                before = pre(args, kwargs)
            except Exception:  # a broken hook must not break the program
                rec.count(NOTE_ERRORS)
        stack.append(sid)
        start = clock()
        try:
            out = fn(*args, **kwargs)
        except BaseException:
            end = clock()
            stack.pop()
            rec.spans.append((sid, name, start, end, parent, tag, threading.get_ident(), None))
            raise
        end = clock()
        stack.pop()
        extra = None
        if note is not None:
            try:
                extra = note(args, kwargs, out, before)
            except Exception as exc:  # a broken note must not break the program
                rec.count(NOTE_ERRORS)
                extra = {"note_error": repr(exc)}
        rec.spans.append((sid, name, start, end, parent, tag, threading.get_ident(), extra))
        return out

    return wrapper


def install(rec: Recorder) -> None:
    """Wrap every target in :data:`TARGETS`.

    Module-level functions are replaced wherever a loaded ``repro``
    module holds the original object, which covers callers that bound
    the name at import time (``from ...smacof import smacof``).
    """
    for target in TARGETS:
        module = importlib.import_module(target.module)
        if "." in target.attr:
            cls_name, meth = target.attr.split(".")
            owner = getattr(module, cls_name)
            original = inspect.getattr_static(owner, meth)
            rec._patches.append((owner, meth, original))
            setattr(owner, meth, _wrap(rec, target, original))
            continue
        original = getattr(module, target.attr)
        wrapped = _wrap(rec, target, original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            if getattr(mod, target.attr, None) is original:
                rec._patches.append((mod, target.attr, original))
                setattr(mod, target.attr, wrapped)


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------


def write_chrome_trace(path: str, spans: List[Span], counts: Dict[str, int]) -> None:
    """Write spans as Chrome trace-event JSON (Perfetto, chrome://tracing)."""
    pid = os.getpid()
    events = []
    for sid, name, start, end, parent, tag, tid, note in spans:
        args = {"id": sid, "parent": parent, "unit": tag}
        if note:
            args.update(note)
        events.append(
            {
                "name": name,
                "cat": name.split(".", 1)[0],
                "ph": "X",
                "ts": round(start * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "pid": pid,
                "tid": tid,
                "args": args,
            }
        )
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"traceEvents": events, "otherData": {"counts": counts}}, fh)
