"""The closed-loop campaign workloads: ``localize``, ``ranging``, ``fleet``.

One caller runs the workload's fixed unit set through
``engine.run_unit`` serially, then encodes the campaign artifact with
``engine.campaign_to_json`` — one *pass*.  Passes repeat until the
measuring time is used up, each on the draw :func:`measure` gives it;
a pass that repeats a draw must give byte-identical artifacts.
``cpu_s`` is :func:`cpu_per_pass`; the host-speed probe
(``probe.py``) runs before each unit and after the encoding.

Each workload puts nearly all of its time into one compute layer:

* ``localize`` — fig6 (all four analytical sweeps), fig18 (dock,
  boathouse), fig19 and fig20 (device1, device2): SMACOF, Algorithm 1
  outlier search and the rigidity test; no waveform or DES code.
* ``ranging`` — the six waveform figures on the bit-parity ``batch``
  backend, then again on ``fast``/``float32``: Phase A planning and
  Phase B render/FFT/gate/detect; no localization.
* ``fleet`` — the ``fleet1k`` (vectorized engine) and ``fleet200``,
  ``churn``, ``mobility``, ``contention`` (event engine) fleet variants:
  the discrete-event simulator only.
"""

from __future__ import annotations

import hashlib
import math
import statistics
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import layers
import spans
from probe import HostProbe


@dataclass(frozen=True)
class Unit:
    experiment: str
    variant: str
    scale: float
    backend: Optional[str] = None
    precision: Optional[str] = None

    @property
    def label(self) -> str:
        suffix = ".f32" if self.precision == "float32" else ""
        return f"{self.experiment}-{self.variant}{suffix}"

    @property
    def group(self) -> Tuple[Optional[str], Optional[str]]:
        """Units of one group share one campaign artifact."""
        return (self.backend, self.precision)


def _localize_units() -> Tuple[Unit, ...]:
    # Scales keep one pass near 3 s on 2 vCPU with fig6 still the
    # largest share, as in the full default campaign.
    return (
        Unit("fig6", "default", 0.04),
        Unit("fig18", "dock", 0.25),
        Unit("fig18", "boathouse", 0.25),
        Unit("fig19", "default", 0.5),
        Unit("fig20", "device1", 0.25),
        Unit("fig20", "device2", 0.25),
    )


def _ranging_units() -> Tuple[Unit, ...]:
    # Full scale: the float32 contract's small-sample p95 budgets do not
    # hold on every seed at the smaller test scales (see README.md).
    batch = tuple(Unit(f, "default", 1.0, "batch") for f in layers.RANGING_FIGURES)
    fast = tuple(Unit(f, "default", 1.0, "fast", "float32") for f in layers.RANGING_FIGURES)
    return batch + fast


def _fleet_units() -> Tuple[Unit, ...]:
    return tuple(
        Unit("fleet", label.split("-", 1)[1], 0.5) for label in layers.FLEET_UNITS
    )


#: name -> (unit set, fresh draw per pass).  Draw ``k`` runs the unit
#: set at base seed ``seed + k * SEED_STRIDE``.  ``localize`` and
#: ``fleet`` take a fresh draw for every pass after the first, which
#: averages out seed-dependent work (outlier searches make one localize
#: draw's CPU time vary by ~15%); ``ranging`` at full scale does about
#: the same work on every seed and repeats draw 0, so its float32
#: contract is checked on one draw per run.
WORKLOADS = {
    "localize": (_localize_units, True),
    "ranging": (_ranging_units, False),
    "fleet": (_fleet_units, True),
}
SEED_STRIDE = 1_000_003

#: Key of the artifact encoding in a pass's CPU-seconds map.
ENCODE = "campaign_to_json"

#: Host-speed probes timed before each unit and after the encoding.
PROBES_PER_SLOT = 2

#: Scale of the warm-up pass that set-up runs before any timed section.
WARMUP_SCALE = 0.01


def _finite_leaves(value: Any) -> bool:
    """True when every number in a ``measured`` tree is finite."""
    if isinstance(value, dict):
        return all(_finite_leaves(v) for v in value.values())
    if isinstance(value, (list, tuple)):
        return all(_finite_leaves(v) for v in value)
    if value is None:
        return False
    if isinstance(value, (bool, str)):
        return True
    try:
        return math.isfinite(float(value))
    except (TypeError, ValueError):
        return False


class BatchWorkload:
    """One closed-loop workload inside this process."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.seed = seed
        units, self.fresh_draws = WORKLOADS[name]
        self.units = units()
        self.engine = None
        self.probe = HostProbe()

    # -- set-up ----------------------------------------------------------

    def setup(self) -> float:
        """Import, registry, code version and a warm-up pass; seconds."""
        start = time.perf_counter()
        from repro.experiments import engine
        from repro.service.cachekey import code_version

        engine.load_registry()
        code_version()
        self.engine = engine
        for unit in self.units:
            engine.run_unit(
                unit.experiment,
                unit.variant,
                base_seed=self.seed,
                scale=WARMUP_SCALE,
                backend=unit.backend,
                precision=unit.precision,
            )
        return time.perf_counter() - start

    # -- one pass --------------------------------------------------------

    def run_pass(self, base_seed: int, rec: Optional[spans.Recorder] = None):
        """Run every unit at ``base_seed``, then encode the artifacts.

        Returns ``(wall_s, cpu, results, artifacts)``: the pass's wall
        seconds; ``cpu`` mapping each unit label, and :data:`ENCODE` for
        the encoding, to its process CPU seconds; and ``artifacts``
        mapping a unit group to its campaign JSON text.
        """
        engine = self.engine
        results = []
        cpu: Dict[str, float] = {}
        start = time.perf_counter()
        for unit in self.units:
            if rec is not None:
                rec.tag = unit.label
            self.probe(PROBES_PER_SLOT)
            cpu_start = time.process_time()
            results.append(
                engine.run_unit(
                    unit.experiment,
                    unit.variant,
                    base_seed=base_seed,
                    scale=unit.scale,
                    backend=unit.backend,
                    precision=unit.precision,
                )
            )
            cpu[unit.label] = time.process_time() - cpu_start
        if rec is not None:
            rec.tag = ""
        cpu_start = time.process_time()
        artifacts: Dict[Tuple, str] = {}
        for group in dict.fromkeys(u.group for u in self.units):
            members = [r for u, r in zip(self.units, results) if u.group == group]
            artifacts[group] = engine.campaign_to_json(
                members, base_seed=base_seed, backend=group[0], precision=group[1]
            )
        cpu[ENCODE] = time.process_time() - cpu_start
        self.probe(PROBES_PER_SLOT)
        return time.perf_counter() - start, cpu, results, artifacts

    # -- checks ----------------------------------------------------------

    def unit_failures(self, results) -> List[str]:
        problems = []
        for unit, result in zip(self.units, results):
            if result.status != "ok":
                problems.append(f"{unit.label}: status {result.status}")
            elif not _finite_leaves(result.measured):
                problems.append(f"{unit.label}: non-finite measured value")
        return problems

    def contract_violations(self, results) -> List[str]:
        """``ranging``: fast/float32 against the same pass's batch metrics."""
        if self.name != "ranging":
            return []
        from repro.experiments.fast_contract import FAST_FIGURES, compare_measured

        by_label = {u.label: r for u, r in zip(self.units, results)}
        violations: List[str] = []
        for figure in layers.RANGING_FIGURES:
            if figure not in FAST_FIGURES:
                continue
            violations += compare_measured(
                figure,
                by_label[f"{figure}-default"].measured,
                by_label[f"{figure}-default.f32"].measured,
                precision="float32",
            )
        return violations


def artifact_digest(artifacts: Dict[Tuple, str]) -> str:
    digest = hashlib.sha256()
    for text in artifacts.values():
        digest.update(text.encode("utf-8"))
        digest.update(b"\0")
    return digest.hexdigest()


def cpu_per_pass(passes: List[Dict[str, float]]) -> float:
    """CPU seconds per pass: each unit's median over the passes, summed.

    Medians per unit rather than of pass totals: a short slow spell of
    the host lands on a unit or two of a pass, and a unit's median over
    the run drops it where a pass total would keep it.
    """
    return sum(statistics.median(p[key] for p in passes) for key in passes[0])


def measure(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    expected_digest: Optional[str],
    trace_path: Optional[str],
) -> Dict[str, Any]:
    """Set up once, then run passes for ``seconds`` (see module doc).

    Untraced runs run draw 0 twice (a repeat must give byte-identical
    artifacts), then draws 1, 2, ... (or draw 0 again, for a workload
    without fresh draws) until the time is used up.  ``cpu_s`` is
    :func:`cpu_per_pass` of the passes; ``run_s`` is their median wall
    seconds.  Traced runs run each draw untraced, then traced: the
    per-layer metrics come from the traced passes,
    ``trace.overhead_frac`` from ``cpu_per_pass`` of each half, and
    each traced artifact must equal its untraced twin.
    """
    work = BatchWorkload(name, seed)
    setup_s = work.setup()
    rec = spans.Recorder() if trace else None
    # (draw, traced, wall seconds, CPU seconds by unit) per pass.
    passes: List[Tuple[int, bool, float, Dict[str, float]]] = []
    reference: Dict[int, Dict[Tuple, str]] = {}
    attempted = failed = 0
    problems: List[str] = []
    begin = time.perf_counter()
    i = 0
    while True:
        if trace:
            n, traced = i // 2, i % 2 == 1
        else:
            n, traced = max(0, i - 1), False
        k = n if work.fresh_draws else 0
        if traced:
            spans.install(rec)
        try:
            wall, cpu, results, artifacts = work.run_pass(
                seed + k * SEED_STRIDE, rec if traced else None
            )
        finally:
            if traced:
                rec.uninstall()
        passes.append((k, traced, wall, cpu))
        attempted += len(results)
        bad = work.unit_failures(results)
        if k not in reference:
            reference[k] = artifacts
            bad += [f"float32 contract: {v}" for v in work.contract_violations(results)]
        elif artifacts != reference[k]:
            what = "traced" if traced else "repeated"
            bad.append(f"draw {k}: {what} pass artifact differs from the first pass")
        if bad:
            failed += len(results)
            problems += bad
        i += 1
        enough = (i % 2 == 0 and i >= 4) if trace else i >= 3
        if enough and time.perf_counter() - begin >= seconds:
            break

    def cpu_of(traced: bool) -> float:
        return cpu_per_pass([p[3] for p in passes if p[1] == traced])

    digest = artifact_digest(reference[0])
    if expected_digest is not None and digest != expected_digest:
        problems.append(f"artifact digest {digest} != committed {expected_digest}")
    out: Dict[str, Any] = {
        "setup_s": setup_s,
        "cpu_s": cpu_of(False),
        "run_s": statistics.median(p[2] for p in passes if not p[1]),
        "passes": [
            {"draw": k, "traced": t, "wall_s": w, "cpu_s": c} for k, t, w, c in passes
        ],
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "digest": digest,
        "probe_s": work.probe.median_s(),
        "probe_samples": len(work.probe.samples),
    }
    if trace:
        if rec.counts.get(spans.NOTE_ERRORS):
            problems.append(f"{rec.counts[spans.NOTE_ERRORS]} span notes raised")
        traced_passes = sum(1 for p in passes if p[1])
        values = layers.layer_metrics(
            rec.spans, rec.counts, traced_passes, [u.label for u in work.units]
        )
        values["run_s"] = out["run_s"]
        values["cpu_s"] = out["cpu_s"]
        values["host.probe_ms"] = out["probe_s"] * 1e3
        values["trace.overhead_frac"] = cpu_of(True) / out["cpu_s"] - 1.0
        out["layers"] = values
        if trace_path:
            spans.write_chrome_trace(trace_path, rec.spans, rec.counts)
    return out
