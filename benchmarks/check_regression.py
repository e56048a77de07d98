"""CI perf-regression gate over the benchmark artifacts.

Usage::

    PYTHONPATH=src python benchmarks/check_regression.py \
        --baseline BENCH_PR5.json --current BENCH_CI.json

Compares the per-figure backend speedups measured in this run against
the committed baseline and fails (exit 1) when:

* a figure present in the baseline is missing from the current artifact
  (or carries an ``error`` entry) — a broken backend must not slip
  through by vanishing from the JSON;
* a figure present in the current artifact but absent from the baseline
  — such a figure would otherwise never be gated at all; pass
  ``--allow-new-figures`` for the one run that introduces it (then
  commit a refreshed baseline so it is gated from the next run on);
* a figure records no ``batch`` or ``fast`` seconds;
* a figure's fast-vs-batch speedup (``batch / fast``, computed from the
  raw seconds of each artifact, so artifacts that recorded a legacy
  column stay valid baselines) drops below ``--min-speedup`` (default
  1.0x: the fast tier must never be slower than the parity backend) or
  regresses more than ``--max-regression`` (default 25%) relative to
  the baseline;
* the flush-pipeline executor A/B (``speedup_pipeline`` =
  sequential/pipelined flush, when recorded) falls below
  ``--min-pipeline-speedup`` (default 0.75x — a single-core host cannot
  be required to show a gain, and its two pipeline threads genuinely
  contend; the floor only catches a pipeline that has become grossly
  more expensive than synchronous flushing) or regresses more than
  ``--max-regression`` against a baseline that recorded it;

* the float32 tier (``speedup_float32`` = fast float64 / fast float32,
  when recorded): fewer than ``--min-float32-figures`` (default 3) of
  the heavy figures (figs 11–15) clear ``--min-float32-speedup``
  (default 1.3x).  The gate counts figures instead of flooring each
  one because the per-figure ratio rides how much of that figure's
  wall clock is precision-independent Python (Phase-A planning, RNG);

* any figure's ``contract_float32`` rows are non-empty — the float32
  run violated the statistical contract against this run's own batch
  metrics.  This is a *correctness* failure, not a perf reading, so it
  fails the run even under ``BENCH_REGRESSION_SKIP=1``.

* the campaign-service warm-hit p50 (``service.service_warm``, when
  recorded) exceeds the absolute ``--max-warm-p50`` bound (default
  0.25 s) — a cache hit is a disk read, so a slow one means the hit
  path started recomputing.

* the fleet-engine rows (``fleet.fleet1k``, when recorded): the
  vec-vs-event summaries must be byte-identical (``parity``), the
  ``speedup_vec`` column must clear ``--min-fleet-speedup`` (default
  3.0x — an absolute floor well under the ~10x a quiet host shows, so
  CI noise cannot fail a healthy engine but a de-vectorized one
  cannot hide), and the 10k scale row must be present and complete.

Figures whose current batch time is under ``--min-seconds`` (default
0.05 s, e.g. fig22 at smoke scales) are reported but not gated — at
millisecond scale the speedup ratio is timer noise.

Override knobs (documented in README):

* ``BENCH_REGRESSION_SKIP=1`` turns the gate into a report-only pass
  (exit 0 regardless), for runs on known-noisy hardware;
* ``--max-regression`` / ``--min-speedup`` / ``--min-seconds`` tune the
  thresholds per invocation.
"""

from __future__ import annotations

import argparse
import json
import os
from typing import Dict, List


def _load(path: str) -> Dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def check(
    baseline: Dict,
    current: Dict,
    max_regression: float = 0.25,
    min_speedup: float = 1.0,
    min_pipeline_speedup: float = 0.75,
    min_seconds: float = 0.05,
    allow_new_figures: bool = False,
    max_warm_p50: float = 0.25,
    min_fleet_speedup: float = 3.0,
    min_float32_speedup: float = 1.3,
    min_float32_figures: int = 3,
) -> List[str]:
    """Return the list of violations (empty when the gate passes)."""
    violations: List[str] = []
    violations.extend(_check_service(baseline, current, max_warm_p50))
    violations.extend(_check_fleet(baseline, current, min_fleet_speedup))
    violations.extend(
        _check_float32(current, min_float32_speedup, min_float32_figures)
    )
    base_figs = baseline.get("figures", {})
    cur_figs = current.get("figures", {})
    # Figures only the current artifact knows about are never compared
    # by the baseline loop below — report them and fail unless the run
    # explicitly opted in, so new figures cannot ship ungated silently.
    for name in sorted(cur_figs):
        if name in base_figs:
            continue
        if "error" in cur_figs[name]:
            # A broken figure must never ship green, least of all on
            # the very run that introduces it.
            violations.append(
                f"{name}: new figure errored: {cur_figs[name]['error']}"
            )
        elif allow_new_figures:
            print(f"  {name}: new figure, not in baseline (allowed by flag)")
        else:
            violations.append(
                f"{name}: present in current artifact but missing from the "
                "baseline — regenerate the committed baseline, or pass "
                "--allow-new-figures for the run that introduces it"
            )
    for name, base in base_figs.items():
        cur = cur_figs.get(name)
        if cur is None:
            violations.append(f"{name}: missing from current artifact")
            continue
        if "error" in cur:
            violations.append(f"{name}: current run errored: {cur['error']}")
            continue
        if "batch" not in cur or "fast" not in cur:
            violations.append(f"{name}: no batch/fast timings recorded")
            continue
        if float(cur["batch"]) < min_seconds:
            print(
                f"  {name}: batch {float(cur['batch']):.3f}s < "
                f"{min_seconds:.2f}s, too small to gate (informational only)"
            )
            continue
        gates = (
            ("fast", _fast_speedup(cur), _fast_speedup(base), min_speedup),
            (
                "pipeline",
                cur.get("speedup_pipeline"),
                base.get("speedup_pipeline"),
                min_pipeline_speedup,
            ),
        )
        for label, cur_speedup, base_speedup, floor_speedup in gates:
            if cur_speedup is None:
                continue
            cur_speedup = float(cur_speedup)
            parts = [f"{name}/{label}: {cur_speedup:.2f}x"]
            if cur_speedup < floor_speedup:
                violations.append(
                    f"{name}: {label} speedup {cur_speedup:.2f}x below the "
                    f"{floor_speedup:.2f}x floor"
                )
            if base_speedup is not None:
                floor = float(base_speedup) * (1.0 - max_regression)
                parts.append(
                    f"(baseline {float(base_speedup):.2f}x, floor {floor:.2f}x)"
                )
                if cur_speedup < floor:
                    violations.append(
                        f"{name}: {label} speedup {cur_speedup:.2f}x regressed "
                        f">{max_regression:.0%} vs baseline "
                        f"{float(base_speedup):.2f}x"
                    )
            print("  " + " ".join(parts))
    return violations


def _fast_speedup(fig: Dict):
    """``batch / fast`` seconds, or ``None`` when either is missing."""
    if "batch" in fig and "fast" in fig:
        return float(fig["batch"]) / float(fig["fast"])
    return None


def _check_service(
    baseline: Dict, current: Dict, max_warm_p50: float
) -> List[str]:
    """Gate the campaign-service rows (when this run recorded them).

    The warm-hit p50 is an *absolute* bound, not a baseline ratio: a
    cache hit is a disk read plus HTTP framing, so its latency budget
    does not scale with how slow the engine happens to be on this
    host.  The bound is deliberately generous (default 0.25 s) — it
    catches a hit path that silently started invoking the engine, not
    millisecond jitter.  ``BENCH_REGRESSION_SKIP=1`` skips this gate
    like every other.
    """
    violations: List[str] = []
    svc = current.get("service")
    if svc is None:
        if baseline.get("service") is not None:
            violations.append(
                "service: cold/warm rows present in baseline but missing "
                "from the current artifact"
            )
        return violations
    if "error" in svc:
        violations.append(f"service: errored: {svc['error']}")
        return violations
    warm = float(svc.get("service_warm", float("inf")))
    print(
        f"  service: cold {float(svc.get('service_cold', 0.0)):.2f}s  "
        f"warm p50 {warm * 1e3:.2f}ms (bound {max_warm_p50 * 1e3:.0f}ms)"
    )
    if warm > max_warm_p50:
        violations.append(
            f"service: warm-hit p50 {warm * 1e3:.1f}ms above the "
            f"{max_warm_p50 * 1e3:.0f}ms bound — cache hits may be "
            "touching the engine"
        )
    return violations


def _check_fleet(
    baseline: Dict, current: Dict, min_fleet_speedup: float
) -> List[str]:
    """Gate the fleet vec-vs-event rows (when this run recorded them).

    ``speedup_vec`` is gated by an *absolute* floor, not a baseline
    ratio: the vec-vs-event ratio is a Python-vs-Python property of the
    engines, largely host-independent, and the floor (default 3.0x,
    far under the ~10x a quiet host measures) only catches an engine
    that stopped being vectorized.  ``parity`` is a hard gate — the vec
    backend's whole contract is byte-identical summaries.
    """
    violations: List[str] = []
    fleet = current.get("fleet")
    if fleet is None:
        if baseline.get("fleet") is not None:
            violations.append(
                "fleet: vec-vs-event rows present in baseline but missing "
                "from the current artifact"
            )
        return violations
    if "error" in fleet:
        violations.append(f"fleet: errored: {fleet['error']}")
        return violations
    row = fleet.get("fleet1k")
    if row is None:
        violations.append("fleet: fleet1k A/B row missing")
    else:
        speedup = float(row.get("speedup_vec", 0.0))
        print(
            f"  fleet/fleet1k: vec {speedup:.1f}x over event "
            f"(floor {min_fleet_speedup:.1f}x), "
            f"parity {'OK' if row.get('parity') else 'BROKEN'}"
        )
        if not row.get("parity"):
            violations.append(
                "fleet: fleet1k vec summary diverged from the event backend "
                "— the parity contract (DESIGN.md §10) is broken"
            )
        if speedup < min_fleet_speedup:
            violations.append(
                f"fleet: fleet1k vec speedup {speedup:.2f}x below the "
                f"{min_fleet_speedup:.2f}x floor"
            )
    row10 = fleet.get("fleet10k")
    if row10 is None:
        violations.append("fleet: fleet10k scale row missing")
    else:
        missing = [
            key
            for key in (
                "vec",
                "mean_energy_j_per_round",
                "mean_abs_clock_offset_s",
                "max_abs_clock_offset_s",
            )
            if key not in row10
        ]
        print(
            f"  fleet/fleet10k: vec {float(row10.get('vec', 0.0)):.1f}s "
            f"({row10.get('rounds', '?')} round(s))"
        )
        if missing:
            violations.append(
                f"fleet: fleet10k row incomplete (missing {', '.join(missing)})"
            )
    return violations


def _check_float32(
    current: Dict, min_float32_speedup: float, min_float32_figures: int
) -> List[str]:
    """Gate the float32 precision tier (when this run recorded it).

    Counts how many heavy figures (figs 11–15; fig22 is millisecond
    scale) clear the float32-over-float64 speedup floor instead of
    flooring every figure: the per-figure ratio depends on how much of
    that figure's wall clock is precision-independent Python, so one
    Phase-A-heavy figure must not fail an otherwise healthy tier.
    """
    violations: List[str] = []
    figures = current.get("figures", {})
    rows = {
        name: float(fig["speedup_float32"])
        for name, fig in figures.items()
        if name in ("fig11", "fig12", "fig13", "fig14", "fig15")
        and isinstance(fig, dict)
        and "speedup_float32" in fig
    }
    if not rows:  # artifact predates the precision column
        return violations
    cleared = sorted(n for n, v in rows.items() if v >= min_float32_speedup)
    summary = "  ".join(f"{n} {v:.2f}x" for n, v in sorted(rows.items()))
    print(
        f"  float32: {summary} — {len(cleared)}/{len(rows)} clear the "
        f"{min_float32_speedup:.2f}x floor (need {min_float32_figures})"
    )
    if len(cleared) < min_float32_figures:
        violations.append(
            f"float32: only {len(cleared)} of {len(rows)} heavy figures "
            f"reach {min_float32_speedup:.2f}x over fast float64 "
            f"(need {min_float32_figures}): {summary}"
        )
    return violations


def contract_violations(current: Dict) -> List[str]:
    """Float32 statistical-contract rows recorded by the bench run.

    Non-empty rows mean the float32 tier produced metrics outside the
    registered tolerances of its own run — a correctness break, not a
    perf reading.  ``main`` fails on these even under
    ``BENCH_REGRESSION_SKIP=1``.
    """
    out: List[str] = []
    for name, fig in sorted(current.get("figures", {}).items()):
        if isinstance(fig, dict):
            for violation in fig.get("contract_float32") or ():
                out.append(f"{name}: float32 contract: {violation}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline",
        default="BENCH_PR9.json",
        help="committed baseline artifact (default: BENCH_PR9.json)",
    )
    parser.add_argument(
        "--allow-new-figures",
        action="store_true",
        help="report (not fail) figures absent from the baseline",
    )
    parser.add_argument(
        "--current", required=True, help="artifact produced by this run"
    )
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.25,
        help="allowed fractional speedup drop vs baseline (default 0.25)",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=1.0,
        help=(
            "absolute fast-vs-batch speedup floor for every gated figure "
            "(default 1.0)"
        ),
    )
    parser.add_argument(
        "--min-pipeline-speedup",
        type=float,
        default=0.75,
        help=(
            "absolute floor for the flush-pipeline executor A/B "
            "(default 0.75: single-core hosts pay real thread contention; "
            "the floor only catches a grossly regressed pipeline)"
        ),
    )
    parser.add_argument(
        "--min-seconds",
        type=float,
        default=0.05,
        help="skip figures whose batch time is below this (timer noise)",
    )
    parser.add_argument(
        "--max-warm-p50",
        type=float,
        default=0.25,
        help=(
            "absolute bound (seconds) on the campaign-service warm-hit "
            "p50 latency (default 0.25; generous on purpose — it catches "
            "a hit path that recomputes, not timer jitter)"
        ),
    )
    parser.add_argument(
        "--min-fleet-speedup",
        type=float,
        default=3.0,
        help=(
            "absolute floor for the fleet vec-vs-event speedup column "
            "(default 3.0: far below the ~10x a quiet host measures, so "
            "only a de-vectorized engine can fail it)"
        ),
    )
    parser.add_argument(
        "--min-float32-speedup",
        type=float,
        default=1.3,
        help=(
            "float32-over-float64 fast speedup a heavy figure must reach "
            "to count toward --min-float32-figures (default 1.3)"
        ),
    )
    parser.add_argument(
        "--min-float32-figures",
        type=int,
        default=3,
        help=(
            "how many of figs 11-15 must clear --min-float32-speedup "
            "(default 3)"
        ),
    )
    args = parser.parse_args(argv)

    baseline = _load(args.baseline)
    current = _load(args.current)
    print(f"perf gate: {args.current} vs baseline {args.baseline}")
    violations = check(
        baseline,
        current,
        max_regression=args.max_regression,
        min_speedup=args.min_speedup,
        min_pipeline_speedup=args.min_pipeline_speedup,
        min_seconds=args.min_seconds,
        allow_new_figures=args.allow_new_figures,
        max_warm_p50=args.max_warm_p50,
        min_fleet_speedup=args.min_fleet_speedup,
        min_float32_speedup=args.min_float32_speedup,
        min_float32_figures=args.min_float32_figures,
    )
    hard = contract_violations(current)
    if not violations and not hard:
        print("perf gate: OK")
        return 0
    print("perf gate: FAILED")
    for v in violations + hard:
        print(f"  - {v}")
    if os.environ.get("BENCH_REGRESSION_SKIP") == "1":
        if hard:
            # A contract break is a correctness failure; noisy hardware
            # is no excuse for wrong metrics.
            print(
                "BENCH_REGRESSION_SKIP=1 ignored: float32 contract "
                "violations are correctness failures"
            )
            return 1
        print("BENCH_REGRESSION_SKIP=1: reporting only, not failing the run")
        return 0
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
