"""Regenerate the parity-epoch baseline artifact (one-command reset).

The batch waveform parity contract is *bit-identity*, so any
fix that legitimately changes bits — like the epoch-2 FIR right-sizing —
must reset what "the bits" are.  Instead of hand-edited constants, the
pinned quantities live in a committed, regenerable artifact keyed by a
**parity epoch**:

* ``tests/baselines/parity_epoch<N>.json`` holds stream digests, one-way
  measurement values and per-figure measured outputs, all produced by
  the **batch** backend (whose streams and one-way measurements
  ``tests/test_batch_parity.py`` also proves bit-identical to the
  scalar per-exchange path at runtime; for the figures this artifact
  is the only oracle);
* bumping the bits = bump :data:`PARITY_EPOCH`, run this script, commit
  the new artifact and delete the old epoch's file — one command instead
  of a constant hunt;
* CI regenerates the artifact into a temporary directory and diffs it
  against the committed file (``--check``), so silent bit drift in
  the batch pipeline fails the build with a "run the regen script"
  message.

The absolute digests pin the bits of the *pinned build platform*.  On a
different BLAS/CPU/library build the scalar-vs-batch runtime parity
still holds while absolute bits may differ; set
``REPRO_PARITY_PIN_SKIP=1`` to run the parity suite without the
absolute-baseline pins there (CI never sets it).

The same script writes a second, epoch-free artifact,
``tests/baselines/localization_golden.json``: the localization golden
oracle.  It pins the exact outputs of ``smacof``, ``detect_outliers``
(Algorithm 1) and ``localize`` on a seeded corpus, plus the measured
outputs of the localization figures (fig6/18/19/20) at small scale.
Every localization speed-up must leave it byte-unchanged; ``--check``
diffs it like the epoch artifact.

Usage::

    PYTHONPATH=src python tests/regen_parity_baselines.py            # rewrite
    PYTHONPATH=src python tests/regen_parity_baselines.py --check    # CI drift gate
    PYTHONPATH=src python tests/regen_parity_baselines.py --out DIR  # regen elsewhere

Epoch history:

* **epoch 1** (PR 3/4): legacy over-length FIRs
  (``wave.size + ceil(max_delay*fs) + 2``) in the parity backends.
* **epoch 2** (PR 5): FIRs right-sized to the tap span via the shared
  ``channel.render.fir_length_for`` contract in *all* backends; every
  channel convolution's transform shrinks, re-rounding the streams.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
from pathlib import Path

import numpy as np

#: Bump together with any intentional bit change in the parity backends,
#: then rerun this script (see module docstring).
PARITY_EPOCH = 2

BASELINE_DIR = Path(__file__).resolve().parent / "baselines"

#: Campaign entries with a waveform backend switch, with cheap params —
#: shared with tests/test_batch_parity.py, which checks the batch output
#: of each against the pinned figures.
BACKEND_EXPERIMENTS = {
    "fig11": dict(scale=1.0, num_exchanges=3, ablation_exchanges=2),
    "fig12": dict(scale=1.0, num_trials=3, num_exchanges=2),
    "fig13": dict(scale=1.0, num_exchanges=3, readings_per_depth=4),
    "fig14": dict(scale=1.0, num_exchanges=2),
    "fig15": dict(scale=0.1),
    "fig22": dict(scale=1.0, num_symbols=4),
}


def baseline_path(epoch: int = PARITY_EPOCH, directory: Path | None = None) -> Path:
    return (directory or BASELINE_DIR) / f"parity_epoch{epoch}.json"


def stream_digest(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def reception_scenarios():
    """The pinned reception scenarios (shared with the parity test)."""
    from repro.channel.environment import BOATHOUSE, DOCK
    from repro.channel.occlusion import Occlusion
    from repro.devices.models import GOOGLE_PIXEL, ONEPLUS
    from repro.simulate.waveform_sim import ExchangeConfig

    return {
        "dock": dict(
            config=ExchangeConfig(environment=DOCK),
            geometries=[([0, 0, 2.5], [d, 0, 2.4]) for d in (10.0, 20.0, 35.0, 45.0)],
            seed=11,
        ),
        "boathouse_occluded": dict(
            config=ExchangeConfig(
                environment=BOATHOUSE,
                tx_model=GOOGLE_PIXEL,
                rx_model=ONEPLUS,
                tx_azimuth_rad=0.7,
                tx_polar_rad=0.3,
                occlusion=Occlusion(direct_attenuation_db=40.0),
                amplitude=0.7,
            ),
            geometries=[
                ([0, 0, 1.0], [12.0, 1.0, 1.4]),
                ([0, 0, 1.2], [20.0, -2.0, 0.8]),
            ],
            seed=23,
        ),
    }


def reception_payload() -> dict:
    """Stream digests for the pinned reception scenarios (batch backend)."""
    from repro.signals.preamble import make_preamble
    from repro.simulate.batch_exchange import BatchExchangeRenderer

    preamble = make_preamble()
    payload = {}
    for name, scenario in reception_scenarios().items():
        rng = np.random.default_rng(scenario["seed"])
        renderer = BatchExchangeRenderer(preamble)
        for tx, rx in scenario["geometries"]:
            renderer.add(tx, rx, scenario["config"], rng)
        payload[name] = [
            {
                "mic1_sha256": stream_digest(rec.mic1),
                "mic2_sha256": stream_digest(rec.mic2),
                "mic1_len": int(rec.mic1.size),
                "guard": int(rec.guard),
                "true_arrival": rec.true_arrival,
            }
            for rec in renderer.render()
        ]
    return payload


def one_way_payload() -> list:
    """The pinned one-way measurement values (batch backend, DOCK)."""
    from repro.channel.environment import DOCK
    from repro.signals.preamble import make_preamble
    from repro.simulate.batch_exchange import BatchOneWay
    from repro.simulate.waveform_sim import ExchangeConfig

    preamble = make_preamble()
    config = ExchangeConfig(environment=DOCK)
    rng = np.random.default_rng(2023)
    sim = BatchOneWay(preamble, chunk=5)
    for i in range(12):
        sim.add([0, 0, 2.5], [10 + 2.5 * i, 0, 2.5], config, rng)
    payload = []
    for m in sim.run():
        entry = {
            "true_distance_m": m.true_distance_m,
            "detected": m.detected,
            "estimated_distance_m": (
                None if np.isnan(m.estimated_distance_m) else m.estimated_distance_m
            ),
        }
        if m.arrival is not None:
            entry["arrival_index"] = m.arrival.arrival_index
            entry["start_index"] = int(m.arrival.detection.start_index)
            entry["arrival_sign"] = int(m.arrival.arrival_sign)
        payload.append(entry)
    return payload


def figure_payload(name: str) -> dict:
    """One figure's measured outputs under the batch backend."""
    from repro.experiments import engine

    entry = engine.get_spec(name).resolve_entry()
    rng = engine.experiment_rng(name)
    output = entry(rng, backend="batch", **BACKEND_EXPERIMENTS[name])
    return engine.jsonify(output.measured)


#: The localization golden oracle (no epoch: localization has one
#: implementation, so its bits never legitimately change with a backend).
LOCALIZATION_GOLDEN = "localization_golden.json"

#: Golden corpus: ``(nodes, missing links, occluded-link excess lengths
#: in metres, stress-threshold override or None)``.  The excess lengths
#: are graded (one large, then smaller) so Algorithm 1 accepts a drop
#: at one level and still sees stress at the next; the low-threshold
#: cases force levels 2 and 3 of the search.
LOCALIZATION_CASES = (
    (7, 3, (30.0, 9.0, 4.0), 0.01),
    (4, 0, (), None),
    (4, 0, (8.0,), None),
    (5, 0, (8.0,), None),
    (6, 0, (30.0, 9.0, 4.0), 0.01),
    (5, 1, (30.0, 9.0), None),
    (6, 2, (8.0,), None),
    (7, 0, (), None),
    (7, 2, (10.0, 6.0), None),
    (8, 0, (8.0,), None),
    (8, 3, (8.0,), None),
    (9, 0, (30.0,), None),
    (9, 4, (8.0, 6.0), None),
    (10, 5, (8.0,), None),
)

#: Localization figures pinned at small scale: (experiment, variant, scale).
LOCALIZATION_FIGURES = (
    ("fig6", "default", 0.01),
    ("fig18", "dock", 0.1),
    ("fig18", "boathouse", 0.1),
    ("fig19", "default", 0.1),
    ("fig20", "device1", 0.1),
    ("fig20", "device2", 0.1),
)


def localization_case(index: int):
    """Golden case ``index``: 3D ``(distances, depths, weights, threshold)``.

    Nodes sit in a 40 m square at 0.5-5 m depth.  Distances carry 0.2 m
    Gaussian noise; missing links are NaN with zero weight; each
    occluded link is lengthened by its excess (+-20%), as a reflection
    masquerading as the direct path would.
    """
    from itertools import combinations

    from repro.geometry.topology import full_weight_matrix, pairwise_distance_matrix

    n, n_missing, excesses, threshold = LOCALIZATION_CASES[index]
    rng = np.random.default_rng([2023, index])
    pts = np.column_stack([rng.uniform(-20.0, 20.0, (n, 2)), rng.uniform(0.5, 5.0, n)])
    noise = np.triu(rng.normal(0.0, 0.2, (n, n)), k=1)
    d = np.abs(pairwise_distance_matrix(pts) + noise + noise.T)
    np.fill_diagonal(d, 0.0)
    w = full_weight_matrix(n)
    links = list(combinations(range(n), 2))
    for k in rng.choice(len(links), n_missing, replace=False):
        i, j = links[k]
        w[i, j] = w[j, i] = 0.0
        d[i, j] = d[j, i] = np.nan
    present = [e for e in links if w[e] > 0]
    for excess, k in zip(excesses, rng.choice(len(present), len(excesses), replace=False)):
        i, j = present[k]
        d[i, j] = d[j, i] = d[i, j] + excess * rng.uniform(0.8, 1.2)
    return d, pts[:, 2], w, threshold


def _rng_digest(rng: np.random.Generator) -> str:
    state = json.dumps(rng.bit_generator.state, sort_keys=True)
    return hashlib.sha256(state.encode("utf-8")).hexdigest()


def _links(links) -> list:
    return [[int(i), int(j)] for i, j in links]


def localization_case_payload(index: int, search_log: list | None = None) -> dict:
    """Exact outputs of ``smacof``, ``detect_outliers`` and ``localize``.

    Each solver gets its own generator seeded from the case index; the
    digest of its final state pins how many init-jitter draws it took.
    The stress-threshold override applies to ``detect_outliers`` only;
    ``localize`` runs at the paper's threshold.
    ``search_log`` (when given) collects ``(links left, realizable)``
    for every subset Algorithm 1 tests, for the corpus coverage check.
    """
    from repro.localization import outliers
    from repro.localization.pipeline import localize
    from repro.localization.projection import project_distances
    from repro.localization.smacof import smacof

    d3, depths, w, threshold = localization_case(index)
    d2, w2 = project_distances(d3, depths, w)
    kwargs = {} if threshold is None else {"stress_threshold": threshold}

    rng = np.random.default_rng([7, index])
    base = smacof(d2, w2, rng=rng)
    solve = {
        "positions_sha256": stream_digest(base.positions),
        "stress": float(base.stress),
        "normalized_stress": float(base.normalized_stress),
        "n_iter": int(base.n_iter),
        "converged": bool(base.converged),
        "rng_state_sha256": _rng_digest(rng),
    }

    realizable = outliers.is_uniquely_realizable

    def logged(num_nodes, edges):
        edges = list(edges)
        verdict = realizable(num_nodes, edges)
        search_log.append((len(edges), verdict))
        return verdict

    rng = np.random.default_rng([11, index])
    if search_log is not None:
        outliers.is_uniquely_realizable = logged
    try:
        found = outliers.detect_outliers(d2, w2, rng=rng, **kwargs)
    finally:
        outliers.is_uniquely_realizable = realizable
    search = {
        "positions_sha256": stream_digest(found.positions),
        "normalized_stress": float(found.normalized_stress),
        "dropped_links": _links(found.dropped_links),
        "outliers_suspected": bool(found.outliers_suspected),
        "weights_sha256": stream_digest(found.weights),
        "rng_state_sha256": _rng_digest(rng),
    }

    rng = np.random.default_rng([13, index])
    located = localize(d3, depths, weights=w, rng=rng)
    pipeline = {
        "positions3d_sha256": stream_digest(located.positions3d),
        "normalized_stress": float(located.normalized_stress),
        "dropped_links": _links(located.dropped_links),
        "outliers_suspected": bool(located.outliers_suspected),
        "rng_state_sha256": _rng_digest(rng),
    }
    return {"smacof": solve, "detect_outliers": search, "localize": pipeline}


def localization_payload() -> dict:
    """The localization golden artifact (without provenance)."""
    from itertools import accumulate

    from repro.experiments import engine
    from repro.localization.rigidity import edges_from_weights
    from repro.localization.projection import project_distances

    cases = []
    levels_seen = set()
    rejected = 0
    for index in range(len(LOCALIZATION_CASES)):
        log: list = []
        cases.append(localization_case_payload(index, log))
        # Level k of the search removes 1 + 2 + ... + k links in total
        # when every earlier level accepted a drop, so the links a
        # tested subset leaves behind name its level.
        d3, depths, w, _ = localization_case(index)
        total = len(edges_from_weights(project_distances(d3, depths, w)[1]))
        level_of = {total - removed: k + 1 for k, removed in enumerate(accumulate((1, 2, 3)))}
        for left, verdict in log:
            levels_seen.add(level_of.get(left))
            rejected += not verdict
    # The corpus must exercise the deep search levels and the
    # realizability filter, or it cannot pin the candidate search.
    assert {1, 2, 3} <= levels_seen, f"search levels covered: {sorted(levels_seen)}"
    assert rejected > 0, "no candidate subset was rejected by realizability"

    figures = {}
    for name, variant, scale in LOCALIZATION_FIGURES:
        result = engine.run_unit(name, variant, scale=scale)
        assert result.status == "ok", result.error
        figures[f"{name}/{variant}@{scale}"] = engine.jsonify(result.measured)
    return {
        "schema": "repro-localization-golden/1",
        "cases": cases,
        "figures": figures,
    }


def generate_baselines() -> dict:
    """The full epoch artifact (without provenance: comparable payload)."""
    return {
        "schema": "repro-parity-baseline/1",
        "epoch": PARITY_EPOCH,
        "receptions": reception_payload(),
        "one_way": one_way_payload(),
        "figures": {name: figure_payload(name) for name in sorted(BACKEND_EXPERIMENTS)},
    }


def _with_provenance(doc: dict) -> dict:
    import scipy

    return {
        **doc,
        "provenance": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "regenerate": "PYTHONPATH=src python tests/regen_parity_baselines.py",
        },
    }


def _dump(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _artifacts(directory: Path | None = None):
    """``(label, path, generate)`` for every committed artifact."""
    parity = (f"parity baselines (epoch {PARITY_EPOCH})", baseline_path(directory=directory))
    golden = ("localization golden", (directory or BASELINE_DIR) / LOCALIZATION_GOLDEN)
    return (*parity, generate_baselines), (*golden, localization_payload)


def _check(label: str, committed_path: Path, generate, strict: bool) -> int:
    """Regenerate one artifact and diff it against the committed file."""
    if not committed_path.exists():
        print(f"missing committed baseline: {committed_path}")
        return 1
    committed = json.loads(committed_path.read_text(encoding="utf-8"))
    provenance = committed.pop("provenance", {})
    current = _with_provenance({})["provenance"]
    mismatched = [
        f"{lib} {provenance.get(lib)} (baseline) vs {current[lib]} (here)"
        for lib in ("numpy", "scipy")
        if provenance.get(lib) not in (None, current[lib])
    ]
    if mismatched:
        # The absolute bits are pinned per library build; a version
        # bump legitimately re-rounds FFT/BLAS results, so a diff
        # against a differently-versioned baseline proves nothing
        # about repo code.  On an unpinned dev machine, report and
        # pass.  In CI the environment is pinned to the baseline's
        # versions via ci-constraints.txt and runs --strict, so a
        # mismatch there means constraints and baseline drifted
        # apart — fail and demand they be updated together.
        verdict = "FAILED" if strict else "SKIPPED"
        print(f"{label} drift check {verdict} (library mismatch):")
        for line in mismatched:
            print(f"  - {line}")
        print(
            "update ci-constraints.txt and regenerate the baseline "
            "together:\n"
            "    PYTHONPATH=src python tests/regen_parity_baselines.py"
        )
        return 1 if strict else 0
    doc = generate()
    if committed != doc:
        print(f"{label} drifted from {committed_path}:")
        for key in doc:
            if committed.get(key) != doc[key]:
                print(f"  - section {key!r} differs")
        print(
            "the committed bits no longer match this code.\nIf the change is "
            f"intentional (parity backends: bump PARITY_EPOCH, now {PARITY_EPOCH}), "
            "run the regen script:\n"
            "    PYTHONPATH=src python tests/regen_parity_baselines.py"
        )
        return 1
    print(f"{label} OK ({committed_path})")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out",
        metavar="DIR",
        default=None,
        help=f"output directory (default: {BASELINE_DIR})",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="regenerate and diff against the committed artifacts (CI drift gate)",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="with --check: fail (instead of skip) on a numpy/scipy "
        "mismatch against the baseline's provenance — for environments "
        "pinned via ci-constraints.txt, where a mismatch means the "
        "constraints and the baseline drifted apart",
    )
    args = parser.parse_args(argv)
    out_dir = Path(args.out) if args.out else None

    if args.check:
        codes = [
            _check(label, path, generate, args.strict)
            for label, path, generate in _artifacts(out_dir)
        ]
        return max(codes)

    (out_dir or BASELINE_DIR).mkdir(parents=True, exist_ok=True)
    for label, path, generate in _artifacts(out_dir):
        path.write_text(_dump(_with_provenance(generate())), encoding="utf-8")
        print(f"wrote {path} ({label})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
