"""DES-vs-oracle parity: the adapter contract of DESIGN.md §4.

``run_protocol_round`` executes the round on the discrete-event engine.
The original straight-line fixed-point loop lives on here, as the
oracle :func:`_oracle_round`; these tests pin the engine to it on fixed
seeds — down to float equality for the timestamp reports, which is far
inside the uplink's clock quantization (2 samples at 44.1 kHz ≈ 45 µs).
"""

from typing import Dict, List, Optional, Tuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.constants import DELTA0_S, DELTA1_S
from repro.devices.clock import DeviceClock
from repro.geometry.topology import pairwise_distance_matrix
from repro.protocol.messages import Beacon, TimestampReport
from repro.protocol.round import RoundOutcome, run_protocol_round
from repro.protocol.sync import infer_transmit_slot
from repro.simulate import network_sim
from repro.simulate.network_sim import NetworkSimulator, RangingErrorModel
from repro.simulate.scenario import testbed_scenario

#: One uplink timestamp quantum (the satellite-task tolerance); the
#: engine and the oracle actually agree to float precision.
CLOCK_QUANTUM_S = 2 / 44_100


def _oracle_round(
    distances,
    connectivity,
    sound_speed: float,
    *,
    clocks: List[DeviceClock],
    arrival_noise,
    rng: np.random.Generator,
    depths: Optional[np.ndarray] = None,
    delta0_s: float = DELTA0_S,
    delta1_s: float = DELTA1_S,
) -> RoundOutcome:
    """The original straight-line round: fixed-point slot assignment.

    Takes ``run_protocol_round``'s arguments and pre-draws the per-link
    detection errors in the same fixed order, so it consumes the random
    stream exactly as the engine does.
    """
    d = np.asarray(distances, dtype=float)
    conn = np.asarray(connectivity, dtype=bool)
    n = d.shape[0]
    depths = np.zeros(n) if depths is None else np.asarray(depths, dtype=float)
    noise: Dict[Tuple[int, int], float] = {}
    for i in range(n):
        for j in range(n):
            if i != j and conn[i, j]:
                noise[(i, j)] = arrival_noise(i, j, float(d[i, j]), rng)

    global_tx: Dict[int, float] = {0: 0.0}
    sync_ref: Dict[int, int] = {0: 0}
    missed: List[int] = []

    def first_arrival(i: int) -> Optional[Tuple[float, int]]:
        """Earliest (global) arrival at device i from known transmitters."""
        best: Optional[Tuple[float, int]] = None
        for j, t_j in global_tx.items():
            if j == i or not conn[i, j]:
                continue
            t_arr = t_j + d[i, j] / sound_speed + noise[(i, j)]
            if best is None or t_arr < best[0]:
                best = (t_arr, j)
        return best

    # Fixed-point slot assignment: recompute until every reachable device
    # has a stable transmit time (a newly known transmission can only move
    # a device's first arrival earlier).
    pending = set(range(1, n))
    for _ in range(n + 2):
        changed = False
        for i in sorted(pending):
            arrival = first_arrival(i)
            if arrival is None:
                continue
            t_arr_global, ref = arrival
            local_arrival = clocks[i].local_time(t_arr_global)
            tx_local, deferred = infer_transmit_slot(
                i, ref, local_arrival, n, delta0_s, delta1_s
            )
            tx_global = clocks[i].global_time(tx_local)
            if i not in global_tx or not np.isclose(global_tx[i], tx_global):
                global_tx[i] = tx_global
                sync_ref[i] = ref
                if deferred and i not in missed:
                    missed.append(i)
                changed = True
        if not changed:
            break

    silent = [i for i in range(1, n) if i not in global_tx]
    # Ascending ids, matching the engine (the fixed point may
    # discover deferrals in any order across passes).
    missed.sort()

    # Build the reports: every device timestamps every beacon it hears.
    reports: Dict[int, TimestampReport] = {}
    last_event = 0.0
    beacons: List[Beacon] = []
    for i, t_i in sorted(global_tx.items()):
        beacons.append(
            Beacon(
                sender_id=i,
                sync_ref_id=sync_ref[i],
                tx_local_time_s=clocks[i].local_time(t_i),
            )
        )
    for i in range(n):
        if i not in global_tx:
            continue
        receptions: Dict[int, float] = {}
        for j, t_j in global_tx.items():
            if j == i or not conn[i, j]:
                continue
            t_arr = t_j + d[i, j] / sound_speed + noise[(i, j)]
            receptions[j] = clocks[i].local_time(t_arr)
            last_event = max(last_event, t_arr)
        reports[i] = TimestampReport(
            device_id=i,
            depth_m=float(depths[i]),
            own_tx_local_s=clocks[i].local_time(global_tx[i]),
            receptions=receptions,
        )

    return RoundOutcome(
        reports=reports,
        beacons=beacons,
        global_tx_times=global_tx,
        missed_slot_ids=missed,
        silent_ids=silent,
        duration_s=last_event,
    )


def _calibrated_noise(i, j, dist, rng):
    return rng.normal(0.0, 0.25 + 0.012 * dist) / 1_480.0


def _random_setup(seed, n=5, max_range=None):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-15, 15, size=(n, 3))
    pts[:, 2] = rng.uniform(1.0, 3.0, size=n)
    d = pairwise_distance_matrix(pts)
    conn = np.ones((n, n), dtype=bool) if max_range is None else d <= max_range
    np.fill_diagonal(conn, False)
    clocks = [
        DeviceClock(skew_ppm=rng.uniform(-80, 80), epoch_s=rng.uniform(0, 500))
        for _ in range(n)
    ]
    return d, conn, clocks


def _oracle_and_engine(d, conn, clocks, seed):
    outcomes = []
    for run in (_oracle_round, run_protocol_round):
        outcomes.append(
            run(
                d,
                conn,
                1_480.0,
                clocks=clocks,
                arrival_noise=_calibrated_noise,
                rng=np.random.default_rng(seed),
            )
        )
    return tuple(outcomes)


def _assert_outcomes_match(oracle, des, tol=CLOCK_QUANTUM_S):
    assert set(oracle.reports) == set(des.reports)
    assert sorted(oracle.silent_ids) == sorted(des.silent_ids)
    assert sorted(oracle.missed_slot_ids) == sorted(des.missed_slot_ids)
    assert oracle.duration_s == pytest.approx(des.duration_s, abs=tol)
    for i, report in oracle.reports.items():
        twin = des.reports[i]
        assert report.own_tx_local_s == pytest.approx(twin.own_tx_local_s, abs=tol)
        assert set(report.receptions) == set(twin.receptions)
        for j, t in report.receptions.items():
            assert t == pytest.approx(twin.receptions[j], abs=tol)
    for i, t in oracle.global_tx_times.items():
        assert t == pytest.approx(des.global_tx_times[i], abs=tol)


class TestProtocolRoundParity:
    def test_paper_scale_reports_match(self):
        """5 devices, realistic clocks and calibrated noise: the
        satellite-task scenario."""
        d, conn, clocks = _random_setup(42)
        oracle, des = _oracle_and_engine(d, conn, clocks, seed=7)
        _assert_outcomes_match(oracle, des)

    def test_reports_match_to_float_precision(self):
        """Engine and oracle share arithmetic term for term, so agreement
        is *exact*, not merely within the quantum."""
        d, conn, clocks = _random_setup(3)
        oracle, des = _oracle_and_engine(d, conn, clocks, seed=11)
        for i, report in oracle.reports.items():
            assert report.own_tx_local_s == des.reports[i].own_tx_local_s
            assert report.receptions == des.reports[i].receptions

    def test_out_of_leader_range_parity(self):
        """A device outside the leader's range syncs to the first
        beacon it hears — engine and oracle agree on slot inference."""
        d, conn, clocks = _random_setup(9)
        conn[4, 0] = conn[0, 4] = False
        oracle, des = _oracle_and_engine(d, conn, clocks, seed=5)
        assert 4 in des.reports
        _assert_outcomes_match(oracle, des)

    def test_silent_device_parity(self):
        d, conn, clocks = _random_setup(13, n=4)
        conn[3, :] = conn[:, 3] = False
        oracle, des = _oracle_and_engine(d, conn, clocks, seed=13)
        assert des.silent_ids == [3]
        _assert_outcomes_match(oracle, des)

    def test_beacons_and_sync_refs_match(self):
        d, conn, clocks = _random_setup(21, max_range=28.0)
        oracle, des = _oracle_and_engine(d, conn, clocks, seed=21)
        assert len(oracle.beacons) == len(des.beacons)
        for a, b in zip(oracle.beacons, des.beacons):
            assert (a.sender_id, a.sync_ref_id) == (b.sender_id, b.sync_ref_id)
            assert a.tx_local_time_s == pytest.approx(
                b.tx_local_time_s, abs=CLOCK_QUANTUM_S
            )

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(3, 8),
        max_range=st.sampled_from([None, 22.0, 30.0]),
    )
    def test_parity_over_random_topologies(self, seed, n, max_range):
        d, conn, clocks = _random_setup(seed, n=n, max_range=max_range)
        # Directional loss, like the network simulator applies.
        rng = np.random.default_rng(seed + 1)
        conn = conn & ~(rng.random((n, n)) < 0.05)
        oracle, des = _oracle_and_engine(d, conn, clocks, seed=seed)
        _assert_outcomes_match(oracle, des)


def _oracle_then_engine(monkeypatch, run):
    """``run()`` with the oracle round patched into the simulator, then
    again on the engine."""
    with monkeypatch.context() as patch:
        patch.setattr(network_sim, "run_protocol_round", _oracle_round)
        oracle = run()
    return oracle, run()


class TestNetworkSimulatorParity:
    def test_full_round_identical_through_localization(self, monkeypatch):
        """The engine leaves every figure-experiment number in place: a
        full NetworkSimulator round (uplink quantisation, flip vote,
        localization) is bit-identical to the oracle's."""

        def run():
            scenario = testbed_scenario(
                "dock", num_devices=5, rng=np.random.default_rng(2023)
            )
            sim = NetworkSimulator(
                scenario,
                error_model=RangingErrorModel(),
                rng=np.random.default_rng(99),
            )
            return sim.run_round()

        oracle, des = _oracle_then_engine(monkeypatch, run)
        assert np.array_equal(oracle.distances, des.distances)
        assert np.array_equal(oracle.weights, des.weights)
        assert np.array_equal(oracle.errors_2d, des.errors_2d)
        assert oracle.flip_correct == des.flip_correct

    def test_many_rounds_consume_rng_identically(self, monkeypatch):
        """Round k's randomness is the same whether rounds 0..k-1 ran on
        the engine or the oracle (the pre-draw keeps the stream
        aligned)."""

        def run():
            scenario = testbed_scenario(
                "boathouse", num_devices=5, rng=np.random.default_rng(7)
            )
            sim = NetworkSimulator(scenario, rng=np.random.default_rng(17))
            return [r.errors_2d for r in sim.run_many(4)]

        oracle, des = _oracle_then_engine(monkeypatch, run)
        assert len(oracle) == len(des)
        for a, b in zip(oracle, des):
            assert np.array_equal(a, b)
