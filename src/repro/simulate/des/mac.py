"""Pluggable MAC policies for DES rounds (DESIGN.md §3.3).

Two policies ship:

* :class:`TdmaMac` — the paper's protocol (section 2.3): the leader
  transmits at time zero, every other device derives its TDM slot from
  the first beacon it hears via
  :func:`repro.protocol.sync.infer_transmit_slot`, deferring one full
  cycle when its slot has effectively passed. With the paper's guard
  interval this is collision-free by construction.
* :class:`ContentionMac` — a beyond-paper random-access policy for
  fleets too large (or too churny) to pre-assign slots: after the
  leader's kickoff beacon each device backs off uniformly inside a
  contention window, carrier-senses before transmitting, and re-draws
  from a doubled window (up to ``max_attempts``) when the channel is
  busy. Collisions at receivers are modelled by the node's overlap
  rule and show up in the fleet metrics.

All randomness is drawn from the policy's own generator *inside event
callbacks* (i.e. in deterministic event order), so a fixed seed fixes
the whole schedule.
"""

from __future__ import annotations

from typing import Protocol

import numpy as np

from repro.constants import DELTA0_S, DELTA1_S, T_PACKET_S
from repro.errors import ConfigurationError
from repro.protocol.messages import Beacon
from repro.protocol.sync import infer_transmit_slot
from repro.simulate.des.medium import Arrival
from repro.simulate.des.node import DesNode

#: Transmit attempts a contention-MAC device makes before giving up for
#: the round; shared with the vectorized engine's inlined MAC.
CONTENTION_MAX_ATTEMPTS = 4


class MacPolicy(Protocol):
    """What a node needs from its medium-access policy."""

    def start(self, node: DesNode) -> None:
        """Called once when the node joins the round."""

    def on_receive(self, node: DesNode, arrival: Arrival) -> None:
        """Called for every accepted packet."""


class TdmaMac:
    """The paper's TDMA slot policy.

    Parameters
    ----------
    num_devices:
        Group size N used for slot arithmetic (device IDs, not the
        currently-active count — a churned fleet keeps its IDs).
    delta0_s / delta1_s:
        Protocol timing (processing margin / slot pitch).
    packet_duration_s:
        Airtime per beacon; 0 selects the instantaneous,
        collision-free timestamp-fidelity mode the round adapter uses.
    """

    def __init__(
        self,
        num_devices: int,
        delta0_s: float = DELTA0_S,
        delta1_s: float = DELTA1_S,
        packet_duration_s: float = 0.0,
    ):
        if num_devices < 2:
            raise ConfigurationError("TDMA needs at least 2 devices")
        self.num_devices = num_devices
        self.delta0_s = delta0_s
        self.delta1_s = delta1_s
        self.packet_duration_s = packet_duration_s

    def start(self, node: DesNode) -> None:
        if node.device_id == 0:
            # The leader opens the round at global time zero.
            node.sim.at(0.0, self._transmit, node, 0.0, 0, label="tx[0]")

    def on_receive(self, node: DesNode, arrival: Arrival) -> None:
        if node.device_id == 0 or node.tx_time_global_s is not None:
            return
        if node.sync_ref is not None:
            return  # already committed to a slot
        if not node.may_transmit:
            return  # duty-cycle budget exhausted: listen-only this round
        local_arrival = node.clock.local_time(arrival.arrival_time_s)
        tx_local, deferred = infer_transmit_slot(
            node.device_id,
            arrival.sender_id,
            local_arrival,
            self.num_devices,
            self.delta0_s,
            self.delta1_s,
        )
        node.sync_ref = arrival.sender_id
        node.missed_slot = deferred
        tx_global = node.clock.global_time(tx_local)
        node.sim.at(
            tx_global,
            self._transmit,
            node,
            tx_global,
            arrival.sender_id,
            label=f"tx[{node.device_id}]",
        )

    def _transmit(self, node: DesNode, tx_time_s: float, sync_ref: int) -> None:
        node.transmit(
            Beacon(
                sender_id=node.device_id,
                sync_ref_id=sync_ref,
                tx_local_time_s=node.clock.local_time(tx_time_s),
            ),
            duration_s=self.packet_duration_s,
            tx_time_s=tx_time_s,
        )


class ContentionMac:
    """Random-access with binary-exponential backoff (beyond paper).

    After hearing the leader's kickoff, a device waits the processing
    margin plus a uniform backoff in ``[0, window_s)``; if the channel
    is busy at fire time it re-draws from a doubled window, giving up
    after ``max_attempts`` tries. A gave-up device keeps listening but
    counts as silent for the round: with no transmission of its own it
    has no ``own_tx`` timestamp, so it cannot be ranged and produces
    no report.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        window_s: float = 4.0,
        delta0_s: float = DELTA0_S,
        packet_duration_s: float = T_PACKET_S,
        max_attempts: int = CONTENTION_MAX_ATTEMPTS,
    ):
        if window_s <= 0:
            raise ConfigurationError("contention window must be positive")
        if max_attempts < 1:
            raise ConfigurationError("need at least one transmit attempt")
        self.rng = rng
        self.window_s = window_s
        self.delta0_s = delta0_s
        self.packet_duration_s = packet_duration_s
        self.max_attempts = max_attempts
        self.gave_up = 0

    def start(self, node: DesNode) -> None:
        if node.device_id == 0:
            node.sim.at(0.0, self._leader_tx, node, label="tx[0]")

    def _leader_tx(self, node: DesNode) -> None:
        node.transmit(
            Beacon(sender_id=0, sync_ref_id=0, tx_local_time_s=node.clock.local_time(0.0)),
            duration_s=self.packet_duration_s,
            tx_time_s=0.0,
        )

    def on_receive(self, node: DesNode, arrival: Arrival) -> None:
        if node.device_id == 0 or node.sync_ref is not None:
            return
        if not node.may_transmit:
            return  # duty-cycle budget exhausted: no backoff draw either
        node.sync_ref = arrival.sender_id
        backoff = self.delta0_s + float(self.rng.uniform(0.0, self.window_s))
        node.sim.after(backoff, self._attempt, node, 1, label=f"cca[{node.device_id}]")

    def _attempt(self, node: DesNode, attempt: int) -> None:
        if node.rx_busy or node.tx_busy:
            # Carrier busy: binary exponential backoff.
            if attempt >= self.max_attempts:
                self.gave_up += 1
                return
            window = self.window_s * (2.0**attempt)
            backoff = float(self.rng.uniform(0.0, window))
            node.sim.after(
                backoff, self._attempt, node, attempt + 1, label=f"cca[{node.device_id}]"
            )
            return
        node.transmit(
            Beacon(
                sender_id=node.device_id,
                sync_ref_id=node.sync_ref if node.sync_ref is not None else 0,
                tx_local_time_s=node.clock.local_time(node.sim.now),
            ),
            duration_s=self.packet_duration_s,
        )
