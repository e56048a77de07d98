"""vec-vs-event fleet backend parity (DESIGN.md §10).

The vectorized engine (:mod:`repro.simulate.des.fleetvec`) runs every
fleet variant; the per-event round is its oracle. At fleet-summary
granularity the two may diverge on nothing. These tests pin that
contract byte-for-byte on the existing 50/100/200 scenarios, on every
declared registry variant but ``fleet10k``, through the campaign
engine (serial vs ``workers=4``), and — via hypothesis — on randomized
small fleets with churn and mobility, where the per-round report dicts
(values *and* iteration order) must match exactly.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.engine import (
    campaign_to_json,
    experiment_rng,
    get_spec,
    run_campaign,
    run_unit,
)
from repro.simulate.des.fleet import (
    FleetConfig,
    _build_trajectories,
    _run_fleet_round,
    run_fleet_campaign,
)
from repro.simulate.des.fleetvec import run_fleet_round_vec
from repro.simulate.scenario import fleet_scenario


def _summary(backend: str, seed: int, **kw):
    config = FleetConfig(fleet_backend=backend, **kw)
    return run_fleet_campaign(np.random.default_rng(seed), config).summary()


def _dumps(summary) -> str:
    return json.dumps(summary, sort_keys=True)


class TestVecEventParity:
    @pytest.mark.parametrize("num_devices", [50, 100, 200])
    def test_fleet_scenarios_byte_identical(self, num_devices):
        """Acceptance pin: fleet50/100/200 summaries are byte-identical
        across backends on a fixed seed."""
        kw = dict(num_devices=num_devices, num_rounds=2)
        assert _dumps(_summary("event", 2023, **kw)) == _dumps(
            _summary("vec", 2023, **kw)
        )

    @pytest.mark.parametrize(
        "kw",
        [
            dict(
                num_devices=40,
                num_rounds=3,
                leave_prob=0.1,
                join_prob=0.5,
                mobility_fraction=0.2,
            ),
            dict(num_devices=30, num_rounds=2, mac="contention"),
            dict(
                num_devices=40,
                num_rounds=4,
                resync_interval_rounds=2,
                drift_wander_ppm=2.0,
            ),
            dict(
                num_devices=30,
                num_rounds=4,
                mac="contention",
                duty_cycle=0.01,
                leave_prob=0.05,
            ),
        ],
        ids=["churn_mobility", "contention", "drift", "duty_contention"],
    )
    def test_feature_axes_byte_identical(self, kw):
        """Churn, mobility, contention, drift and duty cycling all ride
        the same parity contract."""
        assert _dumps(_summary("event", 4242, **kw)) == _dumps(
            _summary("vec", 4242, **kw)
        )

    def test_campaign_entry_byte_identical(self):
        """The registry entry point under both backends, same seeded
        substream: identical measured dicts and identical reports."""
        entry = get_spec("fleet").resolve_entry()
        out_event = entry(
            experiment_rng("fleet", "fleet100"),
            scale=0.5,
            num_devices=100,
            fleet_backend="event",
        )
        out_vec = entry(
            experiment_rng("fleet", "fleet100"),
            scale=0.5,
            num_devices=100,
            fleet_backend="vec",
        )
        assert _dumps(out_event.measured) == _dumps(out_vec.measured)
        assert out_event.report == out_vec.report

    @pytest.mark.parametrize(
        "variant",
        [v.name for v in get_spec("fleet").variants if v.name != "fleet10k"],
    )
    def test_registry_variant_default_matches_event_oracle(self, variant):
        """Every declared variant (fleet10k aside: the event round needs
        tens of minutes there) gives the same ``measured`` and ``report``
        on the default backend as on the event oracle."""
        default = run_unit("fleet", variant, base_seed=2023, scale=0.25)
        oracle = run_unit(
            "fleet",
            variant,
            params={"fleet_backend": "event"},
            base_seed=2023,
            scale=0.25,
        )
        assert default.status == oracle.status == "ok"
        assert _dumps(default.measured) == _dumps(oracle.measured)
        assert default.report == oracle.report

    def test_vec_campaign_serial_matches_workers4_byte_identical(self):
        """Acceptance pin: the vec backend through ``run_campaign``,
        serial vs ``workers=4``, byte-identical JSON artifacts."""
        kwargs = dict(
            base_seed=2023,
            scale=0.25,
            sweep={"num_devices": [100], "fleet_backend": ["vec"]},
        )
        serial = run_campaign(["fleet"], **kwargs)
        parallel = run_campaign(["fleet"], workers=4, **kwargs)
        assert [r.status for r in serial] == ["ok"]
        assert serial[0].measured["num_devices"] == 100
        assert campaign_to_json(serial, base_seed=2023) == campaign_to_json(
            parallel, base_seed=2023
        )


def _one_round(backend: str, seed: int, config: FleetConfig):
    """One identically-seeded fleet round on the chosen backend."""
    rng = np.random.default_rng(seed)
    scenario = fleet_scenario(
        config.num_devices,
        rng=rng,
        area_xy_m=config.area,
        max_range_m=config.max_range_m,
    )
    trajectories = _build_trajectories(scenario, config, rng)
    round_fn = run_fleet_round_vec if backend == "vec" else _run_fleet_round
    active = list(range(config.num_devices))
    return round_fn(scenario, active, trajectories, 0.0, config, rng)


class TestVecDeliveryOrderProperty:
    @settings(max_examples=15, deadline=None)
    @given(
        num_devices=st.integers(min_value=2, max_value=20),
        mac=st.sampled_from(["tdma", "contention"]),
        mobility_fraction=st.floats(min_value=0.0, max_value=0.5),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_round_reports_match_exactly(
        self, num_devices, mac, mobility_fraction, seed
    ):
        """Property: for random small fleets the vec engine produces the
        event engine's reports exactly — same devices, same reception
        dicts (sender order included), same timestamps to the last bit,
        same transmit times. Any delivery-order divergence would shift
        an RNG draw or a reception and break one of these."""
        config = FleetConfig(
            num_devices=num_devices,
            num_rounds=1,
            mac=mac,
            mobility_fraction=mobility_fraction,
            fleet_backend="event",
        )
        stats_e, reports_e, elapsed_e, tx_e = _one_round("event", seed, config)
        stats_v, reports_v, elapsed_v, tx_v = _one_round("vec", seed, config)

        assert list(reports_e) == list(reports_v)
        for device_id, report_e in reports_e.items():
            report_v = reports_v[device_id]
            assert report_e.own_tx_local_s == report_v.own_tx_local_s
            assert list(report_e.receptions.items()) == list(
                report_v.receptions.items()
            )
        assert tx_e == tx_v
        assert elapsed_e == elapsed_v
        assert stats_e == stats_v

    @settings(max_examples=10, deadline=None)
    @given(
        num_devices=st.integers(min_value=3, max_value=20),
        leave_prob=st.floats(min_value=0.0, max_value=0.5),
        mobility_fraction=st.floats(min_value=0.0, max_value=0.5),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_churned_campaign_summaries_match(
        self, num_devices, leave_prob, mobility_fraction, seed
    ):
        """Property: multi-round campaigns with random churn/mobility
        stay byte-identical across backends (the churn draws themselves
        come from the shared stream, so any divergence cascades)."""
        kw = dict(
            num_devices=num_devices,
            num_rounds=3,
            leave_prob=leave_prob,
            join_prob=0.5,
            mobility_fraction=mobility_fraction,
        )
        assert _dumps(_summary("event", seed, **kw)) == _dumps(
            _summary("vec", seed, **kw)
        )
