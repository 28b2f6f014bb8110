"""Round-trip tests for the sweep engine's serialization layer.

The resumable store and the ``results.json`` archive both depend on three
round-trips being lossless: :class:`TrialSummary` <-> dict,
:class:`Scenario` <-> dict (phy config included, since it determines trial
outcomes) and :class:`SweepResults` <-> JSON.  Content keys additionally must
be stable across processes and sensitive to every result-determining field.
"""

import dataclasses
import hashlib

import pytest

from repro.experiments.jobs import TrialJob, plan_sweep
from repro.experiments.runner import SweepResults
from repro.experiments.paper import PAPER_PROTOCOLS, resolve_scale
from repro.sim.faults import fault_preset
from repro.sim.phy import PhyConfig
from repro.sim.stats import TrialSummary
from repro.workloads.scenario import (
    PAPER_SCENARIO,
    Scenario,
    ScenarioFieldError,
    scaled_scenario,
)

SUMMARY = TrialSummary(
    data_sent=120,
    data_delivered=97,
    control_transmissions=431,
    mean_latency=0.0734,
    mac_drops_per_node=2.25,
    average_sequence_number=3.5,
    duplicate_deliveries=4,
)


class TestTrialSummaryRoundTrip:
    def test_round_trip_is_identity(self):
        assert TrialSummary.from_dict(SUMMARY.to_dict()) == SUMMARY

    def test_derived_properties_survive(self):
        restored = TrialSummary.from_dict(SUMMARY.to_dict())
        assert restored.delivery_ratio == SUMMARY.delivery_ratio
        assert restored.network_load == SUMMARY.network_load

    def test_dict_is_json_safe_and_complete(self):
        import json

        data = json.loads(json.dumps(SUMMARY.to_dict()))
        assert TrialSummary.from_dict(data) == SUMMARY

    def test_unknown_keys_are_ignored(self):
        data = SUMMARY.to_dict()
        data["future_field"] = 99
        assert TrialSummary.from_dict(data) == SUMMARY

    def test_missing_field_raises(self):
        data = SUMMARY.to_dict()
        del data["data_sent"]
        with pytest.raises(ValueError, match="data_sent"):
            TrialSummary.from_dict(data)


class TestScenarioRoundTrip:
    def test_paper_scenario_round_trips(self):
        assert Scenario.from_dict(PAPER_SCENARIO.to_dict()) == PAPER_SCENARIO

    def test_custom_phy_round_trips(self):
        scenario = dataclasses.replace(
            scaled_scenario(node_count=12, seed=9),
            phy=PhyConfig(reception_range=180.0, retry_limit=6),
        )
        restored = Scenario.from_dict(scenario.to_dict())
        assert restored == scenario
        assert restored.phy.reception_range == 180.0

    def test_unknown_field_raises(self):
        data = PAPER_SCENARIO.to_dict()
        data["gravity"] = 9.81
        with pytest.raises(ScenarioFieldError, match="gravity"):
            Scenario.from_dict(data)

    def test_unknown_phy_field_raises_naming_it(self):
        data = PAPER_SCENARIO.to_dict()
        data["phy"]["bogus"] = 1
        with pytest.raises(
            ScenarioFieldError, match=r"unknown phy fields: \['bogus'\]"
        ):
            Scenario.from_dict(data)

    def test_retired_phy_field_raises_with_its_reason(self):
        data = PAPER_SCENARIO.to_dict()
        data["phy"]["propagation_delay_s_per_m"] = 3.336e-9
        with pytest.raises(ScenarioFieldError) as info:
            Scenario.from_dict(data)
        message = str(info.value)
        assert "'propagation_delay_s_per_m'" in message
        assert "finite-propagation-delay channel was retired" in message
        assert "fresh directory" in message
        # Still a ValueError, so every caller that already fails closed on
        # malformed scenarios keeps doing so.
        assert isinstance(info.value, ValueError)

    @pytest.mark.parametrize(
        "spec, field",
        [
            ({"kind": "blackout", "start": float("nan"), "duration": 1.0}, "start"),
            ({"kind": "blackout", "start": 1.0, "duration": float("nan")}, "duration"),
            ({"kind": "blackout", "start": 1.0}, "duration"),
            ({"kind": "blackout", "start": 1.0, "duration": 2.0, "bogus": 1}, "bogus"),
            (
                {
                    "kind": "partition",
                    "start": 1.0,
                    "duration": 2.0,
                    "boundary_x": float("inf"),
                },
                "boundary_x",
            ),
        ],
        ids=["nan-start", "nan-duration", "no-duration", "unknown", "inf-boundary"],
    )
    def test_malformed_fault_spec_raises_naming_it(self, spec, field):
        data = PAPER_SCENARIO.to_dict()
        data["faults"] = [{"kind": "blackout", "start": 1.0, "duration": 2.0}, spec]
        with pytest.raises(ScenarioFieldError) as info:
            Scenario.from_dict(data)
        assert str(info.value).startswith("faults[1]: ")
        assert field in str(info.value)

    @pytest.mark.parametrize("faulted", [False, True], ids=["clean", "faulted"])
    @pytest.mark.parametrize("protocol", PAPER_PROTOCOLS)
    def test_stored_scenario_replays_the_same_trial(self, protocol, faulted):
        """A scenario rebuilt from its stored JSON — what ``resume``,
        ``worker`` and ``merge`` simulate — runs the bit-identical trial:
        JSON turns tuples into lists and may turn floats into ints, and none
        of that may reach the simulation."""
        import json

        from repro.protocols import protocol_factory
        from repro.sim.network import build_network

        scenario = resolve_scale("smoke").scenario
        if faulted:
            scenario = scenario.with_faults(
                fault_preset("churn-partition", scenario)
            )
        restored = Scenario.from_dict(json.loads(json.dumps(scenario.to_dict())))
        assert restored == scenario

        def trial(scenario):
            network = build_network(scenario, protocol_factory(protocol))
            return network.run(), network.simulator.events_processed

        assert trial(restored) == trial(scenario)


class TestTrialJobKeys:
    def _job(self, **overrides) -> TrialJob:
        base = dict(
            protocol="SRP",
            scenario=scaled_scenario(node_count=12, seed=3),
            pause_time=10.0,
            trial=0,
            seed=3,
        )
        base.update(overrides)
        return TrialJob(**base)

    def test_round_trip_is_identity(self):
        job = self._job()
        assert TrialJob.from_dict(job.to_dict()) == job

    def test_content_key_is_deterministic(self):
        assert self._job().content_key == self._job().content_key

    def test_content_key_changes_with_every_determining_field(self):
        base = self._job()
        variants = [
            self._job(protocol="AODV"),
            self._job(pause_time=20.0),
            self._job(trial=1, seed=4),
            self._job(scenario=scaled_scenario(node_count=14, seed=3)),
            self._job(
                scenario=dataclasses.replace(
                    base.scenario, phy=PhyConfig(reception_range=200.0)
                )
            ),
        ]
        keys = {base.content_key} | {v.content_key for v in variants}
        assert len(keys) == len(variants) + 1

    #: sha256 over the sorted content keys of each sweep, pinned from a tree
    #: whose PhyConfig still had the (zero, never serialised) propagation
    #: delay field: removing it must leave every stored cell's key unchanged.
    PINNED_SWEEP_KEYS = {
        ("smoke", None): (
            "b837d1c0832cd8296c974b18d56b69abddcded1942d466fcd50d8ff4baf3d7b3"
        ),
        ("smoke", "churn-partition"): (
            "2a6582e99d6d2699997efe64b9dd43ab9c369b93ffca1daa5a412040ac9730cf"
        ),
        ("benchmark", None): (
            "618efe6c6f14993c275f139d356c41c294b7945c290cac110728d0047b03be7a"
        ),
        ("benchmark", "churn-partition"): (
            "2bd8ccf4aa655d5dac089f90c8fb5dfaa4e0af001a9fe832c20ec7e23a135b68"
        ),
    }

    @pytest.mark.parametrize(
        "scale_name, preset",
        sorted(PINNED_SWEEP_KEYS, key=str),
        ids=lambda value: str(value or "clean"),
    )
    def test_sweep_content_keys_are_pinned(self, scale_name, preset):
        scale = resolve_scale(scale_name)
        scenario = scale.scenario
        if preset is not None:
            scenario = scenario.with_faults(fault_preset(preset, scenario))
        jobs = plan_sweep(
            scenario,
            PAPER_PROTOCOLS,
            pause_times=scale.pause_times,
            trials=scale.trials,
        )
        keys = "\n".join(sorted(job.content_key for job in jobs))
        digest = hashlib.sha256(keys.encode("utf-8")).hexdigest()
        assert digest == self.PINNED_SWEEP_KEYS[(scale_name, preset)]

    def test_planned_jobs_have_unique_keys(self):
        jobs = plan_sweep(
            scaled_scenario(node_count=12),
            ["SRP", "AODV"],
            pause_times=(0.0, 10.0),
            trials=2,
        )
        assert len({job.content_key for job in jobs}) == len(jobs)


class TestSweepResultsJson:
    def _results(self) -> SweepResults:
        results = SweepResults(
            pause_times=[0.0, 10.0], trials=1, protocols=["SRP", "AODV"]
        )
        for protocol in results.protocols:
            for pause in results.pause_times:
                results.add(
                    protocol,
                    pause,
                    0,
                    dataclasses.replace(
                        SUMMARY, data_sent=SUMMARY.data_sent + int(pause)
                    ),
                )
        return results

    def test_round_trip_is_identity(self):
        results = self._results()
        restored = SweepResults.from_json(results.to_json())
        assert restored.summaries == results.summaries
        assert list(restored.pause_times) == list(results.pause_times)
        assert list(restored.protocols) == list(results.protocols)
        assert restored.trials == results.trials

    def test_metric_queries_survive(self):
        restored = SweepResults.from_json(self._results().to_json())
        values = restored.metric_values("SRP", "delivery_ratio", 0.0)
        assert values == [SUMMARY.delivery_ratio]

    def test_unsupported_version_raises(self):
        import json

        data = json.loads(self._results().to_json())
        data["version"] = 999
        with pytest.raises(ValueError, match="version"):
            SweepResults.from_json(json.dumps(data))
