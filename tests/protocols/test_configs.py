"""ProtocolConfig serialization: the Scenario-style to_dict/from_dict contract."""

import json

import pytest

from repro.protocols import PROTOCOLS, ProtocolSpec, protocol_factory, resolve_config
from repro.protocols.base import ProtocolConfig

CONFIG_SPECS = [
    spec for spec in PROTOCOLS.values() if spec.config_class is not None
]


@pytest.mark.parametrize("spec", CONFIG_SPECS, ids=lambda s: s.name)
class TestRoundTrip:
    def test_to_dict_from_dict_round_trips(self, spec: ProtocolSpec):
        config = spec.default_config()
        rebuilt = spec.config_class.from_dict(config.to_dict())
        assert rebuilt == config

    def test_to_dict_is_json_safe(self, spec: ProtocolSpec):
        payload = json.dumps(spec.default_config().to_dict(), sort_keys=True)
        rebuilt = spec.config_class.from_dict(json.loads(payload))
        assert rebuilt == spec.default_config()

    def test_unknown_keys_are_rejected(self, spec: ProtocolSpec):
        data = spec.default_config().to_dict()
        data["definitely_not_a_field"] = 1
        with pytest.raises(ValueError, match="definitely_not_a_field"):
            spec.config_class.from_dict(data)

    def test_partial_dict_fills_defaults(self, spec: ProtocolSpec):
        field_name, default_value = next(
            iter(spec.default_config().to_dict().items())
        )
        rebuilt = spec.config_class.from_dict({field_name: default_value})
        assert rebuilt == spec.default_config()


class TestRegistryConfigHandling:
    def test_every_paper_protocol_has_a_spec(self):
        assert {"SRP", "LDR", "AODV", "DSR", "OLSR", "LSR", "Oracle"} <= set(
            PROTOCOLS
        )

    def test_resolve_config_passes_instances_through(self):
        config = PROTOCOLS["OLSR"].default_config()
        assert resolve_config("OLSR", config) is config

    def test_resolve_config_from_dict(self):
        config = resolve_config("OLSR", {"route_recompute_interval": 2.5})
        assert config.route_recompute_interval == 2.5

    def test_configless_protocol_rejects_config(self):
        with pytest.raises(ValueError, match="takes no config"):
            protocol_factory("Oracle", {"anything": 1})

    def test_unknown_protocol_raises(self):
        with pytest.raises(ValueError, match="unknown protocol"):
            protocol_factory("RIP")

    def test_non_dataclass_config_to_dict_raises(self):
        class Bare(ProtocolConfig):
            pass

        with pytest.raises(TypeError, match="dataclass"):
            Bare().to_dict()
