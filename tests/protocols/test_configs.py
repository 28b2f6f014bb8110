"""The protocol registry: one spec per protocol, configs as instances."""

import dataclasses

import pytest

from repro.protocols import PROTOCOLS, ProtocolSpec, protocol_factory

CONFIG_SPECS = [
    spec for spec in PROTOCOLS.values() if spec.config_class is not None
]


@pytest.mark.parametrize("spec", CONFIG_SPECS, ids=lambda s: s.name)
class TestConfigInstances:
    def test_make_config_passes_instances_through(self, spec: ProtocolSpec):
        config = spec.default_config()
        assert spec.make_config(config) is config

    def test_none_gives_fresh_defaults(self, spec: ProtocolSpec):
        first, second = spec.make_config(None), spec.make_config()
        assert type(first) is spec.config_class
        assert first == second == spec.config_class()

    def test_a_dict_is_not_a_config(self, spec: ProtocolSpec):
        field_name = dataclasses.fields(spec.config_class)[0].name
        with pytest.raises(TypeError, match=spec.config_class.__name__):
            protocol_factory(spec.name, {field_name: 1})

    def test_another_protocols_config_is_refused(self, spec: ProtocolSpec):
        other = next(s for s in CONFIG_SPECS if s.config_class is not spec.config_class)
        with pytest.raises(TypeError, match=other.config_class.__name__):
            spec.make_config(other.default_config())

    def test_config_is_frozen(self, spec: ProtocolSpec):
        # The factory hands one instance to every node, so it must not mutate.
        config = spec.default_config()
        field_name = dataclasses.fields(config)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(config, field_name, getattr(config, field_name))

    def test_factory_gives_every_node_the_config(self, spec: ProtocolSpec):
        config = spec.default_config()
        factory = protocol_factory(spec.name, config)
        nodes = [factory(node_id) for node_id in ("a", "b")]
        assert all(type(node) is spec.protocol_class for node in nodes)
        assert all(node.config is config for node in nodes)


class TestRegistryConfigHandling:
    def test_every_paper_protocol_has_a_spec(self):
        assert {"SRP", "LDR", "AODV", "DSR", "OLSR", "LSR", "Oracle"} <= set(
            PROTOCOLS
        )

    def test_configless_protocol_rejects_config(self):
        with pytest.raises(ValueError, match="takes no config"):
            protocol_factory("Oracle", {"anything": 1})

    def test_unknown_protocol_raises(self):
        with pytest.raises(ValueError, match="unknown protocol"):
            protocol_factory("RIP")
