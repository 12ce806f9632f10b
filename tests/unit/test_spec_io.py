"""ScenarioSpec JSON round-trips (checked-in sweep configurations)."""

import json
from pathlib import Path

import pytest

from repro.api import ScenarioSpec, Session
from repro.errors import ReproError
from repro.network.latency import ConstantLatency, PerHopLatency, UniformLatency
from repro.network.transport import SyncTransport
from repro.workloads.scenarios import (
    paper_example_data,
    paper_example_rules,
    paper_example_schemas,
)
from repro.workloads.topologies import tree_topology


def paper_spec(**settings) -> ScenarioSpec:
    return ScenarioSpec.of(
        paper_example_schemas(),
        paper_example_rules(),
        paper_example_data(),
        super_peer="A",
        name="paper",
        **settings,
    )


def assert_specs_equivalent(original: ScenarioSpec, loaded: ScenarioSpec) -> None:
    """Field-wise spec equality (DatabaseSchema has identity equality only)."""
    assert sorted(loaded.schemas) == sorted(original.schemas)
    for node in original.schemas:
        assert (
            loaded.schemas[node].as_mapping() == original.schemas[node].as_mapping()
        )
    assert loaded.rules == original.rules
    assert {
        node: {rel: frozenset(rows) for rel, rows in relations.items()}
        for node, relations in loaded.data.items()
    } == {
        node: {rel: frozenset(rows) for rel, rows in relations.items()}
        for node, relations in original.data.items()
    }
    for field_name in (
        "transport",
        "propagation",
        "super_peer",
        "strategy",
        "max_messages",
        "name",
        "shards",
    ):
        assert getattr(loaded, field_name) == getattr(original, field_name)


class TestSpecRoundTrip:
    def test_paper_example_round_trips_through_text(self):
        original = paper_spec(shards=4)
        loaded = ScenarioSpec.load_json(original.dump_json())
        assert_specs_equivalent(original, loaded)

    def test_round_trip_through_a_file(self, tmp_path):
        original = ScenarioSpec.from_topology(
            tree_topology(2, 2), records_per_node=4, seed=5
        )
        path = tmp_path / "scenario.json"
        original.dump_json(path)
        loaded = ScenarioSpec.load_json(path)
        assert_specs_equivalent(original, loaded)
        # A plain string path works too.
        assert_specs_equivalent(original, ScenarioSpec.load_json(str(path)))

    def test_loaded_spec_replays_to_the_same_fixpoint(self):
        original = ScenarioSpec.from_topology(
            tree_topology(1, 2), records_per_node=4, seed=5
        )
        loaded = ScenarioSpec.load_json(original.dump_json())

        first = Session.from_spec(original)
        first.run("discovery")
        second = Session.from_spec(loaded)
        second.run("discovery")
        assert (
            first.update().ground_databases() == second.update().ground_databases()
        )

    def test_latency_models_round_trip(self):
        constant = paper_spec(latency=ConstantLatency(2.5))
        loaded = ScenarioSpec.load_json(constant.dump_json())
        assert isinstance(loaded.latency, ConstantLatency)
        assert loaded.latency.delay == 2.5

        uniform = paper_spec(latency=UniformLatency(0.5, 2.0, seed=9))
        loaded = ScenarioSpec.load_json(uniform.dump_json())
        assert isinstance(loaded.latency, UniformLatency)
        assert (loaded.latency.low, loaded.latency.high, loaded.latency.seed) == (
            0.5,
            2.0,
            9,
        )

    def test_comparison_rules_survive(self):
        # r4 carries the built-in X != Z; the textual form must reparse.
        original = paper_spec()
        loaded = ScenarioSpec.load_json(original.dump_json())
        r4 = next(rule for rule in loaded.rules if rule.rule_id == "r4")
        assert r4.comparisons


class TestSpecIoErrors:
    def test_transport_instance_does_not_dump(self):
        spec = paper_spec(transport=SyncTransport())
        with pytest.raises(ReproError):
            spec.dump_json()

    def test_unsupported_latency_does_not_dump(self):
        spec = paper_spec(latency=PerHopLatency(1.0))
        with pytest.raises(ReproError):
            spec.dump_json()

    def test_unknown_format_is_rejected(self):
        document = json.loads(paper_spec().dump_json())
        document["format"] = "something-else/9"
        with pytest.raises(ReproError):
            ScenarioSpec.load_json(json.dumps(document))

    def test_invalid_json_is_rejected(self):
        with pytest.raises(ReproError):
            ScenarioSpec.load_json("{not json")

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            ScenarioSpec.load_json(Path(tmp_path) / "absent.json")


def _loaded_with_sharded_transport() -> ScenarioSpec:
    document = json.loads(paper_spec().dump_json())
    document["transport"] = "sharded"
    return ScenarioSpec.load_json(json.dumps(document))


def _loaded_sync_with_shards() -> ScenarioSpec:
    # A checked-in sweep file written when shards on sync still picked an
    # in-process partitioned engine: it loads, and opening it must fail.
    return ScenarioSpec.load_json(paper_spec(shards=2).dump_json())


class TestShardsNeedAPartitionedTransport:
    @pytest.mark.parametrize(
        "make_spec",
        [
            lambda: paper_spec(transport="sync", shards=2),
            lambda: paper_spec(transport="async", shards=2),
            _loaded_with_sharded_transport,
            _loaded_sync_with_shards,
        ],
        ids=[
            "sync-with-shards",
            "async-with-shards",
            "json-sharded-kind",
            "json-sync-with-shards",
        ],
    )
    def test_opening_a_session_names_the_partitioned_transports(self, make_spec):
        with pytest.raises(ReproError, match="'multiproc'/'pooled'/'socket'"):
            Session.from_spec(make_spec())

    @pytest.mark.parametrize("kind", ["sharded", "warp"])
    def test_building_a_system_of_an_unknown_kind_names_them_too(self, kind):
        # The substrate entry point refuses the deleted kind like any other
        # unknown one, with the same hint.
        from repro.core.system import P2PSystem

        with pytest.raises(ReproError, match="'multiproc'/'pooled'/'socket'"):
            P2PSystem.build(
                paper_example_schemas(), paper_example_rules(), transport=kind
            )
