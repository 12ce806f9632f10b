"""State parity of sharded runs against the synchronous reference.

The acceptance bar of the sharding subsystem: whatever the partitioning, a
run sharded over K workers must drive the update protocol to the same
per-node relation state as ``SyncEngine`` (compared on the null-free ground
part, the same notion every other parity suite uses) on the paper's three
topology families, at K=1 (degenerate single shard) and K=4 (real
cross-shard traffic).  The runs go through the ``multiproc`` engine, the
partitioned engine every other one builds on, and each one must also report
a per-shard traffic view that adds up.

These tests spawn real worker processes, so topologies are kept small.
"""

import pytest

from repro.api import ScenarioSpec, Session
from repro.workloads.scenarios import (
    paper_example_data,
    paper_example_rules,
    paper_example_schemas,
)
from repro.workloads.topologies import (
    clique_topology,
    layered_topology,
    tree_topology,
)

TOPOLOGIES = {
    "tree": lambda: tree_topology(2, 2),  # 7 nodes
    "layered": lambda: layered_topology(2, 3, seed=1),  # 9 nodes
    "clique": lambda: clique_topology(4),  # 12 import edges, cyclic
}


def _sharded(spec: ScenarioSpec, shards: int) -> ScenarioSpec:
    return spec.with_(transport="multiproc", shards=shards)


def _run(spec: ScenarioSpec):
    session = Session.from_spec(spec)
    session.run("discovery")
    result = session.update()
    return session, result


def _assert_traffic_adds_up(traffic, shard_count: int) -> None:
    """Every delivery sits on exactly one shard, and on one side of the cut."""
    assert set(traffic.messages_by_shard) == set(range(shard_count))
    assert set(traffic.tuples_by_shard) == set(range(shard_count))
    assert traffic.total_messages > 0
    assert (
        traffic.cross_shard_messages + traffic.intra_shard_messages
        == traffic.total_messages
    )
    assert traffic.max_shard_messages <= traffic.total_messages
    assert 0.0 <= traffic.cut_ratio <= 1.0


class TestShardedParity:
    @pytest.mark.parametrize("family", sorted(TOPOLOGIES))
    @pytest.mark.parametrize("shards", [1, 4])
    def test_sharded_matches_sync_on_dblp_topologies(self, family, shards):
        spec = ScenarioSpec.from_topology(
            TOPOLOGIES[family](), records_per_node=5, seed=7
        )
        _sync_session, sync_result = _run(spec)
        sharded_session, sharded_result = _run(_sharded(spec, shards))

        assert sharded_result.engine == "multiproc"
        assert sync_result.engine == "sync"
        assert (
            sharded_result.ground_databases() == sync_result.ground_databases()
        )
        traffic = sharded_result.stats.sharding
        assert traffic is not None
        assert traffic.shard_count == min(
            shards, len(sharded_session.system.nodes)
        )
        _assert_traffic_adds_up(traffic, traffic.shard_count)
        if shards == 1:
            assert traffic.cross_shard_messages == 0

    @pytest.mark.parametrize("shards", [1, 4])
    def test_sharded_matches_sync_on_the_paper_example(self, shards):
        # The Section 2 example is cyclic and generates labelled nulls, so it
        # exercises the chase across the cut.
        spec = ScenarioSpec.of(
            paper_example_schemas(),
            paper_example_rules(),
            paper_example_data(),
            super_peer="A",
        )
        _sync_session, sync_result = _run(spec)
        _sharded_session, sharded_result = _run(_sharded(spec, shards))
        assert (
            sharded_result.ground_databases() == sync_result.ground_databases()
        )
        _assert_traffic_adds_up(
            sharded_result.stats.sharding, sharded_result.stats.sharding.shard_count
        )

    def test_all_nodes_reach_closure_under_sharding(self):
        from repro.core.fixpoint import all_nodes_closed, satisfies_all_rules

        spec = ScenarioSpec.from_topology(
            tree_topology(2, 2), records_per_node=5, seed=7
        )
        session, _result = _run(_sharded(spec, 4))
        assert all_nodes_closed(session.system)
        assert satisfies_all_rules(session.system)

    def test_discovery_parity_under_sharding(self):
        # Topology discovery also runs sharded; the Paths relations merged
        # back from the workers must match the synchronous run.
        spec = ScenarioSpec.of(
            paper_example_schemas(),
            paper_example_rules(),
            paper_example_data(),
            super_peer="A",
        )
        sync_session = Session.from_spec(spec)
        sync_session.run("discovery")
        sharded_session = Session.from_spec(_sharded(spec, 3))
        sharded_session.run("discovery")
        sync_paths = {
            node_id: node.state.maximal_paths()
            for node_id, node in sync_session.system.nodes.items()
        }
        sharded_paths = {
            node_id: node.state.maximal_paths()
            for node_id, node in sharded_session.system.nodes.items()
        }
        assert sharded_paths == sync_paths
