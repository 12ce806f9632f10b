"""Sharded execution: the same update protocol, partitioned across workers.

Builds the DBLP sharing workload on a 63-node tree, runs the global update
once through the single-queue SyncEngine and once through the MultiprocEngine
(4 shards, one worker process each, peers partitioned by cutting the
coordination-rule graph), and shows that both reach the same fix-point while
the sharded run reports its partition traffic: deliveries per shard and
messages that crossed the cut.

Run:  PYTHONPATH=src python examples/sharded_network.py [shards]
"""

import sys

from repro import ScenarioSpec, Session
from repro.workloads import tree_topology


def main(shards: int = 4) -> None:
    spec = ScenarioSpec.from_topology(
        tree_topology(5, 2), records_per_node=3, seed=0
    )

    sync_session = Session.from_spec(spec, capture_deltas=False)
    sync_result = sync_session.run("update")
    print(
        f"sync engine:      {sync_result.stats.total_messages} messages, "
        f"completion time {sync_result.completion_time}"
    )

    multiproc_session = Session.from_spec(
        spec.with_(transport="multiproc", shards=shards), capture_deltas=False
    )
    multiproc_result = multiproc_session.run("update")
    traffic = multiproc_result.stats.sharding
    print(
        f"multiproc engine: {multiproc_result.stats.total_messages} messages, "
        f"completion time {multiproc_result.completion_time}, "
        f"{traffic.shard_count} shards"
    )
    for shard, count in sorted(traffic.messages_by_shard.items()):
        members = multiproc_session.system.transport.plan.members(shard)
        print(f"  shard {shard}: {count} deliveries, {len(members)} peers")
    print(
        f"  cross-shard: {traffic.cross_shard_messages} messages "
        f"(cut ratio {traffic.cut_ratio:.3f})"
    )

    from repro.core.fixpoint import ground_part

    same = ground_part(sync_session.databases()) == ground_part(
        multiproc_session.databases()
    )
    print(f"both engines reach the same fix-point: {same}")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 4)
