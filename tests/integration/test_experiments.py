"""Integration tests of the experiment harness (E1-E10) at reduced scale."""

from repro.experiments.baseline_comparison import run_baseline_comparison
from repro.experiments.complexity_growth import run_change_growth, run_clique_growth
from repro.experiments.data_distribution import run_data_distribution
from repro.experiments.depth_linearity import run_depth_linearity
from repro.experiments.message_accounting import run_message_accounting
from repro.experiments.paper_example import main as paper_example_main
from repro.experiments.paper_example import run_paper_example
from repro.experiments.runner import run_dblp_update
from repro.experiments.scalability import run_scalability, run_shard_scalability
from repro.experiments.trace_example import run_trace_example
from repro.workloads.topologies import clique_topology, tree_topology


class TestRunner:
    def test_run_dblp_update_metrics(self):
        network, result = run_dblp_update(
            tree_topology(2, 2), records_per_node=10, check_fixpoint=True
        )
        assert result.node_count == 7
        assert result.update_messages > 0
        assert result.query_messages > 0
        assert result.answer_messages > 0
        assert result.all_closed
        assert result.fixpoint_reached
        assert result.tuples_inserted > 0
        assert set(result.per_node) == set(network.spec.nodes)

    def test_as_row_shape(self):
        _, result = run_dblp_update(tree_topology(1, 2), records_per_node=5)
        assert len(result.as_row()) == 8


class TestE1PaperExample:
    def test_paths_match_static_computation(self):
        result = run_paper_example()
        assert result.paths_match
        assert result.discovery_messages > 0

    def test_main_prints_table(self, capsys):
        table = paper_example_main()
        captured = capsys.readouterr().out
        assert "E1" in captured
        assert "ABCA" in table


class TestE2Trace:
    def test_trace_has_both_phases_in_order(self):
        result = run_trace_example()
        types = [entry.message_type for entry in result.entries]
        assert "request_nodes" in types
        assert "query" in types
        # Discovery messages all precede update messages.
        last_discovery = max(
            i for i, t in enumerate(types) if t in ("request_nodes", "discovery_answer")
        )
        first_update = min(i for i, t in enumerate(types) if t in ("query", "answer"))
        assert last_discovery < first_update

    def test_figure1_nodes_subtrace(self):
        result = run_trace_example()
        sub = result.entries_between(frozenset({"A", "B", "C", "E"}))
        assert len(sub) > 0
        assert all(e.sender in {"A", "B", "C", "E"} for e in sub)


class TestE3Scalability:
    def test_small_sweep_runs_and_scales(self):
        results = run_scalability(
            tree_sizes=(3, 7),
            layered_sizes=(4,),
            clique_sizes=(3,),
            records_per_node=8,
        )
        assert len(results) == 4
        tree_results = [r for r in results if r.label.startswith("tree")]
        assert tree_results[1].update_messages > tree_results[0].update_messages
        assert all(r.all_closed for r in results)


class TestE3ShardSweep:
    def test_sync_and_sharded_agree_at_reduced_scale(self):
        comparisons = run_shard_scalability(
            sizes=(15,), shards=2, records_per_node=3
        )
        assert len(comparisons) == 2  # one tree + one layered DAG
        for comparison in comparisons:
            assert comparison.parity
            assert comparison.shards == 2
            assert comparison.multiproc_messages > 0
            assert sum(comparison.messages_by_shard.values()) == (
                comparison.multiproc_messages
            )
            assert 0.0 <= comparison.cut_ratio <= 1.0


class TestE4DepthLinearity:
    def test_time_grows_linearly_with_depth(self):
        series = run_depth_linearity(depths=(1, 2, 3, 4), records_per_node=6)
        for family, data in series.items():
            assert data.fit["slope"] > 0, family
            assert data.fit["r_squared"] > 0.9, family
            assert list(data.update_times) == sorted(data.update_times)


class TestE5DataDistribution:
    def test_overlap_inserts_fewer_tuples(self):
        comparisons = run_data_distribution(
            specs=[tree_topology(2, 2)], records_per_node=15, overlap_probability=1.0
        )
        (comparison,) = comparisons
        overlapping, disjoint = comparison.overlapping, comparison.disjoint
        assert overlapping.tuples_inserted < disjoint.tuples_inserted
        assert comparison.insertion_ratio < 1.0


class TestE6MessageAccounting:
    def test_per_path_counts_duplicates(self):
        result = run_message_accounting(clique_size=4, records_per_node=6)
        assert result.per_path.duplicate_queries > result.once.duplicate_queries
        assert result.per_path.total_messages > result.once.total_messages


class TestStrategyThreading:
    """--strategy flows through E4/E5/E6 exactly as it does through E3."""

    def test_depth_linearity_reference_matches_distributed_tuples(self):
        distributed = run_depth_linearity(depths=(1, 2), records_per_node=5)
        reference = run_depth_linearity(
            depths=(1, 2), records_per_node=5, strategy="centralized"
        )
        for family in distributed:
            for dist_run, ref_run in zip(
                distributed[family].results, reference[family].results
            ):
                assert dist_run.tuples_inserted == ref_run.tuples_inserted
                assert ref_run.strategy == "centralized"

    def test_data_distribution_skips_inapplicable_strategy(self, capsys):
        comparisons = run_data_distribution(
            specs=[clique_topology(3)], records_per_node=4, strategy="acyclic"
        )
        assert comparisons == []
        assert "skipping" in capsys.readouterr().out

    def test_message_accounting_reference_column(self):
        result = run_message_accounting(
            clique_size=3, records_per_node=4, strategy="centralized"
        )
        assert result.reference is not None
        assert result.reference.strategy == "centralized"
        assert (
            result.reference.tuples_inserted == result.once.tuples_inserted
        )

    def test_message_accounting_acyclic_on_clique_leaves_column_empty(self):
        result = run_message_accounting(
            clique_size=3, records_per_node=4, strategy="acyclic"
        )
        assert result.reference is None


class TestE9BaselineComparison:
    def test_tree_comparison(self):
        comparison = run_baseline_comparison(
            tree_topology(2, 2), records_per_node=8, queries_in_batch=5
        )
        assert comparison.answers_agree
        assert comparison.acyclic_applicable and comparison.acyclic_matches
        assert comparison.querytime_messages_per_query > 0
        assert comparison.breakeven_queries > 0

    def test_clique_comparison_rejects_acyclic_baseline(self):
        comparison = run_baseline_comparison(
            clique_topology(4), records_per_node=6, queries_in_batch=5
        )
        assert comparison.answers_agree
        assert not comparison.acyclic_applicable


class TestE10ComplexityGrowth:
    def test_per_path_grows_faster_than_once(self):
        points = run_clique_growth(sizes=(2, 3, 4), records_per_node=4)
        per_path = {p.size: p.update_messages for p in points if p.policy == "per_path"}
        once = {p.size: p.update_messages for p in points if p.policy == "once"}
        assert per_path[4] > once[4]
        assert per_path[4] / per_path[2] > once[4] / once[2]

    def test_change_growth_is_monotone(self):
        points = run_change_growth(lengths=(1, 2, 4), records_per_node=6)
        extra = [p.extra_messages for p in points]
        assert extra == sorted(extra)
        assert extra[0] > 0
