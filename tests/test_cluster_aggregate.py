"""Tests for streaming aggregation: best tree, supports, consensus."""

import random

from repro.cluster.aggregate import (
    StreamingAggregator,
    consensus_newick,
    merge_perf_counters,
)
from repro.phylo import Tree, support_values


def _payload(newick, lnl, replicate, is_bootstrap=False, perf=None):
    return {
        "kind": "bootstrap" if is_bootstrap else "inference",
        "replicate": replicate,
        "newick": newick,
        "log_likelihood": lnl,
        "is_bootstrap": is_bootstrap,
        "perf": perf or {},
    }


BALANCED = "((A:1,B:1):1,(C:1,D:1):1,E:1);"
LADDER = "(((A:1,B:1):1,C:1):1,D:1,E:1);"
OTHER = "((A:1,C:1):1,(B:1,D:1):1,E:1);"


class TestBestTracking:
    def test_best_updates_as_better_results_land(self):
        agg = StreamingAggregator()
        agg.ingest(_payload(BALANCED, -100.0, 1))
        assert agg.best["replicate"] == 1
        agg.ingest(_payload(LADDER, -90.0, 2))
        assert agg.best["replicate"] == 2
        agg.ingest(_payload(OTHER, -95.0, 0))  # worse; no change
        assert agg.best["replicate"] == 2

    def test_tie_breaks_to_lowest_replicate_any_arrival_order(self):
        # The serial `max` keeps the first maximal element, i.e. the
        # lowest replicate; streaming must agree regardless of order.
        for order in ([0, 1], [1, 0]):
            agg = StreamingAggregator()
            for r in order:
                agg.ingest(_payload(BALANCED, -50.0, r))
            assert agg.best["replicate"] == 0

    def test_ingest_is_idempotent(self):
        agg = StreamingAggregator()
        assert agg.ingest(_payload(BALANCED, -1.0, 0, is_bootstrap=True))
        assert not agg.ingest(_payload(BALANCED, -1.0, 0, is_bootstrap=True))
        assert agg.n_bootstraps == 1
        assert sum(agg._split_counts.values()) == len(
            Tree.from_newick(BALANCED).bipartitions()
        )


class TestStreamingSupports:
    def test_matches_support_values_exactly(self):
        boots = [BALANCED, BALANCED, LADDER, OTHER]
        agg = StreamingAggregator()
        agg.ingest(_payload(BALANCED, -10.0, 0))
        payloads = [
            _payload(nwk, -20.0 - i, i, is_bootstrap=True)
            for i, nwk in enumerate(boots)
        ]
        random.Random(5).shuffle(payloads)
        for p in payloads:
            agg.ingest(p)
        expected = support_values(
            Tree.from_newick(BALANCED),
            [Tree.from_newick(b) for b in boots],
        )
        assert agg.supports() == expected

    def test_no_bootstraps_gives_zero_supports(self):
        agg = StreamingAggregator()
        agg.ingest(_payload(BALANCED, -10.0, 0))
        supports = agg.supports()
        assert supports
        assert all(v == 0.0 for v in supports.values())

    def test_partial_supports_are_servable_mid_run(self):
        agg = StreamingAggregator()
        agg.ingest(_payload(BALANCED, -10.0, 0))
        agg.ingest(_payload(BALANCED, -20.0, 0, is_bootstrap=True))
        partial = agg.supports()
        assert set(partial.values()) == {1.0}  # 1/1 replicates agree so far


class TestConsensus:
    def test_majority_rule_consensus(self):
        agg = StreamingAggregator()
        for i, nwk in enumerate([BALANCED, BALANCED, LADDER]):
            agg.ingest(_payload(nwk, -20.0, i, is_bootstrap=True))
        majority, newick = agg.consensus()
        # {A,B} is in all three trees; {C,D} only in the two BALANCED ones.
        ab = frozenset({"C", "D", "E"})  # canonical side excludes min taxon A
        assert majority[ab] == 1.0
        tree = Tree.from_newick(newick)
        assert set(majority) == tree.bipartitions()

    def test_consensus_empty_before_any_bootstrap(self):
        agg = StreamingAggregator()
        agg.ingest(_payload(BALANCED, -10.0, 0))
        majority, newick = agg.consensus()
        assert majority == {} and newick is None

    def test_consensus_newick_nests_compatible_splits(self):
        taxa = ["A", "B", "C", "D", "E"]
        splits = [frozenset({"B", "C", "D"}), frozenset({"C", "D"})]
        newick = consensus_newick(taxa, splits)
        assert Tree.from_newick(newick).bipartitions() == {
            frozenset({"B", "C", "D"}), frozenset({"C", "D"}),
        }


class TestFinalAssembly:
    def test_analysis_matches_serial_assembly(self, tiny_patterns,
                                              fast_config):
        from repro.cluster.jobs import JobSpec
        from repro.cluster.queue import execute_replicate
        from repro.phylo import run_full_analysis

        serial = run_full_analysis(tiny_patterns, n_inferences=2,
                                   n_bootstraps=2, config=fast_config, seed=4)
        spec = JobSpec(n_inferences=2, n_bootstraps=2, config=fast_config)
        agg = StreamingAggregator()
        # Scrambled arrival order.
        for kind, rep in [("bootstrap", 1), ("inference", 1),
                          ("bootstrap", 0), ("inference", 0)]:
            agg.ingest(execute_replicate(tiny_patterns, spec, kind, rep, 4))
        result = agg.analysis()
        assert result.best.newick == serial.best.newick
        assert result.best.log_likelihood == serial.best.log_likelihood
        assert [b.newick for b in result.bootstraps] == \
            [b.newick for b in serial.bootstraps]
        assert result.supports == serial.supports


class TestPerfMerge:
    def test_merge_perf_counters_sums(self):
        merged = merge_perf_counters([
            {"pmat_hits": 3, "arena_acquires": 1},
            {"pmat_hits": 2, "newview_calls": 7},
            None,
        ])
        assert merged == {"pmat_hits": 5, "arena_acquires": 1,
                          "newview_calls": 7}
