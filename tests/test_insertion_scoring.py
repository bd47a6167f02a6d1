"""Prune-once insertion scoring against the per-candidate walk it replaced.

``LikelihoodEngine.score_insertions`` scores every regraft target of a
pruned subtree in three stacked stages.  Each target's ``(lnL, t_a, t_b,
t_connect)`` must be ``==`` what the search used to compute one
candidate at a time — apply the SPR, ``makenewz`` the three junction
branches in creation order, ``evaluate`` at the connecting branch,
revert — which survives here only as the test-local oracle
:func:`_oracle`.  The Newton loop on K rows must equal K one-row solves,
and a fault injected inside a stage must recover to the same bits.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.chaos import FaultPlan, FaultSpec, inject
from repro.chaos.plan import (
    ENGINE_CLV_POISON,
    ENGINE_PMAT_CORRUPT,
    ENGINE_UNDERFLOW,
)
from repro.phylo import (
    AA,
    Alignment,
    GTR,
    HKY85,
    JC69,
    CatRates,
    GammaRates,
    LikelihoodEngine,
    PoissonAA,
    Tree,
    UniformRate,
)
from repro.phylo import kernels
from repro.phylo.engine import insertion
from repro.phylo.engine.core import masked_newton
from repro.phylo.search import _apply_spr, _revert_spr, spr_neighborhood
from repro.phylo.tree import MIN_BRANCH_LENGTH
from tests.strategies import random_patterns
from tests.test_protein import related_sequences

ITERATIONS = 8  # SearchConfig.local_branch_iterations


def _jc69_uniform(rng):
    return random_patterns(rng, n_taxa=7, n_sites=40), JC69(), UniformRate()


def _gtr_gamma4(rng):
    model = GTR((1.2, 2.9, 0.7, 1.1, 3.4, 1.0), (0.32, 0.18, 0.24, 0.26))
    return random_patterns(rng, n_taxa=7, n_sites=40), model, \
        GammaRates(0.5, 4)


def _hky_cat(rng):
    patterns = random_patterns(rng, n_taxa=7, n_sites=40)
    rates = rng.uniform(0.25, 4.0, patterns.n_patterns)
    return (patterns, HKY85(3.0, (0.3, 0.2, 0.2, 0.3)),
            CatRates(rates, n_categories=3))


def _poisson_aa_gamma4(rng):
    # Small: the reference backend's 20-state loops are plain Python.
    patterns = Alignment.from_sequences(related_sequences(
        n_taxa=6, n_sites=8, seed=int(rng.integers(1 << 16))), AA).compress()
    return (patterns, PoissonAA(tuple(np.linspace(1.0, 3.0, 20))),
            GammaRates(0.8, 4))


MODELS = {"jc69_uniform": _jc69_uniform, "gtr_gamma4": _gtr_gamma4,
          "hky_cat": _hky_cat, "poisson_aa_gamma4": _poisson_aa_gamma4}


def _engine(model_name, backend, seed):
    rng = np.random.default_rng(seed)
    patterns, model, rates = MODELS[model_name](rng)
    tree = Tree.from_tip_names(patterns.taxa, rng)
    engine = LikelihoodEngine(patterns, model, rates, tree, backend=backend)
    engine.optimize_all_branches(passes=1)
    return engine


def _oracle(engine, prune, keep, targets):
    """The per-candidate loop: apply → makenewz ×3 → evaluate → revert."""
    scores = []
    for target in targets:
        move = _apply_spr(engine.tree, prune, keep, target)
        lengths = [engine.makenewz(branch, max_iterations=ITERATIONS)[0]
                   for branch in list(move.junction.branches)]
        scores.append((engine.evaluate(move.connect_branch), *lengths))
        prune = _revert_spr(engine.tree, move)
        keep = prune.nodes[0]
    return scores


def _staged(engine, prune, keep, targets):
    """The same targets scored while pruned, as the search's walk asks
    for them: at the prune of the first target not yet scored."""
    scores = []

    def score(subtree_root, connect_length):
        scores.extend(engine.score_insertions(
            subtree_root, targets[len(scores):], connect_length,
            max_iterations=ITERATIONS))

    while len(scores) < len(targets):
        move = _apply_spr(engine.tree, prune, keep, targets[len(scores)],
                          on_pruned=score)
        prune = _revert_spr(engine.tree, move)
        keep = prune.nodes[0]
    return [tuple(s) for s in scores]


# A walk hands out fresh branch ids and reorders node adjacency, so
# prune points and targets are carried across one by their tip sets.

def _split(tree, node, branch):
    return frozenset(tree.subtree_tips(node, branch))


def _prune_points(tree):
    """Every ``(prune branch, kept endpoint)``, as the moved tip set."""
    return [_split(tree, branch.other(keep), branch)
            for branch in tree.branches for keep in branch.nodes
            if not keep.is_tip]


def _prune_point(tree, moved):
    for branch in tree.branches:
        for keep in branch.nodes:
            if not keep.is_tip and _split(tree, branch.other(keep),
                                          branch) == moved:
                return branch, keep
    raise AssertionError("prune point not found")


def _targets(tree, keys):
    """Branches by ``(a-side tips, b-side tips)``, oriented as keyed."""
    found = {(_split(tree, b.nodes[0], b), _split(tree, b.nodes[1], b)): b
             for b in tree.branches}
    return [found[key] for key in keys]


def _compare(engine, moved, count=None):
    """Oracle vs staged scores for one prune point's neighbourhood (its
    first *count* targets); returns how many were compared."""
    tree = engine.tree
    prune, keep = _prune_point(tree, moved)
    targets = spr_neighborhood(tree, prune, keep, 99)[:count]
    if not targets:
        return 0
    keys = [(_split(tree, t.nodes[0], t), _split(tree, t.nodes[1], t))
            for t in targets]
    want = _oracle(engine, prune, keep, targets)
    prune, keep = _prune_point(tree, moved)
    assert _staged(engine, prune, keep, _targets(tree, keys)) == want
    return len(want)


def _compare_every_neighbourhood(engine, limit=None):
    """Every prune point (the first *limit*); returns how many
    candidates and which subtree kinds (tip or not) were compared."""
    compared, kinds = 0, set()
    for moved in _prune_points(engine.tree)[:limit]:
        count = _compare(engine, moved)
        compared += count
        if count:
            kinds.add(len(moved) == 1)
    return compared, kinds


@pytest.mark.parametrize("backend", ["einsum", "reference"])
@pytest.mark.parametrize("model_name", sorted(MODELS))
def test_scores_equal_the_per_candidate_walk(model_name, backend):
    engine = _engine(model_name, backend, seed=1)
    try:
        limit = 2 if backend == "reference" else None
        compared, kinds = _compare_every_neighbourhood(engine, limit)
        assert compared > 0
        if backend == "einsum":
            assert kinds == {True, False}  # tip and inner subtrees
    finally:
        engine.detach()


@pytest.mark.verify
@pytest.mark.parametrize("seed", range(25))
@pytest.mark.parametrize("backend", ["einsum", "reference"])
@pytest.mark.parametrize("model_name", sorted(MODELS))
def test_scores_equal_the_per_candidate_walk_sweep(model_name, backend,
                                                   seed):
    engine = _engine(model_name, backend, seed=100 + seed)
    try:
        limit = 1 if backend == "reference" else None
        assert _compare_every_neighbourhood(engine, limit)[0] > 0
    finally:
        engine.detach()


def test_rescaled_candidates_equal_the_walk(monkeypatch):
    """Scale counts in the junctions and sides: with a rescaling
    threshold of 2**-4 most CLVs carry counts, so every sumtable offset
    and ``evaluate`` correction is live."""
    monkeypatch.setattr(kernels, "SCALE_THRESHOLD", 2.0 ** -4)
    monkeypatch.setattr(kernels, "SCALE_FACTOR", 2.0 ** 4)
    monkeypatch.setattr(kernels, "LOG_SCALE_FACTOR", 4 * np.log(2.0))
    engine = _engine("gtr_gamma4", "einsum", seed=5)
    try:
        scaled = sum(bool(entry.scale_counts.any())
                     for entry in engine._clv_cache.values())
        assert scaled > len(engine._clv_cache) // 2
        assert _compare_every_neighbourhood(engine)[0] > 0
    finally:
        engine.detach()


def _widest(tree, inner=False):
    """The prune point with the most targets (moving a tip or, with
    ``inner``, a subtree of two tips or more)."""
    def size(moved):
        return len(spr_neighborhood(tree, *_prune_point(tree, moved), 99))
    return max((moved for moved in _prune_points(tree)
                if len(moved) > 1 or not inner), key=size)


@pytest.mark.parametrize("extra", [None, 0, 1], ids=["k1", "cap", "cap+1"])
def test_chunks_score_like_one_stack(monkeypatch, extra):
    """K = 1, one full stack, and one past it (two calls, two prunes)."""
    engine = _engine("gtr_gamma4", "einsum", seed=2)
    c, s, n = engine._n_cats, engine.patterns.n_patterns, engine._n_states
    per = insertion.stack_bytes(s, c, n) // insertion.stack_capacity(s, c, n)
    monkeypatch.setattr(insertion, "STACK_BUDGET_BYTES", 3 * per)
    cap = insertion.stack_capacity(s, c, n)
    assert cap == 3
    try:
        count = 1 if extra is None else cap + extra
        assert _compare(engine, _widest(engine.tree), count) == count
    finally:
        engine.detach()


def test_tracer_accounting_per_candidate():
    """One ``newview`` per junction CLV (nested in ``makenewz``), one
    ``makenewz`` per candidate-stage with its iterations, one
    ``evaluate`` per candidate."""
    from repro.port.trace import Tracer

    engine = _engine("gtr_gamma4", "einsum", seed=3)
    tree = engine.tree
    try:
        prune, keep = _prune_point(tree, _widest(tree, inner=True))
        targets = spr_neighborhood(tree, prune, keep, 99)
        root = prune.other(keep)
        engine.clv(root, prune)  # parked by the prune, found by content
        _, connect = tree.prune_subtree(prune, keep)
        engine.score_insertions(root, targets, connect)  # fills the sides
        engine.tracer = tracer = Tracer()
        before = (engine.newview_calls, engine.makenewz_calls,
                  engine.evaluate_calls)
        scores = engine.score_insertions(root, targets, connect)
        k = len(scores)
        assert k == len(targets) > 1
        assert engine.newview_calls - before[0] == 3 * k
        assert engine.makenewz_calls - before[1] == 3 * k
        assert engine.evaluate_calls - before[2] == k
        assert tracer.newview_count == tracer.newview_nested_count == 3 * k
        assert tracer.makenewz_count == 3 * k
        assert 3 * k <= tracer.makenewz_iterations <= 3 * k * 32
        assert tracer.evaluate_count == k
    finally:
        engine.detach()


@pytest.mark.parametrize("site", [ENGINE_CLV_POISON, ENGINE_UNDERFLOW,
                                  ENGINE_PMAT_CORRUPT])
def test_fault_inside_a_stage_recovers_to_the_same_bits(site):
    engine = _engine("gtr_gamma4", "einsum", seed=4)
    tree = engine.tree
    try:
        moved = _widest(tree)
        prune, keep = _prune_point(tree, moved)
        targets = spr_neighborhood(tree, prune, keep, 99)
        keys = [(_split(tree, t.nodes[0], t), _split(tree, t.nodes[1], t))
                for t in targets]
        want = _staged(engine, prune, keep, targets)
        prune, keep = _prune_point(tree, moved)
        # Every side CLV is cached now: the hook's visits inside the
        # call are its junction CLVs, so visit len(targets) + 1 is the
        # second junction of stage 2; a P-matrix lookup that deep is in
        # a stage too.
        plan = FaultPlan(seed=0, specs=(
            FaultSpec(site, trigger_at=(len(targets) + 1,)),))
        faults = engine.numerical_faults
        with inject(plan) as injector:
            got = _staged(engine, prune, keep, _targets(tree, keys))
            assert injector.fired[site] == 1
        assert got == want
        if site != ENGINE_UNDERFLOW:  # the underflow round trip is exact
            assert engine.numerical_faults == faults + 1
        assert not engine.is_degraded
    finally:
        engine.detach()


# -- the Newton loop on K rows ------------------------------------------------


def _tables(rng, count, n_patterns, identical):
    """``count`` sumtables of random sides (or of identical tip rows,
    whose optimum is the ``MIN_BRANCH_LENGTH`` clamp)."""
    model = GTR((1.2, 2.9, 0.7, 1.1, 3.4, 1.0), (0.32, 0.18, 0.24, 0.26))
    rates = GammaRates(0.5, 4)
    tables = np.empty((count, 16, n_patterns))
    for k in range(count):
        if identical[k]:
            rows = np.eye(4)[rng.integers(0, 4, n_patterns)]
            u = v = np.ascontiguousarray(
                np.broadcast_to(rows, (4, n_patterns, 4)))
        else:
            u = rng.uniform(0.01, 1.0, (4, n_patterns, 4))
            v = rng.integers(1, 15, n_patterns)  # tip codes
        kernels.branch_sumtable(model._right, model._left, model.pi, 4,
                                u, v, out=tables[k])
    probe = kernels.SumtableProbe(model._eigenvalues, rates.rates,
                                  rng.integers(1, 4, n_patterns).astype(float),
                                  rates.weights)
    return probe, tables


@given(seed=st.integers(0, 10_000), count=st.integers(1, 7),
       max_iterations=st.integers(1, 32),
       starts=st.lists(st.sampled_from([MIN_BRANCH_LENGTH, 1e-5, 0.03, 0.4,
                                        3.0, 20.0, 50.0]),
                       min_size=7, max_size=7),
       identical=st.lists(st.booleans(), min_size=7, max_size=7))
def test_k_rows_give_k_one_row_solves(seed, count, max_iterations, starts,
                                      identical):
    """Bit for bit, ``(best_t, best_lnl, iterations)``: the K-row stack
    drops rows as they converge, and a one-row stack runs the
    single-row operations ``makenewz`` does."""
    rng = np.random.default_rng(seed)
    probe, tables = _tables(rng, count, 23, identical)
    offsets = rng.uniform(0.0, 40.0, count)
    start = np.array(starts[:count])
    work = probe.stack_work(count)
    best_t, best_lnl, iterations = masked_newton(
        lambda t, rows: probe.stacked(tables[rows], t,
                                      offsets[rows].tolist(), work),
        lambda t, rows: probe.stacked_lnl(tables[rows], t,
                                          offsets[rows].tolist(), work),
        start, max_iterations)
    for k in range(count):
        (t,), (lnl,), (its,) = masked_newton(
            *probe.rows(tables[k:k + 1], [offsets[k]], probe.stack_work(1)),
            [float(start[k])], max_iterations)
        assert (best_t[k], best_lnl[k], iterations[k]) == (t, lnl, its)
