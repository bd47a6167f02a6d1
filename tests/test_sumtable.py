"""The ``makenewz`` sumtable: kernels, engine wiring, guards, accounting.

The sumtable pair (``branch_sumtable`` + ``SumtableProbe`` on a one-row
stack) must reproduce the explicit ``(P, dP, d2P)`` derivative kernels —
and the loop-based ``reference`` backend — on every side combination, model
shape and branch length, and swapping it under ``makenewz`` must change
nothing an operator can observe: guards, degradation ladder, counters.
"""

import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.chaos import FaultPlan, FaultSpec, inject
from repro.chaos.plan import ENGINE_CLV_POISON
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
    default_gtr,
    kernels,
    synthetic_dataset,
)
from repro.phylo.alignment import AlignmentError
from repro.phylo.distances import ml_distance
from repro.phylo.dna import TIP_PARTIAL_ROWS
from repro.phylo.engine.backends.reference import ReferenceBackend
from repro.phylo.engine.core import LNL_TIE_ULPS, masked_newton
from repro.phylo.engine.protocol import EngineNumericalError
from repro.phylo.protein import AA_CODE_TABLE
from repro.phylo.tree import MAX_BRANCH_LENGTH, MIN_BRANCH_LENGTH
from repro.verify.differential import fast_makenewz_derivatives, random_case
from repro.verify.golden import (
    GOLDEN_CASES,
    build_case_instance,
    default_corpus_dir,
)
from repro.verify.oracle import ReferenceEngine
from tests.strategies import random_patterns, seeds
from tests.test_protein import related_sequences

N_PATTERNS = 9

#: name -> (model, rate model, tip code table); the rate model of the
#: CAT configuration puts its patterns in category order, three to a
#: category: the layout a CAT engine gives them.
CONFIGS = {
    "jc69_uniform": (JC69(), UniformRate(), None),
    "gtr_gamma4": (
        GTR((1.2, 2.9, 0.7, 1.1, 3.4, 1.0), (0.32, 0.18, 0.24, 0.26)),
        GammaRates(0.5, 4), None,
    ),
    "hky_cat": (
        HKY85(3.0, (0.3, 0.2, 0.2, 0.3)),
        CatRates(np.linspace(0.25, 4.0, N_PATTERNS), n_categories=3), None,
    ),
    "poisson_aa_gamma4": (
        PoissonAA(tuple(np.linspace(1.0, 3.0, 20))), GammaRates(0.8, 4),
        AA_CODE_TABLE,
    ),
}

#: log-uniform over the whole legal range, ends included
lengths = st.one_of(
    st.sampled_from([MIN_BRANCH_LENGTH, MAX_BRANCH_LENGTH]),
    st.floats(np.log(MIN_BRANCH_LENGTH), np.log(MAX_BRANCH_LENGTH)).map(
        lambda x: float(np.exp(x))
    ),
)


def _rates(rate_model):
    """``(rates, cat_weights)`` the way the engine feeds kernels: under
    CAT one rate per pattern block and one category axis."""
    if rate_model.is_per_site:
        assert np.array_equal(rate_model.site_categories,
                              np.arange(N_PATTERNS) // 3)
        return rate_model.rates, np.ones(1)
    return rate_model.rates, rate_model.weights


def _random_side(rng, kind, n_cats, table):
    """``(sumtable operand, broadcast CLV)`` for a tip or inner side."""
    if kind == "tip":
        codes = rng.integers(1, len(table), N_PATTERNS).astype(np.uint8)
        clv = np.broadcast_to(
            table[codes], (n_cats, N_PATTERNS, table.shape[1])
        )
        return codes, clv
    clv = rng.uniform(1e-3, 1.0, (n_cats, N_PATTERNS, table.shape[1]))
    return clv, clv


def _one_row(probe, table, offset=0.0, work=None):
    """``(full, lnl_only)``: ``t ->`` ``probe`` on one sumtable, as a
    one-row stack."""
    work = probe.stack_work(1) if work is None else work
    return (lambda t: probe.stacked(table[None], [t], [offset], work)[0],
            lambda t: probe.stacked_lnl(table[None], [t], [offset],
                                        work)[0])


def _probe_once(table, eigenvalues, rates, t, weights, cat_weights,
                offset=0.0):
    """``(lnL, d1, d2)`` from a probe built and used once."""
    probe = kernels.SumtableProbe(eigenvalues, rates, weights, cat_weights)
    return _one_row(probe, table, offset)[0](t)


def _assert_triples_agree(got, want, t=1.0):
    """1e-9 relative; d1/d2 sum signed terms, so they also get the
    differential battery's absolute floor.

    Below ``t = 1e-5`` the bar widens to ``1e-14 / t``: a mismatched
    state pair has ``P_ij(t) = O(t)`` assembled from ``O(1)`` eigen-terms,
    so *every* eigenbasis evaluation — sumtable or explicit P — loses
    ``log10(1/t)`` digits to cancellation there, each in its own way
    (worst seen: 1.2e-7 on ``d2`` at ``t = 1e-8`` with 20 states).
    """
    rel = max(1e-9, 1e-14 / t)
    assert got[0] == pytest.approx(want[0], rel=rel)
    assert got[1] == pytest.approx(want[1], rel=rel, abs=1e-7)
    assert got[2] == pytest.approx(want[2], rel=rel, abs=1e-7)


def length_bar(curvature, t, d1_noise=1e-14):
    """Relative agreement two Newton solves of one branch owe each
    other: 1e-9 wherever the data determine the length that well.
    Round-off of ``d1_noise`` in ``d1`` moves its root by ``d1_noise /
    |d2|`` — more than 1e-9 of ``t`` on a branch the alignment says
    nothing about (``|d2| t`` falls to 1e-8 on uniform random
    sequences) or that sits at the ``1e-8`` clamp, and there the bar
    widens to that.  ``d1`` sums O(1) eigen-terms per site: ~1e-14 of
    absolute round-off on the suite's 15-60-site instances for the
    sumtable, ~1e-11 for the oracle's explicit ``dP/dt``, whose O(t)
    entries near ``t = 0`` are themselves assembled by cancellation."""
    return max(1e-9, d1_noise / max(abs(curvature) * t, 1e-300))


class TestKernels:
    @pytest.mark.parametrize("config", sorted(CONFIGS))
    @pytest.mark.parametrize(
        "sides", [("tip", "tip"), ("tip", "inner"), ("inner", "tip"),
                  ("inner", "inner")], ids="-".join,
    )
    @given(seed=seeds, t=lengths)
    def test_matches_pmatrix_kernels_and_reference(self, config, sides,
                                                   seed, t):
        model, rate_model, code_table = CONFIGS[config]
        table = TIP_PARTIAL_ROWS if code_table is None else code_table
        rates, cat_weights = _rates(rate_model)
        rng = np.random.default_rng(seed)
        u_side, u_clv = _random_side(rng, sides[0], len(cat_weights), table)
        v_side, v_clv = _random_side(rng, sides[1], len(cat_weights), table)
        weights = rng.integers(1, 5, N_PATTERNS).astype(np.float64)
        scale = rng.integers(0, 4, N_PATTERNS)  # non-zero scale counts

        sumtable = kernels.branch_sumtable(
            model._right, model._left, model.pi, len(cat_weights),
            u_side, v_side, code_table,
        )
        got = _probe_once(
            sumtable, model._eigenvalues, rates, t, weights, cat_weights,
            float(weights @ scale) * kernels.LOG_SCALE_FACTOR,
        )

        terms = model.transition_derivatives(t, rates)
        want = kernels.branch_derivatives(
            terms, model.pi, cat_weights, weights, u_clv, v_clv, scale)
        _assert_triples_agree(got, want, t)

        oracle = ReferenceBackend()
        _assert_triples_agree(got, oracle.branch_derivatives(
            oracle.transition_derivatives(model, rates, t), model.pi,
            cat_weights, weights, u_clv, v_clv, scale,
        ), t)

    def test_buffers_are_used_in_place(self):
        model, rate_model, _ = CONFIGS["gtr_gamma4"]
        rng = np.random.default_rng(3)
        u = rng.uniform(0.1, 1.0, (4, N_PATTERNS, 4))
        v = rng.uniform(0.1, 1.0, (4, N_PATTERNS, 4))
        out, work = np.empty((16, N_PATTERNS)), np.empty_like(u)
        table = kernels.branch_sumtable(
            model._right, model._left, model.pi, 4, u, v,
            out=out, work=work,
        )
        assert np.shares_memory(table, out) and table.shape == out.shape
        assert table.flags.c_contiguous
        assert np.array_equal(table, kernels.branch_sumtable(
            model._right, model._left, model.pi, 4, u, v))

    def test_negative_length_and_nonpositive_likelihood_raise(self):
        model, rate_model, _ = CONFIGS["jc69_uniform"]
        codes = np.full(N_PATTERNS, 1, dtype=np.uint8)
        table = kernels.branch_sumtable(
            model._right, model._left, model.pi, 1, codes, codes,
        )
        args = (model._eigenvalues, rate_model.rates)
        weights = (np.ones(N_PATTERNS), rate_model.weights)
        with pytest.raises(ValueError, match="non-negative"):
            _probe_once(table, *args, -0.1, *weights)
        table[:, 0] = 0.0  # a pattern no state pair can explain
        with pytest.raises(FloatingPointError, match="non-positive"):
            _probe_once(table, *args, 0.1, *weights)


class TestPreparedProbe:
    """One prepared probe, with one work buffer, on table after table is
    a probe built for one table — and both are the explicit ``(P, dP,
    d2P)`` derivatives."""

    @staticmethod
    def _tables(config, seed, count=3):
        model, rate_model, code_table = CONFIGS[config]
        table = TIP_PARTIAL_ROWS if code_table is None else code_table
        rates, cat_weights = _rates(rate_model)
        rng = np.random.default_rng(seed)
        weights = rng.integers(1, 5, N_PATTERNS).astype(np.float64)
        probe = kernels.SumtableProbe(model._eigenvalues, rates, weights,
                                      cat_weights)
        work = probe.stack_work(1)
        for kinds in [("inner", "inner"), ("tip", "inner"),
                      ("tip", "tip")][:count]:
            u_side, u_clv = _random_side(rng, kinds[0], len(cat_weights),
                                         table)
            v_side, v_clv = _random_side(rng, kinds[1], len(cat_weights),
                                         table)
            scale = rng.integers(0, 4, N_PATTERNS)
            sumtable = kernels.branch_sumtable(
                model._right, model._left, model.pi, len(cat_weights),
                u_side, v_side, code_table)
            offset = float(weights @ scale) * kernels.LOG_SCALE_FACTOR
            yield _one_row(probe, sumtable, offset, work), probe, \
                sumtable, offset, (u_clv, v_clv, scale, weights)

    @pytest.mark.parametrize("config", sorted(CONFIGS))
    @given(seed=seeds, t=st.floats(0.01, 2.0))
    def test_prepared_is_one_shot_is_pmatrix_derivatives(self, config,
                                                         seed, t):
        model, rate_model, _ = CONFIGS[config]
        rates, cat_weights = _rates(rate_model)
        for (full, _), _, sumtable, offset, \
                (u_clv, v_clv, scale, weights) in self._tables(config, seed):
            got = full(t)
            # the same code on the same inputs: the same bits, however
            # many tables the prepared buffers have served before
            assert got == _probe_once(
                sumtable, model._eigenvalues, rates, t, weights,
                cat_weights, offset)
            terms = model.transition_derivatives(t, rates)
            want = kernels.branch_derivatives(
                terms, model.pi, cat_weights, weights, u_clv, v_clv, scale)
            assert got[0] == pytest.approx(want[0], rel=1e-11)
            assert got[1] == pytest.approx(want[1], rel=1e-11, abs=1e-10)
            assert got[2] == pytest.approx(want[2], rel=1e-11, abs=1e-10)

    @pytest.mark.parametrize("config", sorted(CONFIGS))
    @given(seed=seeds, t=st.floats(0.01, MAX_BRANCH_LENGTH))
    def test_lnl_only_ties_the_full_probe(self, config, seed, t):
        # (Not below t = 0.01: a mismatched tip pair's O(t) likelihood
        # is assembled from O(1) eigen-terms there, and any two
        # summation orders differ by eps / t, not by ulps.)
        for (full, lnl_only), *_ in self._tables(config, seed):
            full, alone = full(t)[0], lnl_only(t)
            assert abs(alone - full) <= \
                LNL_TIE_ULPS * np.finfo(float).eps * abs(full)

    def test_guards_and_evaluation_count(self):
        (forms, probe, sumtable, *_), = self._tables("gtr_gamma4", 0,
                                                    count=1)
        before = probe.calls
        for evaluate in forms:
            evaluate(0.1)
        assert probe.calls - before == 2
        for evaluate in forms:
            with pytest.raises(ValueError, match="non-negative"):
                evaluate(-0.1)
        sumtable[:, 0] = 0.0  # the probe reads the table, it holds no copy
        for evaluate in forms:
            with pytest.raises(FloatingPointError, match="non-positive"):
                evaluate(0.1)
        sumtable[:, 0] = np.nan
        for evaluate in forms:
            with pytest.raises(FloatingPointError, match="non-finite"):
                evaluate(0.1)

    @pytest.mark.parametrize("count", [1, 3])
    def test_stacked_forms_reject_negative_lengths(self, count):
        (_, probe, sumtable, *_), = self._tables("gtr_gamma4", 0, count=1)
        tables = np.stack([sumtable] * count)
        lengths, offsets = [0.1] * (count - 1) + [-0.1], [0.0] * count
        work = probe.stack_work(count)
        for form in (probe.stacked, probe.stacked_lnl):
            with pytest.raises(ValueError, match="non-negative"):
                form(tables, lengths, offsets, work)

    @pytest.mark.parametrize("config", sorted(CONFIGS))
    def test_row_views_survive_alternating_counts(self, config):
        """One work buffer serves 3, then 1, then 3 rows: each count's
        views are made once and give the bits of a fresh buffer."""
        tables, offsets = [], []
        for _, probe, sumtable, offset, _ in self._tables(config, 1):
            tables.append(sumtable.copy())
            offsets.append(offset)
        tables = np.stack(tables)
        lengths = [0.05, 0.3, 1.7]
        work = probe.stack_work(3)
        for count in (3, 1, 3):
            for form in (probe.stacked, probe.stacked_lnl):
                got = form(tables[:count], lengths[:count], offsets[:count],
                           work)
                assert got == form(tables[:count], lengths[:count],
                                   offsets[:count], probe.stack_work(count))
            assert work[count] is work[count]
        assert sorted(work) == [1, 3]


# -- operand layout and CLV storage (DESIGN 7.5, 7.6): today's kernels
#    against test-local copies of the forms they replaced, on
#    pattern-major ``(s, c, n)`` copies of the same CLVs ---------------------


def _scn(side):
    """A tip side's codes as they are; an inner ``(c, s, n)`` CLV as a
    pattern-major ``(s, c, n)`` copy."""
    return side if side.ndim == 1 else np.ascontiguousarray(
        side.transpose(1, 0, 2))


def _old_sumtable(right, left, pi, cat_weights, u_side, v_side, code_table):
    """``branch_sumtable`` before the layout change: ``(s, c, k)``, the
    category weights folded in, a tip side an ``(s, 1, k)`` broadcast."""
    def project(side, basis):
        if side.ndim == 1:
            table = TIP_PARTIAL_ROWS if code_table is None else code_table
            return np.take(table @ basis, side, axis=0)[:, None, :]
        flat = side.reshape(-1, basis.shape[0]) @ basis
        return flat.reshape(side.shape[:2] + (-1,))
    out = project(u_side, pi[:, None] * right) * project(v_side, left.T)
    return out * cat_weights[None, :, None]


def _old_probe(table, eigenvalues, rates, t, weights, per_pattern):
    """The old probe on an old table: ``((lnL, d1, d2), lnL alone)``;
    ``per_pattern``: CAT's one rate per pattern."""
    lam = rates[:, None] * eigenvalues[None, :]
    lam = lam if per_pattern else lam.ravel()
    table = table.reshape(len(table), -1)  # (s, c*k)
    exp = np.exp(lam * t)
    powers = np.stack([np.ones_like(lam), lam, lam * lam])
    if per_pattern:
        sums = (powers * (exp * table)).sum(axis=2)
        alone = (exp * table).sum(axis=1)
    else:
        sums = np.matmul(powers * exp, table.T)
        alone = table @ exp
    lik = sums[0].copy()
    sums[1:] /= lik
    sums[0] = np.log(lik)
    sums[2] -= sums[1] * sums[1]
    return tuple((sums @ weights).tolist()), float(weights @ np.log(alone))


def _layout_case(states, mode, n_cats, n_patterns, seed=0):
    rng = np.random.default_rng([seed, states, n_cats, n_patterns])
    if states == 4:
        model, code_table = CONFIGS["gtr_gamma4"][0], None
    else:
        model, code_table = CONFIGS["poisson_aa_gamma4"][0], AA_CODE_TABLE
    if mode == "cat":  # three pattern blocks, or one pattern a block
        blocks = 3 if n_patterns % 3 == 0 else n_patterns
        rates, cat_weights = rng.uniform(0.25, 4.0, blocks), np.ones(1)
    else:
        rate_model = GammaRates(0.6, n_cats) if n_cats > 1 else UniformRate()
        rates, cat_weights = rate_model.rates, rate_model.weights
    table = TIP_PARTIAL_ROWS if code_table is None else code_table
    n, c = model.n_states, len(cat_weights)
    sides = {
        "tip": lambda: rng.integers(1, len(table), n_patterns).astype(
            np.uint8),
        "inner": lambda: rng.uniform(1e-3, 1.0, (c, n_patterns, n)),
    }
    weights = rng.integers(1, 5, n_patterns).astype(np.float64)
    return model, code_table, rates, cat_weights, sides, weights


class TestOperandLayout:
    """The re-laid-out sumtable pair against the forms it replaced:
    the table keeps its bits at 4 states (1e-12 at 20, where the
    per-category GEMM sums in another order), the probe agrees to
    1e-12 — the folded weights are exact at 1, 2, 4 categories and one
    rounding per term at 3, 5, 6 — and the category-major CLV storage
    builds the table the ``(s, c, n)`` storage did."""

    @pytest.mark.parametrize("n_patterns", [9, 207, 732, 1277])
    @pytest.mark.parametrize("kinds", [("inner", "inner"), ("tip", "inner"),
                                       ("inner", "tip"), ("tip", "tip")],
                             ids="-".join)
    @pytest.mark.parametrize("states,mode,n_cats", [
        (4, "gamma", 1), (4, "gamma", 3), (4, "gamma", 4), (4, "gamma", 5),
        (4, "gamma", 6), (4, "cat", 1), (20, "gamma", 4), (20, "gamma", 5),
        (20, "cat", 1),
    ])
    def test_table_and_probe_match_the_old_forms(self, states, mode, n_cats,
                                                 kinds, n_patterns):
        model, code_table, rates, cat_weights, sides, weights = \
            _layout_case(states, mode, n_cats, n_patterns)
        per_pattern = mode == "cat"
        u_side, v_side = sides[kinds[0]](), sides[kinds[1]]()
        eigen = (model._right, model._left, model.pi)
        table = kernels.branch_sumtable(*eigen, len(cat_weights), u_side,
                                        v_side, code_table)
        k = model.n_states
        assert table.shape == (len(cat_weights) * k, n_patterns)
        assert table.flags.c_contiguous

        unweighted = _old_sumtable(*eigen, np.ones_like(cat_weights),
                                   _scn(u_side), _scn(v_side), code_table)
        as_old = table.reshape(-1, k, n_patterns).transpose(2, 0, 1)
        if states == 4:
            assert np.array_equal(as_old, unweighted)
        else:
            np.testing.assert_allclose(
                as_old, unweighted, rtol=1e-12,
                atol=1e-14 * np.abs(unweighted).max())

        old_table = _old_sumtable(*eigen, cat_weights, _scn(u_side),
                                  _scn(v_side), code_table)
        probe = kernels.SumtableProbe(model._eigenvalues, rates, weights,
                                      cat_weights)
        old_rates = (np.repeat(rates, n_patterns // len(rates))
                     if per_pattern else rates)
        full, lnl_only = _one_row(probe, table)
        for t in (0.02, 0.3, 2.5):
            want, want_alone = _old_probe(
                old_table, model._eigenvalues, old_rates, t, weights,
                per_pattern)
            got = full(t)
            assert got[0] == pytest.approx(want[0], rel=1e-12)
            assert got[1] == pytest.approx(want[1], rel=1e-12, abs=1e-10)
            assert got[2] == pytest.approx(want[2], rel=1e-12, abs=1e-10)
            assert lnl_only(t) == pytest.approx(want_alone, rel=1e-12)

    def test_out_of_table_code_is_rejected_once_not_per_call(self):
        """``take(mode="clip")`` no longer bounds-checks per call; the
        owner of the pattern matrix does, with a typed error."""
        patterns = random_patterns(np.random.default_rng(2), 5, 40)
        patterns.patterns[3, 7] = 200  # outside the 16-row DNA table
        with pytest.raises(AlignmentError) as caught:
            ml_distance(patterns, 3, 4)
        assert caught.value.code == "code_out_of_table"
        assert ml_distance(patterns, 0, 1) > 0  # rows 0, 1 are clean
        with pytest.raises(AlignmentError, match="outside the 16-row"):
            LikelihoodEngine(patterns, JC69(), None, Tree.from_tip_names(
                patterns.taxa, np.random.default_rng(0)))


def _engine(config, seed=5, n_taxa=7, backend="einsum"):
    model, rate_model, _ = CONFIGS[config]
    rng = np.random.default_rng(seed)
    patterns = random_patterns(rng, n_taxa, 400)
    if rate_model.is_per_site:
        rate_model = CatRates(
            rng.uniform(0.25, 4.0, patterns.n_patterns), n_categories=3)
    tree = Tree.from_tip_names(patterns.taxa, rng)
    return LikelihoodEngine(patterns, model, rate_model, tree,
                            backend=backend)


class TestEngineProbe:
    @pytest.mark.parametrize("config",
                             ["jc69_uniform", "gtr_gamma4", "hky_cat"])
    @pytest.mark.parametrize("backend", ["einsum", "reference"])
    def test_newton_probe_matches_public_probe_on_every_branch(
            self, config, backend):
        engine = _engine(config, backend=backend)
        try:
            for branch in engine.tree.branches:
                for t in (MIN_BRANCH_LENGTH, branch.length,
                          MAX_BRANCH_LENGTH):
                    _assert_triples_agree(
                        fast_makenewz_derivatives(engine, branch, t),
                        engine.branch_derivatives(branch, t), t,
                    )
        finally:
            engine.detach()

    def test_rescaled_clvs_fold_into_the_offset(self):
        """Deep tree: the CLVs facing a branch carry non-zero scale
        counts, which the sumtable path folds into one scalar."""
        aln = synthetic_dataset(n_taxa=160, n_sites=20, seed=8,
                                mean_branch_length=1.5,
                                invariant_fraction=0.0, gamma_alpha=None)
        patterns = aln.compress()
        tree = Tree.from_tip_names(
            patterns.taxa, np.random.default_rng(4), mean_branch_length=1.5)
        engine = LikelihoodEngine(patterns, default_gtr(), UniformRate(),
                                  tree, backend="einsum")
        oracle = ReferenceEngine(patterns, default_gtr(), UniformRate(), tree)
        try:
            scaled = [
                b for b in tree.branches
                if any(not n.is_tip and engine.clv(n, b).scale_counts.any()
                       for n in b.nodes)
            ]
            assert scaled  # rescaling actually happened
            for branch in scaled[:3]:
                got = fast_makenewz_derivatives(engine, branch)
                _assert_triples_agree(got, engine.branch_derivatives(branch))
                # The oracle projects P element-wise, in another order than
                # the engine's GEMM, so at the 1e-8 clamp (the first branch)
                # it is held to the helper's 1e-14 / t bar.
                _assert_triples_agree(got, oracle.branch_derivatives(branch),
                                      branch.length)
        finally:
            engine.detach()
            oracle.detach()

    def test_protein_makenewz_matches_oracle(self):
        patterns = Alignment.from_sequences(
            related_sequences(n_taxa=5, n_sites=40), AA).compress()
        model = PoissonAA(patterns.base_frequencies())
        newick = Tree.from_tip_names(
            patterns.taxa, np.random.default_rng(2)).to_newick(digits=17)
        results = []
        for backend in ("einsum", "reference"):
            tree = Tree.from_newick(newick)
            engine = LikelihoodEngine(patterns, model, GammaRates(0.8, 2),
                                      tree, backend=backend)
            try:
                results.append(engine.makenewz(tree.branches[0]))
            finally:
                engine.detach()
        (t, lnl), (o_t, o_lnl) = results
        assert t == pytest.approx(o_t, rel=1e-7)
        assert lnl == pytest.approx(o_lnl, rel=1e-9)


@pytest.mark.parametrize("case", GOLDEN_CASES, ids=lambda case: case.name)
def test_makenewz_matches_oracle_engine_on_golden_cases(case):
    """Sumtable Newton vs the oracle's per-iteration P-matrix Newton on
    every branch: lnL within 1e-9 relative, length within 1e-7 (observed
    <= 2e-11 on all 29 branches: the Newton loop's tie rule keeps the
    later of two iterates that agree in lnL to round-off, so which
    kernel scored them does not pick the returned length)."""
    patterns, model, rate_model, tree, _ = build_case_instance(case)
    newick = tree.to_newick(digits=17)
    fast_tree, oracle_tree = Tree.from_newick(newick), Tree.from_newick(newick)
    fast = LikelihoodEngine(patterns, model, rate_model, fast_tree,
                            backend="einsum")
    oracle = ReferenceEngine(patterns, model, rate_model, oracle_tree)
    try:
        for fb, ob in zip(fast_tree.branches, oracle_tree.branches):
            t, lnl = fast.makenewz(fb)
            o_t, o_lnl = oracle.makenewz(ob)
            assert lnl == pytest.approx(o_lnl, rel=1e-9)
            assert t == pytest.approx(o_t, abs=1e-7)
            # Keep the two trees in lockstep for the next branch.
            oracle_tree.set_length(ob, t)
    finally:
        fast.detach()
        oracle.detach()


def _oracle_length_gap(seeds_):
    """Largest gap, in units of :func:`length_bar`, between the length
    the sumtable Newton returns and the ``reference`` backend's
    ``(P, dP, d2P)`` Newton, over every branch of the fuzz cases."""
    worst = 0.0
    for seed in seeds_:
        case = random_case(seed)
        newick = case.tree.to_newick(digits=17)
        fast = LikelihoodEngine(case.patterns, case.model, case.rate_model,
                                Tree.from_newick(newick), backend="einsum")
        oracle = LikelihoodEngine(case.patterns, case.model,
                                  case.rate_model, Tree.from_newick(newick),
                                  backend="reference")
        try:
            for fb, ob in zip(fast.tree.branches, oracle.tree.branches):
                t, _ = fast.makenewz(fb)
                o_t, _ = oracle.makenewz(ob)
                oracle.tree.set_length(ob, t)  # lockstep
                bar = length_bar(fast.branch_derivatives(fb)[2], t,
                                 d1_noise=1e-11)
                worst = max(worst, abs(t - o_t) / t / bar)
        finally:
            fast.detach()
            oracle.detach()
    return worst


def test_makenewz_lengths_match_the_oracle_loop_quick():
    assert _oracle_length_gap(range(20)) <= 1.0


@pytest.mark.verify
def test_makenewz_lengths_match_the_oracle_loop_on_the_200_case_fuzz():
    assert _oracle_length_gap(range(200)) <= 1.0


def _solve(derivatives_at, start):
    """The Newton loop on one branch: ``(best_t, best_lnl, iterations)``
    of its one row."""
    best_t, best_lnl, iterations = masked_newton(
        lambda t, rows: [derivatives_at(t[0])],
        lambda t, rows: [derivatives_at(t[0])[0]], [start])
    return best_t[0], best_lnl[0], iterations[0]


class TestNewtonTieRules:
    """The Newton loop must not let the last ulp of lnL (i.e. which
    kernel summed the patterns) choose the returned length."""

    @staticmethod
    def _flat(t):
        # Optimum at 1.0; lnL flat to round-off, as at convergence.
        return -100.0, -2.0 * (t - 1.0), -2.0

    def test_lnl_tie_keeps_the_later_iterate(self):
        t, lnl, iterations = _solve(self._flat, 0.5)
        assert (t, lnl, iterations) == (1.0, -100.0, 2)

    def test_result_within_tolerance_of_start_returns_start(self):
        start = 1.0 + 8e-9  # d1 above tolerance, Newton step below it
        t, _, _ = _solve(self._flat, start)
        assert t == start

    def test_a_step_that_loses_likelihood_is_not_kept(self):
        def overshoot(t):
            return -100.0 - abs(t - 0.5), -2.0 * (t - 1.0), -2.0
        t, lnl, _ = _solve(overshoot, 0.5)
        assert (t, lnl) == (0.5, -100.0)


class TestGuardParity:
    def _poison_plan(self, visits):
        return FaultPlan(seed=0, specs=(
            FaultSpec(ENGINE_CLV_POISON, trigger_at=tuple(range(visits)),
                      max_triggers=visits, value="nan"),
        ))

    def test_transient_poison_recomputes_to_the_clean_result(self):
        clean_engine = _engine("gtr_gamma4", seed=33)
        try:
            clean = clean_engine.makenewz(clean_engine.tree.branches[1])
        finally:
            clean_engine.detach()
        engine = _engine("gtr_gamma4", seed=33)
        try:
            with inject(self._poison_plan(1)) as injector:
                recovered = engine.makenewz(engine.tree.branches[1])
            assert injector.fired[ENGINE_CLV_POISON] == 1
            assert engine.fault_recoveries == 1
            assert not engine.is_degraded
            assert recovered == clean  # bit-identical
        finally:
            engine.detach()

    def test_persistent_poison_walks_the_ladder_and_leaves_the_tree(self):
        engine = _engine("gtr_gamma4", seed=53)
        branch = engine.tree.branches[1]
        before = [b.length for b in engine.tree.branches]
        try:
            with inject(self._poison_plan(4096)):
                with pytest.raises(EngineNumericalError,
                                   match="persisted through"):
                    engine.makenewz(branch)
            # recompute x degrade_after, then the reference fallback
            assert engine.numerical_faults > engine._degrade_after
            assert engine.degradation_path == ["reference"]
            assert engine.makenewz_calls == 0
            assert [b.length for b in engine.tree.branches] == before
        finally:
            engine.detach()

    def test_nonpositive_site_likelihood_still_raises(self):
        """A pattern no state assignment can explain (an all-zero CLV
        row) trips the kernel's guard; through the guarded entry point
        the ladder drops the damaged cache and recovers bit-identically."""
        clean_engine = _engine("jc69_uniform", seed=7)
        try:
            clean = clean_engine.makenewz(clean_engine.tree.branches[0])
        finally:
            clean_engine.detach()
        engine = _engine("jc69_uniform", seed=7)
        try:
            branch = engine.tree.branches[0]
            inner = next(n for n in branch.nodes if not n.is_tip)
            engine.clv(inner, branch).clv[:, 0] = 0.0
            with pytest.raises(FloatingPointError, match="non-positive"):
                fast_makenewz_derivatives(engine, branch)
            assert engine.makenewz(branch) == clean
            assert engine.numerical_faults == 1
            assert engine.fault_recoveries == 1
        finally:
            engine.detach()

    def test_negative_length_probe_raises_value_error(self):
        engine = _engine("jc69_uniform")
        try:
            branch = engine.tree.branches[0]
            with pytest.raises(ValueError, match="non-negative"):
                fast_makenewz_derivatives(engine, branch, -1.0)
            with pytest.raises(ValueError, match="non-negative"):
                engine.branch_derivatives(branch, -1.0)
        finally:
            engine.detach()


class TestAccounting:
    @pytest.mark.parametrize("backend", ["einsum", "reference"])
    def test_one_kernel_call_per_derivative_evaluation(self, backend):
        class Iterations:
            total = 0

            def record_makenewz(self, iterations, **_):
                self.total += iterations

        engine = _engine("gtr_gamma4", backend=backend)
        try:
            for branch in engine.tree.branches:  # fill every CLV first
                engine.evaluate(branch)
            keys = sorted(engine.perf_counters())
            before = engine.perf_counters()["backend_kernel_calls"]
            engine.tracer = tracer = Iterations()
            branch = engine.tree.branches[0]
            # Cut short right after a step: the one Newton iteration +
            # the final (lnL-only) re-score; the table itself is not a
            # counted kernel call.
            engine.makenewz(branch, max_iterations=1)
            after = engine.perf_counters()["backend_kernel_calls"]
            assert (tracer.total, after - before) == (1, 2)
            # Run to |d1| < tolerance: the loop ends at the point it
            # just scored, which is not scored again.
            engine.makenewz(branch)
            done = engine.perf_counters()["backend_kernel_calls"]
            assert done - after == tracer.total - 1 > 1
            assert engine.makenewz_calls == 2
            assert sorted(engine.perf_counters()) == keys
        finally:
            engine.tracer = None
            engine.detach()

    def test_perf_counter_keys_match_the_golden_corpus(self):
        committed = json.loads(
            (default_corpus_dir() / "gtr_gamma.json").read_text())
        engine = _engine("gtr_gamma4")
        try:
            engine.makenewz(engine.tree.branches[0])
            assert sorted(engine.perf_counters()) == \
                committed["perf_counter_keys"]
        finally:
            engine.detach()

    def test_newton_iterates_do_not_touch_the_pmatrix_cache(self):
        engine = _engine("gtr_gamma4")
        try:
            for branch in engine.tree.branches:
                engine.evaluate(branch)
            before = engine.perf_counters()
            engine.makenewz(engine.tree.branches[0])
            after = engine.perf_counters()
            for key in ("pmat_hits", "pmat_misses", "pmat_entries"):
                assert after[key] == before[key]
        finally:
            engine.detach()
