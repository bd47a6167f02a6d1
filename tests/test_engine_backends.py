"""Tests of the kernel-backend protocol layer (repro.phylo.engine).

Covers the registry/factory surface (names, env override, ``name:N``
specs), the fixed perf-counter contract every backend must honour, and
cross-backend agreement: identical scale counts bit for bit, log
likelihoods within 1e-9, and fixed-stripe-count determinism for the
partitioned backend.
"""

import ast
import inspect
from pathlib import Path

import numpy as np
import pytest

from repro.phylo import GammaRates, LikelihoodEngine, Tree
from repro.phylo.engine import (
    BACKEND_COUNTER_KEYS,
    BACKEND_ENV_VAR,
    KernelBackend,
    available_backends,
    create_engine,
    protocol,
    resolve_backend,
)
from repro.phylo.engine.backends import partitioned
from repro.phylo.engine.backends.compiled import compiled_available
from repro.phylo.engine.backends.partitioned import (
    PartitionedBackend,
    StripedKernels,
    THREADS_ENV_VAR,
    default_thread_count,
)
from repro.phylo.models import GTR
from repro.phylo.rates import CatRates
from tests.strategies import random_patterns

needs_compiled = pytest.mark.skipif(
    compiled_available() is None,
    reason="no compiled kernel flavor available (numba or a C compiler)",
)

#: Every backend spec the cross-backend agreement tests sweep, including
#: partitioned stripe counts that do not divide typical pattern counts.
ALL_BACKEND_SPECS = [
    "einsum", "reference", "partitioned:1", "partitioned:2", "partitioned:7",
    pytest.param("compiled:1", marks=needs_compiled),
    pytest.param("compiled:2", marks=needs_compiled),
    pytest.param("partitioned:2:compiled", marks=needs_compiled),
]

MODEL = GTR((1.2, 2.9, 0.7, 1.1, 3.4, 1.0), (0.32, 0.18, 0.24, 0.26))


@pytest.fixture()
def instance():
    rng = np.random.default_rng(23)
    patterns = random_patterns(rng, 6, 60)
    tree = Tree.from_tip_names(patterns.taxa, rng)
    return patterns, tree


# -- registry and factory ----------------------------------------------------


def test_registry_lists_all_builtin_backends():
    names = available_backends()
    for expected in ("einsum", "reference", "partitioned"):
        assert expected in names


# -- protocol surface ---------------------------------------------------------

#: The whole offload seam: update partials, edge lnL, edge derivatives
#: (sumtable for the Newton loop, explicit (P, dP, d2P) for the one-shot
#: probe and the oracle), the oracle's own projection, instrumentation.
PROTOCOL_METHODS = {
    "newview", "tip_terms", "inner_terms", "newview_combine", "scale_clv",
    "evaluate_loglik", "branch_sumtable", "branch_derivatives",
    "transition_matrices", "transition_derivatives", "perf_counters",
    "close",
}


def _public_methods(cls):
    return {name for name, _ in inspect.getmembers(cls, inspect.isfunction)
            if not name.startswith("_")}


def _declared_methods(module_file, class_name):
    """Public methods a class body defines, read from source (the numba
    flavour cannot be imported where numba is absent)."""
    tree = ast.parse(Path(module_file).read_text())
    body = next(node for node in tree.body
                if isinstance(node, ast.ClassDef) and node.name == class_name)
    return {node.name for node in body.body
            if isinstance(node, ast.FunctionDef)
            and not node.name.startswith("_")}


def test_kernel_backend_protocol_is_the_twelve_method_surface():
    assert _public_methods(KernelBackend) == PROTOCOL_METHODS


def test_no_backend_defines_a_method_outside_the_protocol():
    available_backends()  # registers the built-ins
    for name, factory in protocol._REGISTRY.items():
        assert _public_methods(factory) <= PROTOCOL_METHODS, name


@pytest.mark.parametrize("module, class_name", [
    ("partitioned", "EinsumStripedKernels"),
    ("_compiled_cc", "CcKernels"),
    ("_compiled_numba", "NumbaKernels"),
])
def test_no_striped_flavour_defines_a_method_outside_its_seam(
        module, class_name):
    source = Path(partitioned.__file__).with_name(f"{module}.py")
    assert _declared_methods(source, class_name) <= \
        _public_methods(StripedKernels)


def test_resolve_backend_by_name():
    backend = resolve_backend("einsum")
    assert isinstance(backend, KernelBackend)
    assert backend.name == "einsum"


def test_resolve_backend_instance_passthrough():
    backend = resolve_backend("einsum")
    assert resolve_backend(backend) is backend
    with pytest.raises(ValueError, match="cannot be combined"):
        resolve_backend(backend, n_stripes=2)


def test_resolve_backend_name_colon_n_spec():
    backend = resolve_backend("partitioned:3")
    assert backend.n_stripes == 3
    assert backend.n_threads == 3


def test_resolve_backend_inner_spec_selects_inner_kernels():
    backend = resolve_backend("partitioned:2:einsum")
    assert backend.n_stripes == 2
    assert backend.inner_kernels.flavor == "einsum"
    with pytest.raises(ValueError, match="unknown inner kernels"):
        resolve_backend("partitioned:2:quantum")


def test_resolve_backend_rejects_unknown_and_malformed():
    with pytest.raises(ValueError, match="unknown engine backend"):
        resolve_backend("spe")  # real SPEs are not available here
    with pytest.raises(ValueError, match="malformed backend spec"):
        resolve_backend("partitioned:lots")


def test_env_override_selects_backend(instance, monkeypatch):
    patterns, tree = instance
    monkeypatch.setenv(BACKEND_ENV_VAR, "partitioned:2")
    engine = create_engine(patterns, MODEL, None, tree)
    try:
        assert engine.backend.name == "partitioned"
        assert engine.backend.n_stripes == 2
    finally:
        engine.detach()
    # An explicit backend= wins over the environment.
    engine = create_engine(patterns, MODEL, None, tree, backend="einsum")
    try:
        assert engine.backend.name == "einsum"
    finally:
        engine.detach()


def test_likelihood_shim_still_constructs(instance):
    """The thin ``repro.phylo.likelihood`` alias keeps old imports alive."""
    from repro.phylo import likelihood

    patterns, tree = instance
    assert likelihood.LikelihoodEngine is LikelihoodEngine
    engine = likelihood.create_engine(patterns, MODEL, None, tree)
    try:
        assert np.isfinite(engine.evaluate())
    finally:
        engine.detach()


def test_default_thread_count_env_override(monkeypatch):
    monkeypatch.setenv(THREADS_ENV_VAR, "3")
    assert default_thread_count() == 3
    backend = PartitionedBackend()
    assert backend.n_threads == 3
    monkeypatch.delenv(THREADS_ENV_VAR)
    assert 1 <= default_thread_count() <= 4


def test_partitioned_rejects_nonpositive_worker_counts():
    with pytest.raises(ValueError, match=">= 1"):
        PartitionedBackend(n_stripes=0)


def test_partitioned_stripe_bounds_are_contiguous_and_exhaustive():
    backend = PartitionedBackend(n_stripes=7)
    for n_patterns in (1, 6, 7, 8, 23):
        bounds = backend._stripes(n_patterns)
        assert bounds[0][0] == 0
        assert bounds[-1][1] == n_patterns
        for (_, stop), (start, _) in zip(bounds, bounds[1:]):
            assert start == stop  # contiguous, no gaps or overlap
        assert all(stop > start for start, stop in bounds)  # none empty


# -- the perf-counter contract ----------------------------------------------


@pytest.mark.parametrize("spec", ALL_BACKEND_SPECS)
def test_backend_counter_keys_identical_across_backends(spec):
    backend = resolve_backend(spec)
    assert tuple(sorted(backend.perf_counters())) == tuple(
        sorted(BACKEND_COUNTER_KEYS)
    )


@pytest.mark.parametrize("spec", ALL_BACKEND_SPECS)
def test_engine_counter_key_set_is_backend_independent(instance, spec):
    """pmat_*/arena_*/backend_* keys must not depend on the backend, so
    perf-counter consumers (golden corpus, benchmarks) never branch."""
    patterns, tree = instance
    baseline = create_engine(patterns, MODEL, None, tree, backend="einsum")
    engine = create_engine(patterns, MODEL, None, tree, backend=spec)
    try:
        baseline.evaluate()
        engine.evaluate()
        assert sorted(engine.perf_counters()) == sorted(
            baseline.perf_counters()
        )
    finally:
        baseline.detach()
        engine.detach()


def test_partitioned_counters_report_stripes_and_tasks(instance):
    patterns, tree = instance
    engine = create_engine(patterns, MODEL, None, tree, backend="partitioned:2")
    try:
        engine.evaluate()
        counters = engine.perf_counters()
        assert counters["backend_stripes"] == 2
        assert counters["backend_threads"] == 2
        assert counters["backend_kernel_calls"] > 0
        # Every kernel call fanned out at least one stripe/block task
        # (reduction kernels may collapse to a single block run on
        # small instances; elementwise kernels still fan out fully).
        assert counters["backend_stripe_tasks"] >= (
            counters["backend_kernel_calls"]
        )
    finally:
        engine.detach()


# -- cross-backend agreement -------------------------------------------------


@pytest.mark.parametrize("spec", ALL_BACKEND_SPECS)
@pytest.mark.parametrize("rates", ["gamma", "cat"])
def test_backends_agree_on_loglik_and_scale_counts(instance, spec, rates):
    patterns, tree = instance
    if rates == "gamma":
        rate_model = GammaRates(0.6, 4)
    else:
        rate_model = CatRates(
            np.linspace(0.3, 3.0, patterns.n_patterns), 3
        )
    reference = LikelihoodEngine(
        patterns, MODEL, rate_model, tree, backend="einsum"
    )
    engine = LikelihoodEngine(patterns, MODEL, rate_model, tree, backend=spec)
    try:
        for branch in tree.branches[:3]:
            a = reference.evaluate(branch)
            b = engine.evaluate(branch)
            assert b == pytest.approx(a, rel=1e-9)
        inner = next(n for n in tree.inner_nodes)
        entry = inner.branches[0]
        expected = reference.clv(inner, entry)
        got = engine.clv(inner, entry)
        # Scale counts are an exact comparison: bit-identical everywhere.
        assert np.array_equal(got.scale_counts, expected.scale_counts)
        if spec.startswith("partitioned") and not spec.endswith("compiled"):
            # Striped propagation is elementwise per pattern: CLVs are
            # bit-identical to the flat einsum kernels.
            assert np.array_equal(got.clv, expected.clv)
        elif spec.startswith(("compiled", "partitioned")):
            # Compiled inner kernels use plain accumulation loops whose
            # summation order may differ from einsum's: tolerance-gated.
            np.testing.assert_allclose(got.clv, expected.clv, rtol=1e-9)
    finally:
        reference.detach()
        engine.detach()


@pytest.mark.parametrize("spec", ALL_BACKEND_SPECS)
def test_backends_agree_on_branch_derivatives(instance, spec):
    patterns, tree = instance
    reference = LikelihoodEngine(patterns, MODEL, None, tree, backend="einsum")
    engine = LikelihoodEngine(patterns, MODEL, None, tree, backend=spec)
    try:
        branch = tree.branches[1]
        a_lnl, a_d1, a_d2 = reference.branch_derivatives(branch)
        b_lnl, b_d1, b_d2 = engine.branch_derivatives(branch)
        assert b_lnl == pytest.approx(a_lnl, rel=1e-9)
        assert b_d1 == pytest.approx(a_d1, rel=1e-8, abs=1e-7)
        assert b_d2 == pytest.approx(a_d2, rel=1e-8, abs=1e-7)
    finally:
        reference.detach()
        engine.detach()


def test_partitioned_fixed_stripe_count_is_deterministic(instance):
    """For one stripe count the reduction grouping is fixed, so repeated
    evaluations are bit-identical whatever the thread scheduling."""
    patterns, tree = instance
    values = []
    for _ in range(3):
        engine = create_engine(
            patterns, MODEL, GammaRates(0.9, 4), tree,
            backend="partitioned", n_stripes=3, n_threads=2,
        )
        try:
            values.append(engine.evaluate(tree.branches[0]))
        finally:
            engine.detach()
    assert values[0] == values[1] == values[2]
    # Thread count is pure pool width: same stripes, same bits.
    engine = create_engine(
        patterns, MODEL, GammaRates(0.9, 4), tree,
        backend="partitioned", n_stripes=3, n_threads=1,
    )
    try:
        assert engine.evaluate(tree.branches[0]) == values[0]
    finally:
        engine.detach()


@pytest.mark.parametrize("base", [
    "partitioned",
    pytest.param("compiled", marks=needs_compiled),
])
def test_loglik_bits_invariant_across_thread_counts(instance, base):
    """The reduction regrouping bug: ``:1/:2/:4`` used to report slightly
    different log likelihoods because per-stripe sums regrouped with the
    stripe count.  Fixed reduction blocks + ordered pairwise summation
    make the lnL (and the Newton-optimized branch path that compounds
    it) bit-identical across stripe/thread counts."""
    patterns, tree = instance
    newick = tree.to_newick(digits=17)
    results = []
    for n in (1, 2, 4):
        own_tree = Tree.from_newick(newick)
        engine = create_engine(
            patterns, MODEL, GammaRates(0.6, 4), own_tree,
            backend=f"{base}:{n}",
        )
        try:
            lnl = engine.evaluate()
            opt = engine.optimize_all_branches(passes=2)
            results.append((lnl, opt))
        finally:
            engine.detach()
    assert results[0] == results[1] == results[2]  # bitwise, no approx


def test_detach_closes_partitioned_pool(instance):
    patterns, tree = instance
    engine = LikelihoodEngine(
        patterns, MODEL, None, tree, backend="partitioned:2"
    )
    backend = engine.backend
    engine.evaluate()
    assert backend._pool is not None  # pool spun up by the striped kernels
    engine.detach()
    assert backend._pool is None
    backend.close()  # idempotent


def test_search_and_makenewz_run_on_partitioned_backend(instance):
    """The whole optimization surface (not just evaluate) must work when
    striped: makenewz Newton iterations and lazy-SPR candidate scoring."""
    from repro.phylo.search import _apply_spr, _revert_spr, spr_neighborhood

    patterns, tree = instance
    newick = tree.to_newick(digits=17)
    results = {}
    for spec in ("einsum", "partitioned:2"):
        own_tree = Tree.from_newick(newick)
        engine = LikelihoodEngine(patterns, MODEL, None, own_tree, backend=spec)
        try:
            branch = own_tree.branches[2]
            length, lnl = engine.makenewz(branch)

            inner = [b for b in own_tree.branches if not b.nodes[0].is_tip]
            prune = inner[0]
            keep = prune.nodes[0]
            scores = []
            for target in spr_neighborhood(own_tree, prune, keep, 2):
                if target.retired:
                    continue
                move = _apply_spr(own_tree, prune, keep, target)
                for local in list(move.junction.branches):
                    engine.makenewz(local, max_iterations=8)
                scores.append(engine.evaluate(move.connect_branch))
                prune = _revert_spr(own_tree, move)
                keep = prune.nodes[0]
            assert len(scores) > 1 and np.isfinite(scores).all()
            results[spec] = (length, lnl, scores)
        finally:
            engine.detach()
    a, b = results["einsum"], results["partitioned:2"]
    assert b[0] == pytest.approx(a[0], rel=1e-6)  # optimized length
    assert b[1] == pytest.approx(a[1], rel=1e-9)  # lnL at the optimum
    np.testing.assert_allclose(b[2], a[2], rtol=1e-9)  # SPR candidate scores


@pytest.mark.parametrize("spec", ALL_BACKEND_SPECS)
@pytest.mark.parametrize("rates", ["gamma", "cat"])
def test_backends_agree_off_the_transposed_contiguous_cache(
        instance, spec, rates):
    """``newview`` / ``makenewz`` / ``evaluate`` across backends on the
    P-cache's operand layout (DESIGN 7.5): every backend that serves
    from the cache is handed a stack whose transpose is C-ordered, and
    none of them answers differently for it."""
    patterns, tree = instance
    rate_model = GammaRates(0.6, 4) if rates == "gamma" else CatRates(
        np.linspace(0.3, 3.0, patterns.n_patterns), 3)
    newick = tree.to_newick(digits=17)
    results = {}
    for name in ("einsum", spec):
        own_tree = Tree.from_newick(newick)
        engine = LikelihoodEngine(patterns, MODEL, rate_model, own_tree,
                                  backend=name)
        try:
            branch = own_tree.branches[2]
            stack = engine._pmat(branch)
            if engine.backend.uses_pmat_cache:
                assert stack.transpose(0, 2, 1).flags.c_contiguous
            inner = next(n for n in own_tree.inner_nodes)
            clv, scale = engine.newview(inner, inner.branches[0])
            length, lnl = engine.makenewz(branch)
            results[name] = (clv, scale, length, lnl,
                             engine.evaluate(own_tree.branches[0]))
        finally:
            engine.detach()
    want, got = results["einsum"], results[spec]
    np.testing.assert_allclose(got[0], want[0], rtol=1e-9)
    assert np.array_equal(got[1], want[1])  # scale counts: exact
    assert got[2] == pytest.approx(want[2], rel=1e-6)
    assert got[3] == pytest.approx(want[3], rel=1e-9)
    assert got[4] == pytest.approx(want[4], rel=1e-9)
