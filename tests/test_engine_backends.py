"""Tests of the kernel-backend protocol layer (repro.phylo.engine).

Covers the registry/factory surface (names, env override, the refusal
of retired backend names), the fixed perf-counter contract every
backend must honour, and cross-backend agreement: identical scale
counts bit for bit and log likelihoods within 1e-9.
"""

import inspect

import numpy as np
import pytest

from repro.phylo import GammaRates, LikelihoodEngine, Tree
from repro.phylo.cli import main
from repro.phylo.engine import (
    BACKEND_COUNTER_KEYS,
    BACKEND_ENV_VAR,
    KernelBackend,
    RetiredBackendError,
    available_backends,
    create_engine,
    protocol,
    resolve_backend,
)
from repro.phylo.engine.protocol import RETIRED_BACKENDS
from repro.phylo.models import GTR
from repro.phylo.rates import CatRates
from tests.strategies import random_patterns

#: Every backend spec the cross-backend agreement tests sweep.
ALL_BACKEND_SPECS = ["einsum", "reference"]

#: Specs naming a deleted backend, in every form they used to take.
RETIRED_SPECS = ["partitioned", "partitioned:2", "partitioned:2:compiled",
                 "compiled", "compiled:2"]

MODEL = GTR((1.2, 2.9, 0.7, 1.1, 3.4, 1.0), (0.32, 0.18, 0.24, 0.26))


@pytest.fixture()
def instance():
    rng = np.random.default_rng(23)
    patterns = random_patterns(rng, 6, 60)
    tree = Tree.from_tip_names(patterns.taxa, rng)
    return patterns, tree


# -- registry and factory ----------------------------------------------------


def test_registry_lists_all_builtin_backends():
    assert available_backends() == ["einsum", "reference"]


# -- protocol surface ---------------------------------------------------------

#: The whole offload seam: update partials, edge lnL, edge derivatives
#: (sumtable for the Newton loop, explicit (P, dP, d2P) for the one-shot
#: probe and the oracle), the oracle's own projection, instrumentation.
PROTOCOL_METHODS = {
    "newview", "tip_terms", "inner_terms", "newview_combine", "scale_clv",
    "evaluate_loglik", "branch_sumtable", "branch_derivatives",
    "transition_matrices", "transition_derivatives", "perf_counters",
}


def _public_methods(cls):
    return {name for name, _ in inspect.getmembers(cls, inspect.isfunction)
            if not name.startswith("_")}


def test_kernel_backend_protocol_is_the_eleven_method_surface():
    assert _public_methods(KernelBackend) == PROTOCOL_METHODS


def test_no_backend_defines_a_method_outside_the_protocol():
    available_backends()  # registers the built-ins
    for name, factory in protocol._REGISTRY.items():
        assert _public_methods(factory) <= PROTOCOL_METHODS, name


def test_resolve_backend_by_name():
    backend = resolve_backend("einsum")
    assert isinstance(backend, KernelBackend)
    assert backend.name == "einsum"


def test_resolve_backend_instance_passthrough():
    backend = resolve_backend("einsum")
    assert resolve_backend(backend) is backend


def test_resolve_backend_name_colon_n_spec():
    """The ``name:N`` stripe-count form went with the striped backends:
    on a surviving name it is just an unknown name."""
    for spec in ("einsum:2", "reference:1", "einsum:2:einsum"):
        with pytest.raises(ValueError, match="unknown engine backend"):
            resolve_backend(spec)


def test_resolve_backend_rejects_unknown_and_malformed():
    with pytest.raises(ValueError, match="unknown engine backend"):
        resolve_backend("spe")  # real SPEs are not available here
    with pytest.raises(ValueError, match="unknown engine backend"):
        resolve_backend("einsum:lots")


# -- retired backend names ----------------------------------------------------


@pytest.mark.parametrize("spec", RETIRED_SPECS)
def test_retired_backend_is_refused_by_name(instance, spec):
    patterns, tree = instance
    name = spec.partition(":")[0]
    assert name in RETIRED_BACKENDS
    with pytest.raises(RetiredBackendError, match=f"'{name}'"):
        resolve_backend(spec)
    with pytest.raises(RetiredBackendError, match=f"'{name}'"):
        create_engine(patterns, MODEL, None, tree, backend=spec)
    assert not tree._observers  # nothing was attached


@pytest.mark.parametrize("spec", RETIRED_SPECS)
def test_retired_backend_is_refused_from_the_environment(
        instance, monkeypatch, spec):
    patterns, tree = instance
    monkeypatch.setenv(BACKEND_ENV_VAR, spec)
    with pytest.raises(RetiredBackendError,
                       match=f"{BACKEND_ENV_VAR}=.*'{spec.partition(':')[0]}'"):
        create_engine(patterns, MODEL, None, tree)


@pytest.mark.parametrize("argv", [
    ["verify", "--fuzz", "1"],
    ["chaos", "--mode", "engine", "--seeds", "1"],
])
@pytest.mark.parametrize("spec", ["partitioned:2", "compiled"])
@pytest.mark.parametrize("via", ["flag", "env"])
def test_retired_backend_is_refused_by_the_cli(argv, spec, via, capsys,
                                               monkeypatch):
    if via == "flag":
        argv = argv + ["--backend", spec]
    else:
        monkeypatch.setenv(BACKEND_ENV_VAR, spec)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"'{spec.partition(':')[0]}' engine backend was removed" in err


def test_env_override_selects_backend(instance, monkeypatch):
    patterns, tree = instance
    monkeypatch.setenv(BACKEND_ENV_VAR, "reference")
    engine = create_engine(patterns, MODEL, None, tree)
    try:
        assert engine.backend.name == "reference"
    finally:
        engine.detach()
    # An explicit backend= wins over the environment.
    engine = create_engine(patterns, MODEL, None, tree, backend="einsum")
    try:
        assert engine.backend.name == "einsum"
    finally:
        engine.detach()


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
