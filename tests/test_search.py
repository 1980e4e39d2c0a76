"""Branch-and-bound searches against flat exhaustive oracles, plus mode
semantics, determinism, and parallel agreement."""

import functools
import gc
import itertools

import pytest

from collinea.algebra import RingSpec, field_make
from collinea.collinear import (
    PermGraph,
    closed_form_minimizer,
    count_triples,
    count_triples_plane,
    fractional_perm,
    FracParams,
    recognize_fractional,
    transversal_from_bijection,
)
from collinea.errors import ClassesNotDistinct, NodeLimitExceeded
from collinea.fixtures import load_fixture
from collinea.plane import affine_plane
from collinea.search import (
    MODES,
    SearchConfig,
    _pool_size,
    _prefixes,
    enumerate_minimizers,
    lex_least_minimizer,
    min_triples_field,
    min_triples_plane,
    min_triples_zn,
    outcome_to_json,
    resolve_threads,
)


def test_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(mode="simulated_annealing")
    with pytest.raises(ValueError):
        SearchConfig(parallel_depth=-1)
    with pytest.raises(ValueError):
        SearchConfig(mode="first_below")  # no bound


def test_field_psi_small():
    assert min_triples_field(field_make(3)).psi == 1
    out5 = min_triples_field(field_make(5))
    assert out5.psi == 2
    assert out5.witnesses == ((0, 1, 2, 4, 3),)
    out7 = min_triples_field(field_make(7))
    assert out7.psi == 3
    assert out7.witnesses[0] == closed_form_minimizer(field_make(7)).images


@pytest.mark.parametrize("q", [3, 4, 5, 7])
def test_field_matches_flat_exhaustive(q):
    f = field_make(q)
    flat = min(
        count_triples(PermGraph(f, p)) for p in itertools.permutations(range(q))
    )
    assert min_triples_field(f).psi == flat


@pytest.mark.parametrize("n", [3, 5, 6, 7])
def test_zn_matches_flat_exhaustive(n):
    ctx = RingSpec(n)
    flat = min(
        count_triples(PermGraph(ctx, p)) for p in itertools.permutations(range(n))
    )
    assert min_triples_zn(n).psi == flat


def test_zn8_matches_translation_reduced_exhaustive():
    # adding a constant to every image leaves the determinant unchanged, so
    # scanning only sigma(0) = 0 still meets the true minimum
    ctx = RingSpec(8)
    flat = min(
        count_triples(PermGraph(ctx, (0,) + p))
        for p in itertools.permutations(range(1, 8))
    )
    assert min_triples_zn(8).psi == flat


def test_zn_examples():
    assert min_triples_zn(3).psi == 1
    out4 = min_triples_zn(4)
    assert out4.psi == 0
    assert out4.witnesses == ((0, 1, 3, 2),)
    with pytest.raises(ValueError):
        min_triples_zn(2)


def test_witnesses_recount_externally():
    out = min_triples_field(field_make(5), SearchConfig(mode="enumerate_all_min"))
    f5 = field_make(5)
    for w in out.witnesses:
        assert count_triples(PermGraph(f5, w)) == out.psi


def test_enumerate_q3_gives_all_six():
    ws = enumerate_minimizers(field_make(3))
    assert len(ws) == 6
    assert sorted(w.images for w in ws) == sorted(itertools.permutations(range(3)))


def test_enumerate_q5_all_recognized():
    f5 = field_make(5)
    ws = enumerate_minimizers(f5)
    assert all(recognize_fractional(w) is not None for w in ws)
    # distinct fractional permutations with the minimum count
    family = set()
    for a, b, g in itertools.product(range(5), repeat=3):
        if f5.mul(a, g) != b:
            family.add(fractional_perm(f5, FracParams(a, b, g)).images)
    assert len(ws) == len(family) == 100
    assert [w.images for w in ws] == sorted(w.images for w in ws)


def test_lex_least_is_least_of_enumeration():
    f5 = field_make(5)
    least = lex_least_minimizer(f5)
    ws = enumerate_minimizers(f5)
    assert least.images == min(w.images for w in ws)
    assert least.images == closed_form_minimizer(f5).images


def test_min_value_witness_equals_lex_least():
    f7 = field_make(7)
    a = min_triples_field(f7, SearchConfig(mode="min_value"))
    b = min_triples_field(f7, SearchConfig(mode="lex_least"))
    assert a.psi == b.psi
    assert a.witnesses == b.witnesses
    za = min_triples_zn(6, SearchConfig(mode="min_value"))
    zb = min_triples_zn(6, SearchConfig(mode="lex_least"))
    assert za.witnesses == zb.witnesses


def test_first_below_semantics():
    f5 = field_make(5)
    out = min_triples_field(f5, SearchConfig(mode="first_below", bound=3))
    assert out.psi == 2
    assert out.witnesses == ((0, 1, 2, 4, 3),)  # counts below 3 are minimizers
    none = min_triples_field(f5, SearchConfig(mode="first_below", bound=1))
    assert none.psi is None and none.witnesses == ()


def test_node_limit():
    with pytest.raises(NodeLimitExceeded):
        min_triples_field(field_make(7), SearchConfig(node_limit=100))


def test_seeded_incumbent_matches():
    f5 = field_make(5)
    out = min_triples_field(f5, SearchConfig(upper_bound_seed=2))
    assert out.psi == 2
    assert out.witnesses == ((0, 1, 2, 4, 3),)


@functools.lru_cache(maxsize=None)
def _brute(kind, n):
    """Every permutation of the domain with its triple count, in lex order."""
    ctx = field_make(n) if kind == "field" else RingSpec(n)
    return [(p, count_triples(PermGraph(ctx, p))) for p in itertools.permutations(range(n))]


def _search(kind, n, cfg):
    if kind == "field":
        return min_triples_field(field_make(n), cfg)
    if kind == "zn":
        return min_triples_zn(n, cfg)
    return min_triples_plane(load_fixture(n), 0, 1, cfg)


@pytest.mark.parametrize(
    "kind, n", [("field", q) for q in (2, 3, 4, 5, 7)] + [("zn", n) for n in range(3, 9)])
def test_quotient_search_matches_brute_force(kind, n):
    # the search runs under (0, 1), or (0, g) for divisors g of n, and must
    # still agree with a scan of every permutation in every mode
    rows = _brute(kind, n)
    psi = min(c for _, c in rows)
    minimizers = tuple(p for p, c in rows if c == psi)
    for mode in ("min_value", "lex_least"):
        out = _search(kind, n, SearchConfig(mode=mode))
        assert (out.psi, out.witnesses) == (psi, minimizers[:1])
    out = _search(kind, n, SearchConfig(mode="enumerate_all_min"))
    assert (out.psi, out.witnesses) == (psi, minimizers)
    for bound in (psi + 1, psi + 2):
        first, count = next((p, c) for p, c in rows if c < bound)
        out = _search(kind, n, SearchConfig(mode="first_below", bound=bound))
        assert (out.psi, out.witnesses) == (count, (first,))


@pytest.mark.parametrize("q", [5, 7, 9])
def test_enumeration_has_q2_q_minus_1_minimizers(q):
    out = min_triples_field(field_make(q), SearchConfig(mode="enumerate_all_min"))
    assert len(out.witnesses) == q * q * (q - 1)
    assert list(out.witnesses) == sorted(set(out.witnesses))


def test_seed_below_the_minimum_is_rejected():
    for kind, n, psi in (("field", 7, 3), ("zn", 9, 5), ("plane", "ag_2_9", 4)):
        for mode in ("min_value", "lex_least", "enumerate_all_min"):
            with pytest.raises(ValueError, match="below the minimum"):
                _search(kind, n, SearchConfig(mode=mode, upper_bound_seed=psi - 1))


@pytest.mark.parametrize("kind, n, mode, nodes", [
    ("field", 9, "min_value", 4257),
    ("field", 9, "enumerate_all_min", 5953),
    ("zn", 9, "min_value", 15246),
    ("zn", 9, "enumerate_all_min", 18676),
])
def test_sequential_node_counts(kind, n, mode, nodes):
    # one pass over the tree: a second (collect) pass would add thousands
    assert _search(kind, n, SearchConfig(mode=mode)).nodes_expanded == nodes


@pytest.mark.parametrize("kind, n", [("field", 7), ("zn", 8)])
def test_searches_leave_no_reference_cycles(kind, n):
    """The recursive kernels are closures over their own name; unless they
    drop it, every search's state waits for the cyclic collector."""
    _search(kind, n, SearchConfig())
    gc.collect()
    gc.disable()
    try:
        for mode in ("min_value", "enumerate_all_min"):
            _search(kind, n, SearchConfig(mode=mode))
        assert gc.collect() == 0
    finally:
        gc.enable()


# in the Z_n cases a parallel wave holds tasks whose own minimum lies above
# the best an earlier task of the same wave found; the merge must drop them
@pytest.mark.parametrize("kind, n", [("field", 7), ("zn", 8), ("zn", 10), ("plane", "ag_2_9")])
def test_parallel_equals_sequential_every_mode(kind, n):
    for mode in MODES:
        bound = 5 if mode == "first_below" else None
        seq = _search(kind, n, SearchConfig(mode=mode, bound=bound))
        for threads, depth in itertools.product((1, 2), (1, 2)):
            par = _search(kind, n, SearchConfig(mode=mode, bound=bound,
                                                parallel_depth=depth, threads=threads))
            assert (par.psi, par.witnesses) == (seq.psi, seq.witnesses), (mode, threads, depth)


def test_prefix_tasks_split_below_the_roots():
    assert _prefixes(5, [(0, 1)], 1) == [(0, 1, 2), (0, 1, 3), (0, 1, 4)]
    assert _prefixes(4, [(0, 1), (0, 2)], 2) == [
        (0, 1, 2, 3), (0, 1, 3, 2), (0, 2, 1, 3), (0, 2, 3, 1)]
    assert _prefixes(3, [()], 1) == [(0,), (1,), (2,)]
    assert _prefixes(3, [(0, 1)], 0) == [(0, 1)]


def test_resolve_threads(monkeypatch):
    monkeypatch.delenv("COLLINEA_THREADS", raising=False)
    assert resolve_threads(None) is None
    assert resolve_threads(3) == 3
    monkeypatch.setenv("COLLINEA_THREADS", "4")
    assert resolve_threads(None) == 4
    assert resolve_threads(2) == 2
    for bad in ("two", "0", "-3", "1.5"):
        monkeypatch.setenv("COLLINEA_THREADS", bad)
        with pytest.raises(ValueError):
            resolve_threads(None)
    for bad in (0, -1, 2.5, "2", True):
        with pytest.raises(ValueError):
            resolve_threads(bad)
        with pytest.raises(ValueError):
            SearchConfig(threads=bad)


def test_pool_size_is_clamped():
    # huge requests are checked through the clamp alone: no process is started
    assert _pool_size(10**6, 10**6, 2) == 2
    assert _pool_size(10**6, 3, 64) == 3
    assert _pool_size(None, 100, 2) == 2
    assert _pool_size(1, 100, 8) == 1


def test_parallel_agrees_with_sequential():
    f7 = field_make(7)
    seq = min_triples_field(f7, SearchConfig(mode="enumerate_all_min"))
    par = min_triples_field(
        f7, SearchConfig(mode="enumerate_all_min", parallel_depth=2, threads=2)
    )
    assert par.psi == seq.psi
    assert par.witnesses == seq.witnesses


def test_parallel_zn_and_plane_agree():
    seq = min_triples_zn(6, SearchConfig(mode="min_value"))
    par = min_triples_zn(6, SearchConfig(mode="min_value", parallel_depth=2, threads=2))
    assert (par.psi, par.witnesses) == (seq.psi, seq.witnesses)
    pl = affine_plane(field_make(5))
    seqp = min_triples_plane(pl, 5, 0)
    parp = min_triples_plane(pl, 5, 0, SearchConfig(parallel_depth=1, threads=2))
    assert (parp.psi, parp.witnesses) == (seqp.psi, seqp.witnesses)


def test_plane_search_matches_field():
    pl = affine_plane(field_make(5))
    out = min_triples_plane(pl, 5, 0)
    assert out.psi == 2
    gp = transversal_from_bijection(pl, 5, 0, out.witnesses[0])
    assert count_triples_plane(gp) == 2
    assert min_triples_plane(affine_plane(field_make(3)), 3, 0).psi == 1


def test_plane_search_any_class_pair():
    pl = affine_plane(field_make(3))
    vals = {
        (h, v): min_triples_plane(pl, h, v).psi
        for h in range(4)
        for v in range(4)
        if h != v
    }
    assert set(vals.values()) == {1}
    with pytest.raises(ClassesNotDistinct):
        min_triples_plane(pl, 2, 2)
    with pytest.raises(ValueError):
        min_triples_plane(pl, 0, 9)


def test_outcome_json_shape():
    out = min_triples_field(field_make(5))
    j = outcome_to_json(out)
    assert j["psi"] == 2
    assert j["witnesses"] == [[0, 1, 2, 4, 3]]
    assert j["config"]["mode"] == "min_value"
    assert set(j) == {"psi", "witnesses", "nodes_expanded", "prunes", "elapsed", "config"}
