"""Branch-and-bound searches against flat exhaustive oracles, plus mode
semantics, determinism, and parallel agreement."""

import functools
import gc
import hashlib
import itertools
import json
import multiprocessing
import os
import pickle
import random
from dataclasses import replace
from math import comb, gcd

import pytest

from collinea import search
from collinea.algebra import RingSpec, field_make
from collinea.collinear import (
    PermGraph,
    closed_form_minimizer,
    count_triples,
    fractional_perm,
    FracParams,
    is_collinear,
    recognize_fractional,
    transversal_from_bijection,
)
from collinea.errors import ClassesNotDistinct, NodeLimitExceeded
from collinea.fixtures import AFFINE_FIXTURES, load_fixture
from collinea.plane import affine_plane, grid_lines, plane_grid
from collinea.search import (
    MODES,
    SearchConfig,
    _grid_groups,
    _line_pairs,
    _plane_recount,
    _prefixes,
    _run_shares,
    _symmetry,
    _zn_pairs,
    min_triples_field,
    min_triples_plane,
    min_triples_zn,
)


def test_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(mode="simulated_annealing")
    with pytest.raises(ValueError):
        SearchConfig(parallel_depth=-1)
    with pytest.raises(ValueError):
        SearchConfig(mode="first_below")  # no bound
    for bad in (-1, 2.5, "3", True):
        for name in ("bound", "parallel_depth", "node_limit", "upper_bound_seed"):
            with pytest.raises(ValueError, match=f"{name} must be a non-negative integer"):
                SearchConfig(**{name: bad})
        with pytest.raises(ValueError, match="non-negative integer"):
            SearchConfig(mode="first_below", bound=bad)
    for bad in (0, -1, 2.5, "3", True):
        with pytest.raises(ValueError, match="threads must be a positive integer"):
            SearchConfig(threads=bad)
    assert SearchConfig(node_limit=0, upper_bound_seed=0).node_limit == 0
    assert SearchConfig(mode="first_below", bound=0).bound == 0
    assert (SearchConfig().threads, SearchConfig(threads=1).threads) == (None, 1)


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
    ws = min_triples_field(field_make(3), SearchConfig(mode="enumerate_all_min")).witnesses
    assert len(ws) == 6
    assert sorted(ws) == sorted(itertools.permutations(range(3)))


def test_enumerate_q5_all_recognized():
    f5 = field_make(5)
    ws = min_triples_field(f5, SearchConfig(mode="enumerate_all_min")).witnesses
    assert all(recognize_fractional(PermGraph(f5, w)) is not None for w in ws)
    # distinct fractional permutations with the minimum count
    family = set()
    for a, b, g in itertools.product(range(5), repeat=3):
        if f5.mul(a, g) != b:
            family.add(fractional_perm(f5, FracParams(a, b, g)).images)
    assert len(ws) == len(family) == 100
    assert list(ws) == sorted(ws)


def test_lex_least_is_least_of_enumeration():
    f5 = field_make(5)
    least = min_triples_field(f5, SearchConfig(mode="lex_least")).witnesses[0]
    ws = min_triples_field(f5, SearchConfig(mode="enumerate_all_min")).witnesses
    assert least == min(ws)
    assert least == closed_form_minimizer(f5).images


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
    # the limit is exact, sequentially and on the pool: a search that expands
    # N nodes finishes unchanged under node_limit=N and raises under N - 1,
    # naming the configured limit
    for kind, n in (("field", 9), ("zn", 9), ("plane", "ag_2_9")):
        for par in ({}, {"parallel_depth": 2, "threads": 2}):
            free = _search(kind, n, SearchConfig(**par))
            nodes = free.nodes_expanded
            out = _search(kind, n, SearchConfig(node_limit=nodes, **par))
            assert ((out.psi, out.witnesses, out.nodes_expanded, out.prunes)
                    == (free.psi, free.witnesses, nodes, free.prunes))
            with pytest.raises(NodeLimitExceeded, match=f"more than {nodes - 1} nodes"):
                _search(kind, n, SearchConfig(node_limit=nodes - 1, **par))
    # GF(9)'s two shares expand 145 and 101 nodes: neither passes 145, their
    # sum does
    with pytest.raises(NodeLimitExceeded, match="more than 145 nodes"):
        _search("field", 9, SearchConfig(node_limit=145, parallel_depth=2, threads=2))
    # at depth 2 every task of a 3-point domain is a whole permutation, so the
    # pool expands no node and a zero limit is not exceeded
    for kind in ("field", "zn"):
        seq = _search(kind, 3, SearchConfig())
        out = _search(kind, 3, SearchConfig(node_limit=0, parallel_depth=2, threads=2))
        assert (out.psi, out.witnesses, out.nodes_expanded) == (seq.psi, seq.witnesses, 0)


def test_seeded_incumbent_matches():
    f5 = field_make(5)
    out = min_triples_field(f5, SearchConfig(upper_bound_seed=2))
    assert out.psi == 2
    assert out.witnesses == ((0, 1, 2, 4, 3),)


def _ag(q):
    return affine_plane(field_make(q))


@functools.lru_cache(maxsize=None)
def _brute(kind, n):
    """Every permutation of the domain with its triple count, in lex order."""
    if kind == "ag":
        q, h, v = n
        ap = _ag(q)
        return [(p, count_triples(transversal_from_bijection(ap, h, v, p)))
                for p in itertools.permutations(range(q))]
    ctx = field_make(n) if kind == "field" else RingSpec(n)
    return [(p, count_triples(PermGraph(ctx, p))) for p in itertools.permutations(range(n))]


def _search(kind, n, cfg):
    if kind == "field":
        return min_triples_field(field_make(n), cfg)
    if kind == "zn":
        return min_triples_zn(n, cfg)
    if kind == "ag":
        q, h, v = n
        return min_triples_plane(_ag(q), h, v, cfg)
    return min_triples_plane(load_fixture(n), 0, 1, cfg)


@pytest.mark.parametrize(
    "kind, n", [("field", q) for q in (2, 3, 4, 5, 7)] + [("zn", n) for n in range(3, 9)]
    + [("ag", (q, h, v)) for q in (3, 4, 5) for h, v in ((q, 0), (2, 1))],
    ids=lambda n: "-".join(map(str, n)) if isinstance(n, tuple) else None)
def test_quotient_search_matches_brute_force(kind, n):
    # the search runs only under the orbit-least 2-prefixes of its column
    # group and must still agree with a scan of every permutation in every mode
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


def _lines_of(ap, h, v):
    """The lines a plane search walks: each line of grid_lines, class after
    class, as its row -> column permutation of the (h, v) grid."""
    return [perm for perms in grid_lines(ap, h, v) for perm in perms]


def _group_of(ap, h, v):
    return _grid_groups(_lines_of(ap, h, v))[1]


def _moves_lines_to_lines(ap, h, v, beta, alpha=None):
    """Whether (i, j) -> (alpha[i], beta[j]) maps every line outside the
    classes h and v onto a line, checked on raw point sets; alpha defaults to
    the identity."""
    grid = plane_grid(ap, h, v)
    alpha = alpha or range(len(grid))
    cell = {p: (i, j) for i, row in enumerate(grid) for j, p in enumerate(row)}
    lines = {frozenset(ln) for ln in ap.lines}
    skip = set(ap.parallel_classes[h]) | set(ap.parallel_classes[v])
    return all(frozenset(grid[alpha[cell[p][0]]][beta[cell[p][1]]] for p in ln) in lines
               for li, ln in enumerate(ap.lines) if li not in skip)


def _rows_move_lines_to_lines(ap, h, v, alpha):
    """The row twin: whether (i, j) -> (alpha[i], j) maps every line outside
    the classes h and v onto a line."""
    return _moves_lines_to_lines(ap, h, v, range(ap.order), alpha)


def _inverse(perm):
    return tuple(sorted(range(len(perm)), key=perm.__getitem__))


@pytest.mark.parametrize("q", [3, 4, 5])
def test_column_group_matches_brute_force(q, monkeypatch):
    # and the row maps a plane search hands _symmetry, as alpha^-1, are every
    # alpha for which (i, j) -> (alpha(i), j) maps lines to lines
    ap = _ag(q)
    for h, v in itertools.permutations(range(q + 1), 2):
        brute = [b for b in itertools.permutations(range(q)) if _moves_lines_to_lines(ap, h, v, b)]
        group = _group_of(ap, h, v)
        assert sorted(group) == brute, (h, v)
        assert len(group) == q * (q - 1)
        rows, _ = _symmetries("ag", (q, h, v), monkeypatch)
        brute = [a for a in itertools.permutations(range(q))
                 if _rows_move_lines_to_lines(ap, h, v, a)]
        assert sorted(rows) == sorted(map(_inverse, brute)), (h, v)
        assert len(rows) == q * (q - 1)


# |G| and root count at the pinned classes (0, 1)
ORDER9_GROUPS = {
    "ag_2_9": (72, 1),
    "hall_translation_deleted": (9, 8),
    "hall_nontranslation_deleted": (8, 9),
    "dual_hall_special_deleted": (1, 72),
    "dual_hall_generic_deleted": (8, 9),
    "hughes_real_deleted": (6, 12),
    "hughes_generic_deleted": (2, 36),
}


# |R|, the order of the row group, at the pinned classes (0, 1)
ORDER9_ROW_GROUPS = {
    "ag_2_9": 72,
    "hall_translation_deleted": 9,
    "hall_nontranslation_deleted": 2,
    "dual_hall_special_deleted": 1,
    "dual_hall_generic_deleted": 8,
    "hughes_real_deleted": 6,
    "hughes_generic_deleted": 1,
}


def _roots(group):
    """The roots _symmetry reads off its tables."""
    return _symmetry([], group)[3]


def _marked_roots(size, group):
    """The orbit-least 2-prefixes under group, in ascending order, by
    marking orbits: walking the prefixes in lex order, each one not yet
    marked starts a new orbit."""
    seen = set()
    roots = []
    for a, b in itertools.permutations(range(size), 2):
        if (a, b) not in seen:
            roots.append((a, b))
            seen.update((beta[a], beta[b]) for beta in group)
    return roots


@pytest.mark.parametrize("name", AFFINE_FIXTURES)
def test_order9_column_groups(name, monkeypatch):
    # and the row group, as the rows a plane search hands _symmetry
    ap = load_fixture(name)
    group = _group_of(ap, 0, 1)
    assert (len(group), len(_roots(group))) == ORDER9_GROUPS[name]
    rows, _ = _symmetries("plane", name, monkeypatch)
    assert len(rows) == ORDER9_ROW_GROUPS[name]
    assert all(_moves_lines_to_lines(ap, 0, 1, b) for b in group)
    assert all(_rows_move_lines_to_lines(ap, 0, 1, _inverse(inv)) for inv in rows)
    for maps in (group, rows):
        members = set(maps)
        assert len(members) == len(maps)
        assert all(tuple(a[j] for j in b) in members for a in maps for b in maps)


# SHA-256 of json {name: [[h, v, |G|, |R|] for each ordered class pair]}, as
# the column groups of each grid's lines and of its inverse lines gave them
ORDER9_GRID_GROUPS_SHA256 = "7da9209fa0922b5c9a1d65731e7945421c91ee97c444bc426c3f6f12f6dad3d5"


def test_order9_groups_of_every_grid():
    # transposing the (h, v) grid into the (v, h) grid turns its row maps
    # into column maps, so each grid's row pass is checked against the
    # column pass of its transpose
    counts = {}
    for name in AFFINE_FIXTURES:
        ap = load_fixture(name)
        groups = {(h, v): _grid_groups(_lines_of(ap, h, v))
                  for h, v in itertools.permutations(range(10), 2)}
        for (h, v), (rows, group) in groups.items():
            assert set(rows) == set(groups[v, h][1]), (name, h, v)
        counts[name] = [[h, v, len(group), len(rows)] for (h, v), (rows, group) in groups.items()]
    blob = json.dumps(counts, sort_keys=True, separators=(",", ":")).encode()
    assert hashlib.sha256(blob).hexdigest() == ORDER9_GRID_GROUPS_SHA256


def test_roots_are_orbit_least_prefixes():
    f = field_make(7)
    assert _roots([tuple(f.add(f.mul(c, y), d) for y in range(7))
                   for c in range(1, 7) for d in range(7)]) == [(0, 1)]
    units = [c for c in range(1, 12) if gcd(c, 12) == 1]
    z12 = [tuple((c * y + d) % 12 for y in range(12)) for c in units for d in range(12)]
    assert _roots(z12) == [(0, 1), (0, 2), (0, 3), (0, 4), (0, 6)]
    identity = [tuple(range(3))]
    assert _roots(identity) == list(itertools.permutations(range(3), 2))
    # the roots read off the tables are those an orbit marking finds
    groups = [_group_of(_ag(q), h, v)
              for q in (3, 4, 5) for h, v in itertools.permutations(range(q + 1), 2)]
    for n in range(3, 13):
        units = [c for c in range(1, n) if gcd(c, n) == 1]
        groups.append([tuple((c * y + d) % n for y in range(n)) for c in units for d in range(n)])
    for name in AFFINE_FIXTURES:
        groups.append(_group_of(load_fixture(name), 0, 1))
    for group in groups:
        assert _roots(group) == _marked_roots(len(group[0]), group), group[:2]


# SHA-256 of json [psi, witnesses] at classes (0, 1) in each mode of MODES
# (first_below at bound 6), as the unreduced plane search returned them
PLANE_OUTPUT_SHA256 = {
    "ag_2_9": (
        "e4bb0a679261bb6127d95867c235b38337dd080648bb14917fc15fb04c62a44d",
        "ec35bf3ffb928d79d2cc1b767645ba05a3e5382bddea642a5eae7d09014bbf8e",
        "e4bb0a679261bb6127d95867c235b38337dd080648bb14917fc15fb04c62a44d",
        "e4bb0a679261bb6127d95867c235b38337dd080648bb14917fc15fb04c62a44d",
    ),
    "hall_translation_deleted": (
        "3476e148a193e967b38cdf8362df43996c8b95e651173357662a75ca3cb0fb33",
        "30fdd67039e7d13c79986db502f90c9c24136b5b1bb7e9324ffc41b1df835dc1",
        "3476e148a193e967b38cdf8362df43996c8b95e651173357662a75ca3cb0fb33",
        "3476e148a193e967b38cdf8362df43996c8b95e651173357662a75ca3cb0fb33",
    ),
    "hall_nontranslation_deleted": (
        "0b07ba776153624d6a3fe5ddfe8de29d73b41a2c238587808612b929e0e6e1ab",
        "5f1bf6dd78227556ce2e9103b15ef9f1451bc79b710e4afc4661a74148bf48b3",
        "0b07ba776153624d6a3fe5ddfe8de29d73b41a2c238587808612b929e0e6e1ab",
        "d91426a897b3aa00467110b5239f36af99efe7cad748ef5bd8dfd8a9173dca28",
    ),
    "dual_hall_special_deleted": (
        "7fb03be0e30245fefddebd18eae596f32ec3dadce4770cc651379dcdeb1c8e84",
        "d3ce1f3b3aa683b1699a089c30ebbda65da324bdee40aa475a105228a7f2f1d9",
        "7fb03be0e30245fefddebd18eae596f32ec3dadce4770cc651379dcdeb1c8e84",
        "7fb03be0e30245fefddebd18eae596f32ec3dadce4770cc651379dcdeb1c8e84",
    ),
    "dual_hall_generic_deleted": (
        "727bf8ae9c60bda3b99dceef82f060729a3d050b5faa876f716a04b825831254",
        "571cd9efa6a089fe5bcfdd60a451564080f7f574abe9b350225b102082678268",
        "727bf8ae9c60bda3b99dceef82f060729a3d050b5faa876f716a04b825831254",
        "22edc75da554e82c9c6a4ad283be8615721fc66b3d80f09e89b407bb0b087f4d",
    ),
    "hughes_real_deleted": (
        "aa6336133776f8882242b313375c0d15b36b353af9805102c2a78e62180e1835",
        "692bc61eeef17879686578f6e1e7225f25462cda98d1912bb701b7ed8211a823",
        "aa6336133776f8882242b313375c0d15b36b353af9805102c2a78e62180e1835",
        "aa6336133776f8882242b313375c0d15b36b353af9805102c2a78e62180e1835",
    ),
    "hughes_generic_deleted": (
        "2edafc4137b32f31da0600020bdaa18cd22d24f32d69b3ecf71bf0fdd1ec1aae",
        "542e63e1cdc8578beab388b42b011739e3e456b24153298b60ecc33b781e2498",
        "2edafc4137b32f31da0600020bdaa18cd22d24f32d69b3ecf71bf0fdd1ec1aae",
        "658890b89ed1f7728b64faaccc3d3f3ddb4b21c4760533bad294c88f7d52732f",
    ),
}


@pytest.mark.parametrize("name", AFFINE_FIXTURES)
def test_plane_outputs_match_unreduced_search(name):
    ap = load_fixture(name)
    for mode, want in zip(MODES, PLANE_OUTPUT_SHA256[name]):
        bound = 6 if mode == "first_below" else None
        out = min_triples_plane(ap, 0, 1, SearchConfig(mode=mode, bound=bound))
        got = json.dumps([out.psi, [list(w) for w in out.witnesses]])
        assert hashlib.sha256(got.encode()).hexdigest() == want, mode


def _field_incidence(q):
    """The lines y = s*x + b, s nonzero, of GF(q) as row -> column maps, and
    collinearity of three cells (row, column) by the determinant."""
    f = field_make(q)
    lines = [tuple(f.add(f.mul(s, x), b) for x in range(q)) for s in range(1, q) for b in range(q)]
    return lines, lambda *cells: is_collinear(f, *cells)


def _plane_incidence(ap, h, v):
    """The lines a plane search walks, and collinearity of three cells of the
    (h, v) grid checked on the raw point sets of ap.lines."""
    grid = plane_grid(ap, h, v)
    point_sets = [set(ln) for ln in ap.lines]

    def collinear(*cells):
        points = {grid[i][j] for i, j in cells}
        return any(points <= ln for ln in point_sets)

    return _lines_of(ap, h, v), collinear


def _transversal_count(ap, h, v):
    """The triple count of a transversal of the (h, v) grid from the raw
    point sets of ap.lines: C(m, 3) over the lines holding m of its points
    (a line of class h or v holds one)."""
    grid = plane_grid(ap, h, v)
    point_sets = [set(ln) for ln in ap.lines]

    def count(w):
        points = {grid[i][j] for i, j in enumerate(w)}
        return sum(comb(len(points & ln), 3) for ln in point_sets)

    return count


@pytest.mark.parametrize("kind, n", [("field", q) for q in (3, 4, 5, 7, 8, 9)]
                         + [("ag", q) for q in (3, 4, 5)]
                         + [("plane", "hall_translation_deleted")])
def test_line_pair_table_lists_the_collinear_later_cells(kind, n):
    if kind == "field":
        lines, collinear = _field_incidence(n)
    elif kind == "ag":
        lines, collinear = _plane_incidence(_ag(n), n, 0)
    else:
        lines, collinear = _plane_incidence(load_fixture(n), 0, 1)
    q = len(lines[0])
    pairs = _line_pairs(q, lines)
    assert len(pairs) == q * q
    for j, yj in itertools.product(range(q), repeat=2):
        row = pairs[j * q + yj]
        assert len(row) == j * q
        for i, yi in itertools.product(range(j), range(q)):
            if yi == yj:
                assert row[i * q + yi] == ()  # no permutation holds both cells
                continue
            want = [d * q + y for d in range(j + 1, q) for y in range(q)
                    if collinear((i, yi), (j, yj), (d, y))]
            assert sorted(row[i * q + yi]) == want, (i, yi, j, yj)


@pytest.mark.parametrize("n", range(3, 11))
def test_zn_pair_table_lists_the_collinear_later_cells(n):
    pairs = _zn_pairs(n)
    assert len(pairs) == n * n
    for j, yj in itertools.product(range(n), repeat=2):
        row = pairs[j * n + yj]
        assert len(row) == j * n
        for i, yi in itertools.product(range(j), range(n)):
            if yi == yj:
                continue
            want = [d * n + y for d in range(j + 1, n) for y in range(n)
                    if (i * (yj - y) + j * (y - yi) + d * (yi - yj)) % n == 0]
            assert sorted(row[i * n + yi]) == want, (i, yi, j, yj)


# SHA-256 of json [psi, witnesses] by (n, mode, first_below bound), as the
# search returned them before the Z_n look-ahead bound; psi is 5, 2, 5 and 0
# at n = 9..12, so first_below at psi finds nothing and at psi + 1 the minimizer
_MIN9 = "d67987988d856e5717dcf68e51990a34a90081ddb19de534a7b5437d9b64e26d"
_MIN10 = "9811fc2a93498390097258415048d5ad6321bca268b486c70afb3ef9664bacf3"
_NONE = "b7f343d070bfc0ca75b9e2fb05594f930e2f6909b96c4065293d4c61fade39f9"
_MIN11 = "9955b8dbf470e6f2a08edfa12678e7197868f74ff213d71e23df6e7efbb63fd8"
_MIN12 = "5994d0aa488b8f7eeba1c183525fcc93668fceaf9a45768a4b304843185c98ea"
ZN_OUTPUT_SHA256 = {
    (9, "min_value", None): _MIN9,
    (9, "enumerate_all_min", None):
        "0ae9757fa854fd9cf51b75cd99d199007eaa96e9008bec0f896051a38e8ea9ae",
    (9, "lex_least", None): _MIN9,
    (9, "first_below", 5): _NONE,
    (9, "first_below", 6): _MIN9,
    (10, "min_value", None): _MIN10,
    (10, "enumerate_all_min", None):
        "5719cca67385ff7bb36c0b6185e55d55143e1cb53f7e21ea45a08a3523f5315e",
    (10, "lex_least", None): _MIN10,
    (10, "first_below", 2): _NONE,
    (10, "first_below", 3): _MIN10,
    (11, "min_value", None): _MIN11,
    (11, "lex_least", None): _MIN11,
    (12, "min_value", None): _MIN12,
    (12, "lex_least", None): _MIN12,
}


@pytest.mark.parametrize("n, mode, bound", list(ZN_OUTPUT_SHA256))
def test_zn_outputs_are_pinned(n, mode, bound):
    out = min_triples_zn(n, SearchConfig(mode=mode, bound=bound))
    got = json.dumps([out.psi, [list(w) for w in out.witnesses]])
    assert hashlib.sha256(got.encode()).hexdigest() == ZN_OUTPUT_SHA256[n, mode, bound]


# SHA-256 of json [psi, witnesses] by (q, mode, first_below bound), as the
# field search returned them before its look-ahead bound; psi is 3, 0, 4
# and 5 at q = 7, 8, 9, 11.  GF(9) agrees with ag_2_9 at classes
# (0, 1) and GF(11) with Z_11
_FMIN7 = "02017afcaf566514c1d1e9b782bb7c91c90d909dde767db13dc614c3a4be9b91"
_FMIN8 = "3936840ebd9aa4b78f81c944f54ff923cd86b9d2022a31bf2ef613214f062f21"
_FMIN9 = "e4bb0a679261bb6127d95867c235b38337dd080648bb14917fc15fb04c62a44d"
FIELD_OUTPUT_SHA256 = {
    (7, "min_value", None): _FMIN7,
    (7, "enumerate_all_min", None):
        "3a68cebf5f67daadeab50ef59221d5445767eb2a2eb67c75a84230d26c877230",
    (7, "lex_least", None): _FMIN7,
    (7, "first_below", 3): _NONE,
    (7, "first_below", 4): _FMIN7,
    (8, "min_value", None): _FMIN8,
    (8, "enumerate_all_min", None):
        "933294bf228d18c5d3edbbf2904f2dfe625db52d06f8feeb509c138b33f75e64",
    (8, "lex_least", None): _FMIN8,
    (8, "first_below", 0): _NONE,
    (8, "first_below", 1): _FMIN8,
    (9, "min_value", None): _FMIN9,
    (9, "enumerate_all_min", None):
        "ec35bf3ffb928d79d2cc1b767645ba05a3e5382bddea642a5eae7d09014bbf8e",
    (9, "lex_least", None): _FMIN9,
    (9, "first_below", 4): _NONE,
    (9, "first_below", 5): _FMIN9,
    (11, "min_value", None): _MIN11,
    (11, "lex_least", None): _MIN11,
}


@pytest.mark.parametrize("q, mode, bound", list(FIELD_OUTPUT_SHA256))
def test_field_outputs_are_pinned(q, mode, bound):
    out = min_triples_field(field_make(q), SearchConfig(mode=mode, bound=bound))
    got = json.dumps([out.psi, [list(w) for w in out.witnesses]])
    assert hashlib.sha256(got.encode()).hexdigest() == FIELD_OUTPUT_SHA256[q, mode, bound]


@pytest.mark.parametrize("q", [5, 7, 9, 11])
def test_enumeration_has_q2_q_minus_1_minimizers(q):
    out = min_triples_field(field_make(q), SearchConfig(mode="enumerate_all_min"))
    assert len(out.witnesses) == q * q * (q - 1)
    assert list(out.witnesses) == sorted(set(out.witnesses))


# -- the row maps ------------------------------------------------------------
# Every domain also searches modulo its row maps, x -> u*x + b over fields
# and Z_n and the row group of the grid over a plane: the kernel prunes a
# prefix that some row map, with its best column map, takes lex-below itself,
# which never prunes the lex-least member of an orbit.


def _column_only(monkeypatch):
    # the builder handed the identity as the one row map
    real = search._symmetry
    monkeypatch.setattr(search, "_symmetry",
                        lambda rows, group: real([tuple(range(len(group[0])))], group))


def _outcomes(kind, n, par=None):
    """(mode, bound) -> (psi, witnesses, nodes) in every mode, first_below at
    psi (a proof that nothing is lower), psi + 1 and psi + 3."""
    par = par or {}
    got = {}
    for mode in ("min_value", "lex_least", "enumerate_all_min"):
        out = _search(kind, n, SearchConfig(mode=mode, **par))
        got[mode, None] = (out.psi, out.witnesses, out.nodes_expanded)
    psi = got["min_value", None][0]
    for bound in (psi, psi + 1, psi + 3):
        out = _search(kind, n, SearchConfig(mode="first_below", bound=bound, **par))
        got["first_below", bound] = (out.psi, out.witnesses, out.nodes_expanded)
    return got


@pytest.mark.parametrize(
    "kind, n", [("field", q) for q in (3, 4, 5, 7, 8, 9, 11)] + [("zn", n) for n in range(3, 13)]
    + [("ag", (q, h, v)) for q in (3, 4, 5) for h, v in ((0, 1), (q, 2))]
    + [("plane", "hughes_real_deleted")],
    ids=lambda n: "-".join(map(str, n)) if isinstance(n, tuple) else None)
def test_row_maps_agree_with_the_column_only_search(kind, n, monkeypatch):
    # the same psi and witnesses as the search modulo the column maps alone,
    # sequentially and at threads 2, depth 2; sequentially never more nodes,
    # since the incumbent reaches each value no later
    fast = _outcomes(kind, n)
    par = _outcomes(kind, n, {"threads": 2, "parallel_depth": 2})
    _column_only(monkeypatch)
    ref = _outcomes(kind, n)
    for key, (psi, witnesses, nodes) in ref.items():
        assert fast[key][:2] == par[key][:2] == (psi, witnesses), key
        assert fast[key][2] <= nodes, key


def test_row_maps_agree_at_q13(monkeypatch):
    fast = min_triples_field(field_make(13))
    _column_only(monkeypatch)
    ref = min_triples_field(field_make(13))
    assert (fast.psi, fast.witnesses) == (ref.psi, ref.witnesses)
    assert (fast.psi, fast.nodes_expanded, ref.nodes_expanded) == (6, 22662, 153833)


class _Handed(Exception):
    pass


def _symmetries(kind, n, monkeypatch):
    """The row maps (as alpha^-1) and column maps a search of kind over n
    hands to _symmetry; the search stops there."""
    real = search._symmetry

    def spy(rows, group):
        raise _Handed(rows, group)

    monkeypatch.setattr(search, "_symmetry", spy)
    with pytest.raises(_Handed) as handed:
        _search(kind, n, SearchConfig())
    monkeypatch.setattr(search, "_symmetry", real)
    return handed.value.args


# the planes with the largest row groups at classes (0, 1)
_PLANES = [("plane", name) for name in ("ag_2_9", "hall_translation_deleted",
                                        "hughes_real_deleted")]


@pytest.mark.parametrize("kind, n", [("field", 5), ("field", 8), ("field", 9),
                                     ("zn", 8), ("zn", 9), ("zn", 12)] + _PLANES)
def test_row_and_column_maps_keep_the_triple_count(kind, n, monkeypatch):
    # every sigma -> beta o sigma o alpha^-1, counted by collinear, or over a
    # plane on the raw point sets
    rows, group = _symmetries(kind, n, monkeypatch)
    assert len(set(rows)) == len(rows)
    if kind == "plane":
        assert (len(rows), len(group)) == (ORDER9_ROW_GROUPS[n], ORDER9_GROUPS[n][0])
        count, size = _transversal_count(load_fixture(n), 0, 1), 9
    else:
        units = n - 1 if kind == "field" else sum(gcd(u, n) == 1 for u in range(1, n))
        assert len(rows) == len(group) == n * units
        ctx = field_make(n) if kind == "field" else RingSpec(n)
        count, size = (lambda w: count_triples(PermGraph(ctx, w))), n
    rng = random.Random(n)
    for _ in range(2):
        w = tuple(rng.sample(range(size), size))
        want = count(w)
        for inv in rows:
            moved = [w[i] for i in inv]
            assert all(count(tuple([beta[y] for y in moved])) == want for beta in group), (w, inv)


@pytest.mark.parametrize("kind, n", [("field", 5), ("field", 7), ("field", 8), ("zn", 6),
                                     ("zn", 8), ("zn", 9)] + _PLANES)
def test_enumeration_keeps_one_minimizer_per_orbit(kind, n, monkeypatch):
    # before the expansion, the kernel has kept the lex-least member of each
    # orbit of minimizers under the row and column maps, and with every row
    # map in its lex-leader check nothing else; under the real filter
    # (_cutting) it may keep more of an orbit, and the expansion of what it
    # kept is still the enumeration
    rows, group = _symmetries(kind, n, monkeypatch)
    kept = []
    real = search._pair_search

    def spy(*args):
        stop = real(*args)
        kept[:] = args[4].witnesses
        return stop

    monkeypatch.setattr(search, "_pair_search", spy)
    for every_row_map in (True, False):
        with monkeypatch.context() as m:
            if every_row_map:
                m.setattr(search, "_cutting", lambda rows, size: rows)
            out = _search(kind, n, SearchConfig(mode="enumerate_all_min"))
        orbits = [{tuple([beta[w[i]] for i in inv]) for inv in rows for beta in group}
                  for w in kept]
        least = [min(orbit) for orbit in orbits]
        if every_row_map:
            assert least == kept
            assert sum(map(len, orbits)) == len(set().union(*orbits))
        else:
            assert set(least) <= set(kept)
        assert set().union(*orbits) == set(out.witnesses)


@pytest.mark.parametrize("kind, n", [("field", 5), ("field", 7), ("field", 9), ("zn", 9),
                                     ("plane", "hall_translation_deleted")])
def test_enumeration_does_not_depend_on_the_kernels_row_maps(kind, n, monkeypatch):
    # the expansion runs over every row map, not over the kernel's subset:
    # with no row map or one in the kernel a field still has q^2 (q - 1)
    # minimizers, and the pinned enumerations stand.  With one map the
    # kernel keeps fewer than with none, so an expansion by the kernel's
    # maps alone would lose minimizers
    if kind == "field":
        pin = FIELD_OUTPUT_SHA256.get((n, "enumerate_all_min", None))
    elif kind == "zn":
        pin = ZN_OUTPUT_SHA256[n, "enumerate_all_min", None]
    else:
        pin = PLANE_OUTPUT_SHA256[n][MODES.index("enumerate_all_min")]
    for keep in (0, 1):
        monkeypatch.setattr(search, "_cutting", lambda rows, size: rows[:keep])
        out = _search(kind, n, SearchConfig(mode="enumerate_all_min"))
        got = json.dumps([out.psi, [list(w) for w in out.witnesses]])
        if kind == "field":
            assert len(out.witnesses) == n * n * (n - 1), keep
        assert pin is None or hashlib.sha256(got.encode()).hexdigest() == pin, keep


def test_seed_below_the_minimum_is_rejected():
    for kind, n, psi in (("field", 7, 3), ("zn", 9, 5), ("plane", "ag_2_9", 4)):
        for mode in ("min_value", "lex_least", "enumerate_all_min"):
            with pytest.raises(ValueError, match="below the minimum"):
                _search(kind, n, SearchConfig(mode=mode, upper_bound_seed=psi - 1))


# nodes and prunes of one sequential search.  With every row map in the
# kernel rather than those that can cut (_cutting) GF(9) took 236 nodes (294
# enumerating), Z_9 579 (858), Z_10 1,552, Z_12 enumerating 20,463 and
# ag_2_9 365 (460); GF(11), Z_11 and hall_translation_deleted's min_value
# did not move, its enumeration 5,208 -> 5,211
NODE_COUNTS = [
    ("field", 9, "min_value", 238, 180),
    ("field", 9, "enumerate_all_min", 297, 220),
    ("field", 11, "min_value", 2337, 1902),
    ("zn", 9, "min_value", 581, 403),
    ("zn", 9, "enumerate_all_min", 869, 546),
    ("zn", 10, "min_value", 1647, 1264),
    ("zn", 11, "min_value", 2337, 1902),
    ("zn", 12, "enumerate_all_min", 20738, 16477),
    ("plane", "ag_2_9", "min_value", 367, 240),
    ("plane", "ag_2_9", "enumerate_all_min", 469, 277),
    ("plane", "hall_translation_deleted", "min_value", 3497, 2589),
    ("plane", "hall_translation_deleted", "enumerate_all_min", 5211, 3530),
]


@pytest.mark.parametrize("kind, n, mode, nodes, prunes", [
    pytest.param(*case, id="-".join(map(str, case[:3]))) for case in NODE_COUNTS])
def test_sequential_node_counts(kind, n, mode, nodes, prunes):
    # one pass over the tree under the orbit-least 2-prefixes: a second
    # (collect) pass would add thousands, and losing a plane's column group
    # would multiply its count by up to |G| (ag_2_9 was 303,380 unreduced);
    # without the look-ahead bound the kernel expanded 4-10x more (GF(9)
    # 4,257, GF(11) 112,853, Z_9 15,246, Z_11 127,912, ag_2_9 4,460, before
    # the row maps), and without the row maps' lex-leader check 2.9-5.5x more
    # (GF(9) 922, GF(11) and Z_11 11,551, Z_9 3,129, Z_10 5,519; ag_2_9 1,056
    # and hall_translation_deleted 12,180, the planes' row groups being of
    # order 72 and 9); Z_12, where
    # the column group does not act freely on 2-prefixes, keeps the identity
    # row map, which still cuts there (20,720 nodes without it)
    out = _search(kind, n, SearchConfig(mode=mode))
    assert (out.nodes_expanded, out.prunes) == (nodes, prunes)


# nodes and prunes at threads 2, parallel_depth 2: two shares, each running
# its tasks (every other one) against its own incumbent; a task pruned by the
# lex-leader check at its prefix counts one prune and no node
PARALLEL_COUNTS = [
    ("field", 9, "min_value", 248, 225),
    ("field", 9, "enumerate_all_min", 278, 245),
    ("zn", 9, "min_value", 710, 542),
    ("zn", 9, "enumerate_all_min", 1009, 645),
    ("zn", 10, "min_value", 1778, 1484),
    ("plane", "ag_2_9", "min_value", 531, 376),
    ("plane", "ag_2_9", "enumerate_all_min", 682, 426),
    ("plane", "hall_translation_deleted", "min_value", 3364, 2784),
    ("plane", "hall_translation_deleted", "enumerate_all_min", 5085, 3720),
]


@pytest.mark.parametrize("kind, n, mode, nodes, prunes", [
    pytest.param(*case, id="-".join(map(str, case[:3]))) for case in PARALLEL_COUNTS])
def test_parallel_node_counts(kind, n, mode, nodes, prunes):
    out = _search(kind, n, SearchConfig(mode=mode, parallel_depth=2, threads=2))
    assert (out.nodes_expanded, out.prunes) == (nodes, prunes)


@pytest.mark.parametrize("kind, n", [("zn", 11), ("plane", "ag_2_9")])
def test_parallel_counts_do_not_depend_on_cores(kind, n, monkeypatch):
    # the share count follows the requested thread count; only the number of
    # processes is clamped by the cores found
    outs = []
    for cpus in (1, 2):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        out = _search(kind, n, SearchConfig(parallel_depth=2, threads=2))
        outs.append((out.psi, out.witnesses, out.nodes_expanded, out.prunes))
    assert outs[0] == outs[1]


@pytest.mark.parametrize("kind, n", [("field", 7), ("zn", 8), ("plane", "ag_2_9")])
def test_searches_leave_no_reference_cycles(kind, n):
    """The recursive kernel is a closure over its own name; unless it drops
    it, every search's state waits for the cyclic collector."""
    _search(kind, n, SearchConfig())
    gc.collect()
    gc.disable()
    try:
        for mode in ("min_value", "enumerate_all_min"):
            _search(kind, n, SearchConfig(mode=mode))
        assert gc.collect() == 0
    finally:
        gc.enable()


# in the Z_n cases a share keeps tasks whose own minimum lies above the best
# a task of another share found; the merge must drop them.
# ag_2_9 has one root, hall_translation_deleted eight, so only the latter
# merges plane results across roots
@pytest.mark.parametrize("kind, n", [("field", 7), ("zn", 8), ("zn", 10), ("plane", "ag_2_9"),
                                     ("plane", "hall_translation_deleted")])
def test_parallel_equals_sequential_every_mode(kind, n):
    for mode in MODES:
        bound = 5 if mode == "first_below" else None
        seq = _search(kind, n, SearchConfig(mode=mode, bound=bound))
        for threads, depth in itertools.product((1, 2), (1, 2)):
            par = _search(kind, n, SearchConfig(mode=mode, bound=bound,
                                                parallel_depth=depth, threads=threads))
            assert (par.psi, par.witnesses) == (seq.psi, seq.witnesses), (mode, threads, depth)


def test_shares_merge_in_task_order():
    # Z_12 has psi = 0, so first_below at bound 1 hits in many tasks.  At
    # threads 2, depth 2 share 1 (odd tasks) first hits at task 15, the 8th
    # of its walk, and share 0 at task 24, the 13th of its; merged in task
    # order the outcome is share 1's witness, the sequential one
    n = 12
    units = [c for c in range(1, n) if gcd(c, n) == 1]
    group = search._y_affine_group(RingSpec(n), units)
    rows, least, after, roots, _ = _symmetry(group, group)
    ctx = (n, _zn_pairs(n), None, 2, roots, 2, 1, "first", (rows, least, after))
    hits = [_run_shares(ctx, [w]) for w in (0, 1)]
    # a witness's task is the one its 4-cell prefix (root and depth 2) heads
    tasks = list(_prefixes(n, roots, 2))
    assert [[tasks.index(w[:4]) for w in inc.witnesses] for [inc] in hits] == [[24], [15]]
    [[w0], [w1]] = [inc.witnesses for [inc] in hits]
    assert w0 != w1
    cfg = SearchConfig(mode="first_below", bound=1)
    seq = min_triples_zn(n, cfg)
    assert seq.witnesses == (w1,)
    for depth in (1, 2):
        par = min_triples_zn(n, replace(cfg, parallel_depth=depth, threads=2))
        assert (par.psi, par.witnesses) == (0, seq.witnesses), depth
    # the merge orders shares by witness alone, not by value first: over Z_8
    # at bound 3, threads 2, depth 1 share 0 first hits at 2 triples and
    # share 1 at 0, and the outcome is share 0's hit, the sequential one
    cfg = SearchConfig(mode="first_below", bound=3)
    seq = min_triples_zn(8, cfg)
    par = min_triples_zn(8, replace(cfg, parallel_depth=1, threads=2))
    assert (par.psi, par.witnesses) == (seq.psi, seq.witnesses) == (2, ((0, 1, 2, 6, 7, 4, 5, 3),))


class _StandInPool:
    """A stand-in for ProcessPoolExecutor that starts no process: it runs the
    initializer and the jobs in this process and keeps every job."""

    def __init__(self, max_workers, initializer, initargs):
        initializer(*initargs)
        self.max_workers = max_workers
        self.initargs = initargs
        self.jobs = []
        _StandInPool.started.append(self)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        pass

    def map(self, fn, jobs):
        self.jobs = list(jobs)
        return map(fn, self.jobs)


@pytest.fixture
def stand_in_pool(monkeypatch):
    _StandInPool.started = []
    monkeypatch.setattr(search, "ProcessPoolExecutor", _StandInPool)
    monkeypatch.setattr(search, "_worker", None)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    return _StandInPool.started


# the row maps the kernel receives, of all the search has: those whose rows
# alpha^-1(0), alpha^-1(1) and alpha^-1(2) all come by row ceil(size/2)
KERNEL_ROW_MAPS = {
    ("field", 7): (11, 41),
    ("field", 9): (11, 71),
    ("field", 11): (21, 109),
    ("field", 13): (27, 155),
    ("zn", 8): (6, 32),
    ("plane", "ag_2_9"): (11, 71),
}


@pytest.mark.parametrize("kind, n", list(KERNEL_ROW_MAPS))
def test_jobs_carry_no_pair_table_or_prefixes(kind, n, stand_in_pool, monkeypatch):
    # the pair table and the row maps go to each worker once, through the
    # pool's initializer, with the share count, the 2-prefix roots, the depth
    # and the bounds; a job holds only its share indices.  Of two processes
    # the caller runs share 0 and one worker share 1.  The identity row map
    # is dropped where the column group acts freely on 2-prefixes: on a
    # plane and over a field, but not over Z_8
    every = []
    real = search._cutting
    monkeypatch.setattr(search, "_cutting",
                        lambda rows, size: every.append(len(rows)) or real(rows, size))
    seq = _search(kind, n, SearchConfig())
    par = _search(kind, n, SearchConfig(parallel_depth=2, threads=2))
    assert (par.psi, par.witnesses) == (seq.psi, seq.witnesses)
    [pool] = stand_in_pool
    assert pool.max_workers == len(pool.jobs) == 1
    [(size, pairs, node_limit, count, roots, depth, limit, mode, sym)] = pool.initargs
    assert (count, depth, mode) == (2, 2, "best")
    rows, least, after = sym
    assert len(set(rows)) == len(rows)
    assert (len(rows), every[-1]) == KERNEL_ROW_MAPS[kind, n]
    assert (tuple(range(size)) in rows) == (kind == "zn")
    assert all(len(root) == 2 for root in roots)
    for j, job in enumerate(pool.jobs, 1):
        assert job == range(j, 2, 2)
        assert len(pickle.dumps(job)) < 100


def test_jobs_generate_their_prefixes_lazily(stand_in_pool, monkeypatch):
    # GF(11) at depth 8 has 9! = 362,880 prefixes under its one root; a job
    # must walk them as it runs, so the first kernel call, in the caller's
    # share 0, sees one prefix made.  The kernel is stubbed: nothing is
    # searched, and the worker's job is handed over but never run.
    made = []
    real = search._prefixes

    def counted(*args):
        for prefix in real(*args):
            made.append(prefix)
            yield prefix

    class Halt(Exception):
        pass

    def first_kernel_call(size, pairs, node_limit, prefix, *rest):
        assert made == [prefix] == [next(real(11, [(0, 1)], 8))]
        raise Halt

    monkeypatch.setattr(search, "_prefixes", counted)
    monkeypatch.setattr(search, "_pair_search", first_kernel_call)
    with pytest.raises(Halt):
        min_triples_field(field_make(11), SearchConfig(parallel_depth=8, threads=2))
    [pool] = stand_in_pool
    assert len(pickle.dumps(pool.jobs[0])) < 200


def test_huge_thread_counts_make_at_most_one_share_per_task(stand_in_pool, monkeypatch):
    # GF(5) has one root, so depth 2 makes 3 * 2 = 6 tasks: there are
    # min(threads or cores, 6) shares, on procs = min(shares, cores)
    # processes, the caller and a pool of procs - 1 workers, and no pool when
    # procs is 1; threads=10**6 makes 6 shares.  Huge requests are checked on
    # the stand-in pool alone: no process is started
    f5 = field_make(5)
    seq = min_triples_field(f5, SearchConfig())
    for threads in (None, 1, 10**6):
        outs = set()
        for cpus in (2, 8, 64):
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            started = len(stand_in_pool)
            out = min_triples_field(f5, SearchConfig(parallel_depth=2, threads=threads))
            assert (out.psi, out.witnesses) == (seq.psi, seq.witnesses)
            outs.add((out.nodes_expanded, out.prunes))
            shares = min(threads or cpus, 6)
            procs = min(shares, cpus)
            assert len(stand_in_pool) == started + (procs > 1), (threads, cpus)
            if procs > 1:
                pool = stand_in_pool[-1]
                assert pool.max_workers == len(pool.jobs) == procs - 1
                assert pool.jobs == [range(j, shares, procs) for j in range(1, procs)]
                assert pool.initargs[0][3] == shares
        if threads is not None:
            # a requested thread count fixes the share count, so the counts too
            assert len(outs) == 1, threads


@pytest.mark.parametrize("kind, n, limit, in_caller", [
    # at threads 2, depth 2 share 0 expands 9 nodes over GF(7) and 124 over
    # Z_8, share 1 14 and 65: one share passes the limit, the other does not
    ("field", 7, 9, False), ("zn", 8, 65, True)])
def test_a_share_over_the_node_limit_fails_a_real_pool(kind, n, limit, in_caller, monkeypatch):
    # the caller runs share 0 and a worker process share 1; a worker's
    # exception arrives with the worker's traceback as its cause
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    with pytest.raises(NodeLimitExceeded) as failed:
        _search(kind, n, SearchConfig(parallel_depth=2, threads=2, node_limit=limit))
    assert (failed.value.__cause__ is None) == in_caller
    assert multiprocessing.active_children() == []


def test_prefix_tasks_split_below_the_roots():
    assert list(_prefixes(5, [(0, 1)], 1)) == [(0, 1, 2), (0, 1, 3), (0, 1, 4)]
    assert list(_prefixes(4, [(0, 1), (0, 2)], 2)) == [
        (0, 1, 2, 3), (0, 1, 3, 2), (0, 2, 1, 3), (0, 2, 3, 1)]
    assert list(_prefixes(3, [()], 1)) == [(0,), (1,), (2,)]
    assert list(_prefixes(3, [(0, 1)], 0)) == [(0, 1)]


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
    assert count_triples(gp) == 2
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


# -- the recount guard -------------------------------------------------------
# _run_search recounts every witness with a counter that does not read the
# kernel's pair table, so a wrong table or a malformed witness cannot pass.


def _emptied(build):
    def wrapped(*args):
        return [[() for _ in row] for row in build(*args)]
    return wrapped


@pytest.mark.parametrize("kind, n, builder", [
    ("field", 7, "_line_pairs"), ("zn", 9, "_zn_pairs"), ("plane", "ag_2_9", "_line_pairs")])
def test_recount_catches_a_wrong_pair_table(kind, n, builder, monkeypatch):
    # with every pair entry dropped the kernel counts no triple, so its first
    # leaf claims 0 where every domain here has psi > 0
    monkeypatch.setattr(search, builder, _emptied(getattr(search, builder)))
    with pytest.raises(AssertionError, match="recounts to .*, search said 0"):
        _search(kind, n, SearchConfig())


@pytest.mark.parametrize("kind, n", [("field", 7), ("zn", 9), ("plane", "ag_2_9")])
def test_recount_rejects_a_non_bijection(kind, n, monkeypatch):
    real = search._pair_search

    def broken(size, pairs, node_limit, prefix, inc, sym):
        stop = real(size, pairs, node_limit, prefix, inc, sym)
        inc.witnesses = [w[:1] + w[:1] + w[2:] for w in inc.witnesses]
        return stop

    monkeypatch.setattr(search, "_pair_search", broken)
    with pytest.raises(ValueError, match="bijection"):
        _search(kind, n, SearchConfig())


def test_every_witness_is_recounted(monkeypatch):
    calls = []
    real = search.count_triples

    def counted(perm):
        calls.append(perm.images)
        return real(perm)

    monkeypatch.setattr(search, "count_triples", counted)
    out = min_triples_field(field_make(7), SearchConfig(mode="enumerate_all_min"))
    assert len(out.witnesses) == 294
    # the closed-form seed, then each witness once, in order
    assert len(calls) == 1 + 294
    assert tuple(calls[1:]) == out.witnesses


def test_plane_recount_matches_the_transversal_count():
    rng = random.Random(2026)
    for name in AFFINE_FIXTURES:
        ap = load_fixture(name)
        for h, v in ((0, 1), (1, 0), (3, 7), (9, 2)):
            recount = _plane_recount(ap, h, v)
            for _ in range(15):
                w = tuple(rng.sample(range(9), 9))
                gp = transversal_from_bijection(ap, h, v, w)
                assert recount(w) == count_triples(gp), (name, h, v, w)
    with pytest.raises(ValueError, match="bijection"):
        recount((0,) * 9)
