"""Triple/quadruple counting cross-checked against naive determinant
enumeration, plus the named permutation families."""

import itertools
import random

import pytest

from collinea import collinear
from collinea.algebra import RingSpec, field_make
from collinea.collinear import (
    FracParams,
    GenPerm,
    PermGraph,
    _fractional_at,
    _line_sizes,
    _op_tables,
    closed_form_minimizer,
    count_quadruples,
    count_triples,
    fractional_perm,
    is_collinear,
    list_triples,
    reciprocal_perm,
    recognize_fractional,
    transversal_from_bijection,
)
from collinea.errors import (
    ClassesNotDistinct,
    DegenerateParams,
    DuplicatePoint,
    EvenCharacteristic,
    PointNotInSet,
)
from collinea.plane import affine_plane


def _naive_triples(perm):
    """Oracle: test the determinant on every 3-subset."""
    ctx = perm.ctx
    n = len(perm.images)
    pts = [(x, perm.images[x]) for x in range(n)]
    return sum(
        1 for tri in itertools.combinations(pts, 3) if is_collinear(ctx, *tri)
    )


def _naive_quadruples(perm):
    ctx = perm.ctx
    n = len(perm.images)
    pts = [(x, perm.images[x]) for x in range(n)]
    total = 0
    for quad in itertools.combinations(pts, 4):
        if all(is_collinear(ctx, *tri) for tri in itertools.combinations(quad, 3)):
            total += 1
    return total


def test_is_collinear_examples():
    f5 = field_make(5)
    assert is_collinear(f5, (0, 0), (1, 1), (2, 2))
    assert is_collinear(RingSpec(6), (0, 0), (1, 1), (2, 2))
    assert not is_collinear(f5, (0, 0), (1, 1), (2, 4))
    # hand check mod 4: 0*(1-3) + 1*(3-0) + 2*(0-1) = 3 - 2 = 1
    assert not is_collinear(RingSpec(4), (0, 0), (1, 1), (2, 3))
    with pytest.raises(DuplicatePoint):
        is_collinear(f5, (0, 0), (0, 0), (1, 1))


def test_count_triples_examples():
    f5 = field_make(5)
    assert count_triples(PermGraph(f5, (0, 1, 2, 3, 4))) == 10
    assert count_triples(PermGraph(f5, (0, 1, 2, 4, 3))) == 2
    assert count_triples(PermGraph(RingSpec(4), (0, 1, 3, 2))) == 0


def test_permgraph_rejects_non_bijection():
    with pytest.raises(ValueError):
        PermGraph(field_make(5), (0, 1, 2, 3, 3))
    with pytest.raises(ValueError):
        PermGraph(RingSpec(4), (0, 1, 2))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13])
def test_bucket_count_matches_naive_oracle(q):
    rng = random.Random(4000 + q)
    f = field_make(q)
    base = list(range(q))
    for _ in range(60):
        rng.shuffle(base)
        perm = PermGraph(f, tuple(base))
        assert count_triples(perm) == _naive_triples(perm)
        assert count_quadruples(perm) == _naive_quadruples(perm)


@pytest.mark.parametrize("q", [4, 5, 9])
def test_kept_lines_are_each_cells_lines(q):
    # the graphs of x -> x + c mod q, on the encodings, cover every cell
    f = field_make(q)
    for c in range(q):
        _line_sizes(PermGraph(f, tuple((x + c) % q for x in range(q))))
    memo, _ = collinear._kept_lines(f)
    assert len(memo) == q * q
    for x, y in itertools.product(range(q), repeat=2):
        # from scratch: on slope s, the intercept b with s*x + b = y
        lines = tuple(s * q + b for s in range(q) for b in range(q)
                      if f.add(f.mul(s, x), b) == y)
        assert memo[x * q + y] == lines, (x, y)


@pytest.mark.parametrize("q", [7, 8, 9])
def test_counts_above_the_kept_order_keep_no_lines(q, monkeypatch):
    monkeypatch.setattr(collinear, "_KEEP_LINES", 6)
    collinear._kept_lines.cache_clear()
    rng = random.Random(4300 + q)
    f = field_make(q)
    for _ in range(20):
        perm = PermGraph(f, tuple(rng.sample(range(q), q)))
        assert count_triples(perm) == len(list_triples(perm))
        assert count_quadruples(perm) == _naive_quadruples(perm)
        assert collinear._kept_lines.cache_info().currsize == 0


@pytest.mark.parametrize("q", [5, 7, 9, 25, 27])
def test_kept_op_tables_are_the_field_ops(q):
    f = field_make(q)
    add, sub, mul = _op_tables(f)
    assert _op_tables(f) is collinear._kept_ops(f)
    for a, b in itertools.product(range(q), repeat=2):
        assert (add[a][b], sub[a][b], mul[a][b]) == (f.add(a, b), f.sub(a, b), f.mul(a, b))


def test_op_tables_above_the_kept_order_call_the_field():
    f = field_make(37)
    collinear._kept_ops.cache_clear()
    add, sub, mul = _op_tables(f)
    for a, b in itertools.product(range(0, 37, 4), repeat=2):
        assert (add[a][b], sub[a][b], mul[a][b]) == (f.add(a, b), f.sub(a, b), f.mul(a, b))
    assert collinear._kept_ops.cache_info().currsize == 0


@pytest.mark.parametrize("q", [5, 7, 9])
def test_recognition_at_the_pole_agrees_with_the_sweep(q):
    """At a member's own pole, _fractional_at gives recognize_fractional's
    parameters.  With two images swapped it finds nothing there; the sweep
    finds nothing at q = 7, 9, while at q = 5 the swap keeps three points of
    the map, so it can be another member, always of another pole."""
    f = field_make(q)
    rng = random.Random(4500 + q)
    for a, b, g in itertools.product(range(q), repeat=3):
        if f.mul(a, g) == b:
            continue
        images = list(fractional_perm(f, FracParams(a, b, g)).images)
        assert _fractional_at(f, images, g) == FracParams(a, b, g)
        assert recognize_fractional(PermGraph(f, tuple(images))) == FracParams(a, b, g)
        i, j = rng.sample(range(q), 2)
        images[i], images[j] = images[j], images[i]
        assert _fractional_at(f, images, g) is None
        swept = recognize_fractional(PermGraph(f, tuple(images)))
        assert swept is None or (q == 5 and swept.gamma != g)


@pytest.mark.parametrize("n", [4, 6, 8, 9, 10])
def test_ring_counts_match_naive_oracle(n):
    rng = random.Random(4100 + n)
    ctx = RingSpec(n)
    base = list(range(n))
    for _ in range(40):
        rng.shuffle(base)
        perm = PermGraph(ctx, tuple(base))
        assert count_triples(perm) == _naive_triples(perm)
        assert count_quadruples(perm) == _naive_quadruples(perm)


@pytest.mark.parametrize("n", range(3, 15))
def test_integer_ring_count_matches_det3(n):
    # count_triples reduces one integer determinant mod n per triple;
    # list_triples still tests each triple through RingSpec arithmetic
    ctx = RingSpec(n)
    if n <= 7:
        perms = itertools.permutations(range(n))
    else:
        rng = random.Random(4200 + n)
        perms = [rng.sample(range(n), n) for _ in range(60)]
    for images in perms:
        perm = PermGraph(ctx, images)
        assert count_triples(perm) == len(list_triples(perm))


def test_list_triples_order_and_agreement():
    f5 = field_make(5)
    ident = PermGraph(f5, (0, 1, 2, 3, 4))
    listing = list_triples(ident)
    assert listing == sorted(listing)
    assert listing == list(itertools.combinations(range(5), 3))
    g5 = PermGraph(f5, (0, 1, 2, 4, 3))
    assert len(list_triples(g5)) == count_triples(g5)
    zn = PermGraph(RingSpec(6), (0, 1, 2, 3, 4, 5))
    assert len(list_triples(zn)) == count_triples(zn)


def test_count_quadruples_examples():
    f5 = field_make(5)
    assert count_quadruples(PermGraph(f5, (0, 1, 2, 3, 4))) == 5
    assert count_quadruples(PermGraph(f5, (0, 1, 2, 4, 3))) == 0
    assert count_quadruples(PermGraph(field_make(3), (0, 1, 2))) == 0


def test_closed_form_minimizer_images():
    assert closed_form_minimizer(field_make(3)).images == (0, 1, 2)
    assert closed_form_minimizer(field_make(5)).images == (0, 1, 2, 4, 3)
    assert closed_form_minimizer(field_make(7)).images == (0, 1, 2, 5, 6, 3, 4)
    with pytest.raises(EvenCharacteristic):
        closed_form_minimizer(field_make(4))


@pytest.mark.parametrize("q", [3, 5, 7, 9, 11, 13])
def test_closed_form_minimizer_count(q):
    perm = closed_form_minimizer(field_make(q))
    assert count_triples(perm) == (q - 1) // 2


def test_fractional_perm_examples():
    f5 = field_make(5)
    assert (
        fractional_perm(f5, FracParams(1, 0, f5.neg(1))).images
        == closed_form_minimizer(f5).images
    )
    with pytest.raises(DegenerateParams):
        fractional_perm(f5, FracParams(1, 1, 1))
    f7 = field_make(7)
    assert fractional_perm(f7, FracParams(0, 1, 0)).images == reciprocal_perm(f7).images


@pytest.mark.parametrize("q", [5, 7, 9])
def test_fractional_param_space(q):
    """Exactly q^2(q-1) parameter triples survive the degeneracy condition and
    every one yields a bijection (PermGraph validates on build)."""
    f = field_make(q)
    good = 0
    for a, b, g in itertools.product(range(q), repeat=3):
        if f.mul(a, g) == b:
            with pytest.raises(DegenerateParams):
                fractional_perm(f, FracParams(a, b, g))
        else:
            fractional_perm(f, FracParams(a, b, g))
            good += 1
    assert good == q * q * (q - 1)


def test_recognize_fractional_examples():
    f7 = field_make(7)
    got = recognize_fractional(closed_form_minimizer(f7))
    assert got == FracParams(1, 0, f7.neg(1))
    assert recognize_fractional(PermGraph(field_make(5), (0, 1, 2, 3, 4))) is None


def test_recognize_fully_collinear_graph():
    # q = 3 identity: all three graph points lie on one line
    f3 = field_make(3)
    got = recognize_fractional(PermGraph(f3, (0, 1, 2)))
    assert got is not None
    assert fractional_perm(f3, got).images == (0, 1, 2)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_recognize_round_trips_every_param(q):
    f = field_make(q)
    for a, b, g in itertools.product(range(q), repeat=3):
        if f.mul(a, g) == b:
            continue
        perm = fractional_perm(f, FracParams(a, b, g))
        got = recognize_fractional(perm)
        assert got is not None
        assert fractional_perm(f, got).images == perm.images


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_recognize_returns_least_reproducing_triple(q):
    """Against a sweep of the whole parameter cube: every permutation gets the
    least (alpha, beta, gamma) whose map it is, or None if it has none."""
    f = field_make(q)
    least = {}
    for a, b, g in itertools.product(range(q), repeat=3):
        if f.mul(a, g) != b:
            least.setdefault(fractional_perm(f, FracParams(a, b, g)).images,
                             FracParams(a, b, g))
    for images in itertools.permutations(range(q)):
        assert recognize_fractional(PermGraph(f, images)) == least.get(images)


def test_reciprocal_perm_values():
    assert reciprocal_perm(field_make(4)).images == (0, 1, 3, 2)
    assert reciprocal_perm(field_make(5)).images == (0, 1, 3, 2, 4)


@pytest.mark.parametrize("q", [4, 8, 16])
def test_reciprocal_char2_has_no_triples(q):
    assert count_triples(reciprocal_perm(field_make(q))) == 0


def test_reciprocal_odd_q_is_a_minimizer():
    f7 = field_make(7)
    assert count_triples(reciprocal_perm(f7)) == 3


def test_plane_count_examples():
    f3 = field_make(3)
    gp = transversal_from_bijection(affine_plane(f3), 3, 0, (0, 1, 2))
    assert count_triples(gp) == 1
    f5 = field_make(5)
    gp5 = transversal_from_bijection(affine_plane(f5), 5, 0,
                                     closed_form_minimizer(f5).images)
    assert count_triples(gp5) == 2
    assert count_quadruples(gp5) == 0


@pytest.mark.parametrize("q", [3, 5, 7])
def test_plane_count_matches_field_count(q):
    rng = random.Random(4200 + q)
    f = field_make(q)
    pl = affine_plane(f)
    base = list(range(q))
    for _ in range(20):
        rng.shuffle(base)
        perm = PermGraph(f, tuple(base))
        gp = transversal_from_bijection(pl, q, 0, perm.images)
        assert count_triples(gp) == count_triples(perm)
        assert count_quadruples(gp) == count_quadruples(perm)


def test_genperm_validation():
    f3 = field_make(3)
    pl = affine_plane(f3)
    good = transversal_from_bijection(pl, 3, 0, (0, 1, 2))
    with pytest.raises(ClassesNotDistinct):
        GenPerm(pl, 3, 3, good.cells)
    with pytest.raises(PointNotInSet):
        GenPerm(pl, 3, 0, (4, 3, 8))  # 4 is not on the first vertical line
    with pytest.raises(ValueError):
        GenPerm(pl, 3, 0, (0, 3, 6))  # all three on the same horizontal line


def test_transversal_from_bijection_rejects_a_non_bijection():
    # a negative entry would index the grid from the end, a large one past it
    pl = affine_plane(field_make(3))
    for pi in ((-1, 0, 1), (0, 1, 3), (0, 0, 1), (0, 1), (0, 1, 2, 3)):
        with pytest.raises(ValueError, match="bijection"):
            transversal_from_bijection(pl, 0, 1, pi)


def test_transversal_from_bijection_random():
    rng = random.Random(77)
    pl = affine_plane(field_make(5))
    pi = list(range(5))
    for _ in range(30):
        rng.shuffle(pi)
        gp = transversal_from_bijection(pl, 5, 0, tuple(pi))
        assert count_triples(gp) >= 1  # odd order forces a triple
