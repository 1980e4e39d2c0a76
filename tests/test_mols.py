"""MOLS extraction checked against the classical subtraction-table squares,
round-trips back to the plane, and diagonal repeat witnesses."""

import random

import pytest

from collinea.algebra import field_make
from collinea.collinear import reciprocal_perm
from collinea.errors import IncompleteSet, NotOrthogonal, OrderMismatch, ParseError
from collinea.mols import (
    LatinSquare,
    check_orthogonal,
    diagonal_witness,
    load_mols,
    mols_from_plane,
    plane_from_mols,
    save_mols,
)
from collinea.plane import affine_plane, plane_grid, validate

# h = the vertical class (index q), v = the slope-0 class: then grid[i][k] is
# the point (x=i, y=k) and the remaining classes are the slopes 1..q-1.
ODD_ORDERS = [3, 5, 7, 9]


def _standard_mols(q):
    f = field_make(q)
    return f, mols_from_plane(affine_plane(f), q, 0)


@pytest.mark.parametrize("q", ODD_ORDERS + [4, 8])
def test_squares_match_subtraction_tables(q):
    # independent closed form: slope-s square has entry k - s*i at (i, k)
    f, squares = _standard_mols(q)
    assert len(squares) == q - 1
    for idx, m in enumerate(squares):
        s = idx + 1
        for i in range(q):
            for k in range(q):
                assert m[i][k] == f.sub(k, f.mul(s, i))


@pytest.mark.parametrize("q", [3, 4, 5, 7, 9])
def test_complete_sets_are_pairwise_orthogonal(q):
    _, squares = _standard_mols(q)
    for i in range(len(squares)):
        for j in range(i + 1, len(squares)):
            assert check_orthogonal(squares[i], squares[j])


def test_self_pairing_is_never_orthogonal():
    _, squares = _standard_mols(3)
    assert not check_orthogonal(squares[0], squares[0])


def test_order_two_pairs_fail():
    a = LatinSquare(2, ((0, 1), (1, 0)))
    b = LatinSquare(2, ((1, 0), (0, 1)))
    assert not check_orthogonal(a, b)
    assert not check_orthogonal(a, a)


def test_order_mismatch_rejected():
    a = LatinSquare(2, ((0, 1), (1, 0)))
    _, squares = _standard_mols(3)
    with pytest.raises(OrderMismatch):
        check_orthogonal(a, squares[0])


def test_latin_square_validation():
    with pytest.raises(ValueError):
        LatinSquare(2, ((0, 0), (1, 1)))  # rows broken
    with pytest.raises(ValueError):
        LatinSquare(2, ((0, 1), (0, 1)))  # columns broken
    with pytest.raises(ValueError):
        LatinSquare(3, ((0, 1, 2), (1, 2, 0)))  # short


@pytest.mark.parametrize("q", ODD_ORDERS)
def test_round_trip_reproduces_line_sets(q):
    # with h = verticals and v = slope 0 the grid coordinatization is the
    # identity on point indices, so the line sets must match literally
    ap = affine_plane(field_make(q))
    back = plane_from_mols(mols_from_plane(ap, q, 0))
    assert {frozenset(ln) for ln in back.lines} == {frozenset(ln) for ln in ap.lines}
    assert validate(back).ok


def test_round_trip_other_class_pair():
    # h = slope 2, v = slope 4: relabel each point by its (h line, v line) cell
    q = 5
    ap = affine_plane(field_make(q))
    h_class, v_class = 2, 4
    grid = plane_grid(ap, h_class, v_class)
    cell = {grid[i][j]: i * q + j for i in range(q) for j in range(q)}
    back = plane_from_mols(mols_from_plane(ap, h_class, v_class))
    want = {frozenset(cell[p] for p in ln) for ln in ap.lines}
    assert {frozenset(ln) for ln in back.lines} == want


def test_incomplete_set_rejected():
    _, squares = _standard_mols(3)
    with pytest.raises(IncompleteSet):
        plane_from_mols(squares[:1])
    with pytest.raises(IncompleteSet):
        plane_from_mols([])


def test_non_orthogonal_set_rejected():
    _, squares = _standard_mols(3)
    with pytest.raises(NotOrthogonal):
        plane_from_mols([squares[0], squares[0]])


def test_identity_relabeling_on_order_3():
    # the identity transversal y = x lies entirely on the slope-1 line y = x,
    # so the very first square repeats symbol 0 three times on the diagonal
    _, squares = _standard_mols(3)
    got = diagonal_witness(squares, (0, 1, 2))
    assert got == (0, 0, (0, 1, 2))


def test_reciprocal_relabeling_order_4_has_no_witness():
    f = field_make(4)
    _, squares = _standard_mols(4)
    assert diagonal_witness(squares, reciprocal_perm(f).images) is None


def _witness_cells_are_on_one_class_line(ap, h_class, v_class, relabeling, got):
    j, k, pos = got
    assert len(pos) >= 3
    grid = plane_grid(ap, h_class, v_class)
    cells = {grid[i][relabeling[i]] for i in pos}
    rest = [c for c in range(len(ap.parallel_classes)) if c not in (h_class, v_class)]
    line = ap.lines[ap.parallel_classes[rest[j]][k]]
    assert cells <= set(line)


@pytest.mark.parametrize("q", ODD_ORDERS)
def test_random_relabelings_always_witness(q):
    # restatement of the odd-order triple theorem on the MOLS side
    ap = affine_plane(field_make(q))
    squares = mols_from_plane(ap, q, 0)
    rng = random.Random(97 + q)
    pi = list(range(q))
    for _ in range(200):
        rng.shuffle(pi)
        got = diagonal_witness(squares, tuple(pi))
        assert got is not None
        _witness_cells_are_on_one_class_line(ap, q, 0, pi, got)


def test_witness_rejects_non_bijection():
    _, squares = _standard_mols(3)
    with pytest.raises(ValueError):
        diagonal_witness(squares, (0, 0, 2))


def test_mols_json_round_trip():
    _, squares = _standard_mols(5)
    again = load_mols(save_mols(squares))
    assert again == squares


def test_load_mols_rejects_bad_input():
    with pytest.raises(ParseError):
        load_mols(b"[1, 2")
    with pytest.raises(ParseError):
        load_mols(b"[]")
    with pytest.raises(ParseError):
        load_mols(b'{"order": 3}')
    with pytest.raises(ParseError):
        load_mols(b'{"order": 2, "squares": [[[0, 0], [1, 1]]]}')
    with pytest.raises(ParseError):
        load_mols(b'{"order": 2, "squares": [[[0, "x"], [1, 0]]]}')
    with pytest.raises(ParseError):
        load_mols(b'{"order": 2, "squares": [[[false, true], [true, false]]]}')
