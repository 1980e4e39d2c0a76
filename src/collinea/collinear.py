"""Permutation graphs and exact collinear triple/quadruple counts.

Works in three settings: GF(q) (the sizes of the lines y = s*x + b, each
cell's q lines computed once by field arithmetic and kept per field up to
order _KEEP_LINES), Z_n (exhaustive determinant tests; collinearity there is
*defined* as vanishing of the same determinant mod n), and abstract affine
planes (line intersection counts against a transversal).  count_triples and
count_quadruples take a PermGraph or a GenPerm alike.  A transversal's cells
come from plane.plane_grid, the one map from (h line i, v line j) to the
point where they meet.

Over GF(q) it also defines the patched fractional maps (alpha*x + beta) /
(x + gamma) with sigma(-gamma) = alpha, the paper's minimizers.
fractional_perm is their one rule: the closed-form minimizer, the reciprocal
map and fractional_family are built through it, and recognize_fractional
inverts it one pole at a time (_fractional_at).

Fields up to order _KEEP_LINES also keep add, sub and mul tables indexed
[a][b], filled from FieldSpec's ops, for classify's conic arithmetic
(_op_tables); above it the same reads call FieldSpec.
"""

import itertools
from dataclasses import InitVar, astuple, dataclass
from functools import lru_cache
from math import comb

from .algebra import FieldSpec
from .errors import DegenerateParams, DuplicatePoint, EvenCharacteristic, PointNotInSet
from .plane import plane_grid


def ctx_order(ctx):
    return ctx.q if isinstance(ctx, FieldSpec) else ctx.n


@dataclass(frozen=True)
class PermGraph:
    """A permutation sigma of the canonical encodings, viewed as its graph
    {(x, sigma(x))} in ctx x ctx."""

    ctx: object
    images: tuple

    def __post_init__(self):
        object.__setattr__(self, "images", tuple(self.images))
        n = ctx_order(self.ctx)
        if sorted(self.images) != list(range(n)):
            raise ValueError(f"images are not a bijection on 0..{n-1}")

    def __len__(self):
        return len(self.images)


@dataclass(frozen=True)
class GenPerm:
    """Transversal S of an affine plane, one point per line of the h class,
    meeting every line of the v class exactly once: cells[i] is a point of
    row i of plane_grid, in a column of its own.  grid, when given, is that
    plane_grid, built by the caller; it is not stored."""

    plane: object
    h_class: int
    v_class: int
    cells: tuple
    grid: InitVar[list] = None

    def __post_init__(self, grid):
        object.__setattr__(self, "cells", tuple(self.cells))
        if grid is None:
            grid = plane_grid(self.plane, self.h_class, self.v_class)
        if len(self.cells) != len(grid):
            raise ValueError("need exactly one chosen point per h line")
        cols = set()
        for i, (row, p) in enumerate(zip(grid, self.cells)):
            if p not in row:
                ln = self.plane.parallel_classes[self.h_class][i]
                raise PointNotInSet(f"point {p} is not on h line {ln}")
            cols.add(row.index(p))
        if len(cols) != len(grid):
            raise ValueError("chosen points do not meet distinct v lines")


@dataclass(frozen=True)
class FracParams:
    """Parameters (alpha, beta, gamma) of a patched fractional map; the map is
    a permutation exactly when alpha*gamma != beta."""

    alpha: int
    beta: int
    gamma: int


def _det3(ctx, p1, p2, p3):
    (x1, y1), (x2, y2), (x3, y3) = p1, p2, p3
    t1 = ctx.mul(x1, ctx.sub(y2, y3))
    t2 = ctx.mul(x2, ctx.sub(y3, y1))
    t3 = ctx.mul(x3, ctx.sub(y1, y2))
    return ctx.add(ctx.add(t1, t2), t3)


def is_collinear(ctx, p1, p2, p3):
    """Do the three distinct points satisfy the collinearity determinant?"""
    if p1 == p2 or p1 == p3 or p2 == p3:
        raise DuplicatePoint(f"points must be distinct: {p1}, {p2}, {p3}")
    return _det3(ctx, p1, p2, p3) == 0


def count_triples(perm):
    """Number of collinear triples of a PermGraph or a GenPerm.

    Over a field three graph points are collinear iff they share a
    non-vertical line y = s*x + b, and no such line holds two points with
    equal x, so summing C(m, 3) over the sizes m of the q^2 lines
    (_line_sizes) counts every triple exactly once.  Z_n falls back to
    testing all C(n, 3) determinants, each computed as
    (x2-x1)(y3-y1) - (x3-x1)(y2-y1) in the integers and reduced mod n once.
    A transversal counts C(m, 3) on each line outside its two grid classes
    that holds m of its cells.  The one sizes pass, _line_sizes, also gives
    classify's certificate its covered lines and its nucleus check."""
    if isinstance(perm, GenPerm):
        return _plane_line_count(perm, 3)
    ctx = perm.ctx
    if isinstance(ctx, FieldSpec):
        return _slope_count(_line_sizes(perm), 3)
    n = ctx.n
    ys = perm.images
    return sum(
        1
        for x1, x2, x3 in itertools.combinations(range(n), 3)
        if ((x2 - x1) * (ys[x3] - ys[x1]) - (x3 - x1) * (ys[x2] - ys[x1])) % n == 0
    )


def list_triples(perm):
    """The collinear triples as sorted x-coordinate tuples, lexicographic."""
    ctx = perm.ctx
    n = ctx_order(ctx)
    out = []
    for xs in itertools.combinations(range(n), 3):
        pts = [(x, perm.images[x]) for x in xs]
        if _det3(ctx, *pts) == 0:
            out.append(xs)
    return out


def count_quadruples(obj):
    """Collinear quadruples of a PermGraph or a GenPerm.

    Over a field, C(m, 4) over the same line sizes as triples; over a plane,
    C(m, 4) per unskipped line; over Z_n a 4-set counts when all four of its
    sub-triples have vanishing determinant."""
    if isinstance(obj, GenPerm):
        return _plane_line_count(obj, 4)
    ctx = obj.ctx
    if isinstance(ctx, FieldSpec):
        return _slope_count(_line_sizes(obj), 4)
    n = ctx.n
    pts = [(x, obj.images[x]) for x in range(n)]
    total = 0
    for quad in itertools.combinations(pts, 4):
        if all(_det3(ctx, *tri) == 0 for tri in itertools.combinations(quad, 3)):
            total += 1
    return total


# Fields up to this order keep their cell -> lines memo and their add, sub
# and mul tables for the life of the process: at most q^2 tuples of q shared
# line ids, about 190 KB at q = 25, and 3 q^2 table entries.  A larger field
# adds up its lines afresh on every count and calls FieldSpec for every op.
_KEEP_LINES = 32


@lru_cache(maxsize=None)
def _kept_lines(f):
    """The kept memo of a field, cell -> lines, and the line ids its tuples
    share."""
    return {}, list(range(f.q * f.q))


@lru_cache(maxsize=None)
def _kept_ops(f):
    """add, sub and mul of a field up to order _KEEP_LINES, each a table
    read [a][b], filled from FieldSpec's own ops."""
    return tuple([[op(a, b) for b in f.elements()] for a in f.elements()]
                 for op in (f.add, f.sub, f.mul))


class _CallThrough(dict):
    """op as a table read [a][b] that calls op(a, b) on every read: the op
    tables above _KEEP_LINES, where q^2 entries are not worth building.
    The view keeps each row it hands out, so a row read again costs a dict
    hit."""

    def __init__(self, op):
        self.op = op

    def __missing__(self, a):
        row = self[a] = _CallThroughRow(self.op, a)
        return row


class _CallThroughRow:
    """Row a of a _CallThrough view: [b] calls op(a, b)."""

    __slots__ = ("op", "a")

    def __init__(self, op, a):
        self.op, self.a = op, a

    def __getitem__(self, b):
        return self.op(self.a, b)


def _op_tables(f):
    """(add, sub, mul) of a field as tables read [a][b]: kept up to order
    _KEEP_LINES, call-through views of FieldSpec above it."""
    if f.q <= _KEEP_LINES:
        return _kept_ops(f)
    return tuple(_CallThrough(op) for op in (f.add, f.sub, f.mul))


def _line_sizes(perm):
    """How many graph points each non-vertical line of a field graph holds:
    entry s*q + b counts those on y = s*x + b, so sizes[:q] are the
    horizontal lines.  Cell (x, y) lies on the line s*q + (y - s*x) of each
    slope s; those q ids cost 2q field operations, once per cell up to order
    _KEEP_LINES, whose memo keeps them, and on every count above it, which
    adds each id straight into the sizes."""
    f = perm.ctx
    q = f.q
    sizes = [0] * (q * q)
    if q > _KEEP_LINES:
        sub, mul = f.sub, f.mul
        for x, y in enumerate(perm.images):
            for s in range(q):
                sizes[s * q + sub(y, mul(s, x))] += 1
        return sizes
    memo, ids = _kept_lines(f)
    for x, y in enumerate(perm.images):
        cell = x * q + y
        lines = memo.get(cell)
        if lines is None:
            lines = memo[cell] = tuple([ids[s * q + f.sub(y, f.mul(s, x))] for s in range(q)])
        for line in lines:
            sizes[line] += 1
    return sizes


def _slope_count(sizes, r):
    """C(m, r) summed over the line sizes of a field graph: every
    non-vertical line holds m of its points, and a vertical line holds one,
    so each r-set on a line is counted once."""
    return sum([comb(m, r) for m in sizes if m >= r])


def _plane_line_count(gp, r):
    skip = set(gp.plane.parallel_classes[gp.h_class]) | set(
        gp.plane.parallel_classes[gp.v_class]
    )
    chosen = set(gp.cells)
    total = 0
    for i, ln in enumerate(gp.plane.lines):
        if i in skip:
            continue
        m = len(chosen.intersection(ln))
        if m >= r:
            total += comb(m, r)
    return total


def fractional_perm(f, params):
    """sigma(x) = (alpha*x + beta)/(x + gamma) away from the pole, patched by
    sigma(-gamma) = alpha."""
    a, b, g = params.alpha, params.beta, params.gamma
    if f.mul(a, g) == b:
        raise DegenerateParams("alpha*gamma = beta collapses the map")
    pole = f.neg(g)
    images = (a if x == pole else f.div(f.add(f.mul(a, x), b), f.add(x, g))
              for x in range(f.q))
    return PermGraph(f, tuple(images))


def fractional_family(f):
    """Every patched fractional map over f, one per valid parameter triple in
    (alpha, beta, gamma) order: q^2(q-1) maps."""
    return [fractional_perm(f, FracParams(a, b, g))
            for a, b, g in itertools.product(range(f.q), repeat=3)
            if f.mul(a, g) != b]


def closed_form_minimizer(f):
    """The explicit odd-q minimizer: x maps to 1 at x = 1, else x/(x-1)."""
    if f.p == 2:
        raise EvenCharacteristic("closed form needs odd q")
    return fractional_perm(f, FracParams(1, 0, f.neg(1)))


def reciprocal_perm(f):
    """x maps to 1/x, with 0 fixed."""
    return fractional_perm(f, FracParams(0, 1, 0))


def _fractional_at(f, ys, g):
    """FracParams (alpha, beta, gamma) when the map with images ys is the
    patched fractional map of pole -gamma = -g, else None.  The pole fixes alpha =
    sigma(-g) by the patch, and one point x1 off it fixes beta =
    sigma(x1)(x1 + g) - alpha*x1; the candidate holds when alpha*g != beta
    and sigma(x)(x + g) = alpha*x + beta at every x off the pole."""
    pole = f.neg(g)
    a = ys[pole]
    x1 = 1 if pole == 0 else 0
    b = f.sub(f.mul(ys[x1], f.add(x1, g)), f.mul(a, x1))
    if f.mul(a, g) != b and all(
            f.mul(ys[x], f.add(x, g)) == f.add(f.mul(a, x), b)
            for x in range(f.q) if x != pole):
        return FracParams(a, b, g)
    return None


def recognize_fractional(perm):
    """The least FracParams (alpha, beta, gamma) whose map is perm, or None.

    Each gamma leaves one candidate (_fractional_at).  For q >= 5 at most
    one candidate is kept, since two Moebius maps that agree at three or
    more points are equal, so which one is least matters only at q <= 4."""
    f = perm.ctx
    if not isinstance(f, FieldSpec):
        return None
    kept = [t for g in range(f.q) if (t := _fractional_at(f, perm.images, g))]
    return min(kept, key=astuple) if kept else None


def transversal_from_bijection(plane, h_class, v_class, pi):
    """GenPerm whose i-th chosen point is the cell (i, pi[i]) of plane_grid,
    where h line i meets v line pi[i]; every bijection pi on 0..q-1 gives
    one, and any other pi is a ValueError."""
    grid = plane_grid(plane, h_class, v_class)
    if sorted(pi) != list(range(plane.order)):
        raise ValueError(f"pi is not a bijection on 0..{plane.order - 1}")
    cells = [grid[i][j] for i, j in enumerate(pi)]
    return GenPerm(plane, h_class, v_class, cells, grid)
