"""Projective certificates for triple-minimizing permutations.

A minimizer's graph, lifted to PG(2, q) and joined with the two infinite
points [1:0:0] and [0:1:0], should be a nondegenerate conic plus one external
point.  This module builds that certificate from scratch (conic fitting, line
counting, nucleus checks) so it serves as independent evidence rather than a
restatement: the conic, its external point and the line facts read no
fractional parameters, and the parameters are checked at the fitted pole.
The external point's x is the one pole tried; only when the map there is not
the graph does recognize_fractional sweep all q poles, so every failure names
the check it named before, and for q >= 5, where at most one pole survives
the sweep, a map found at the fitted pole is the one the sweep returns.

Each check works on the q+2 lifted points, not on a sweep of the q^2+q+1
lines.  One Gauss-Jordan elimination over the six Veronese columns serves
every conic fit: fit_conic runs it on its points' rows, and the drop-one
conic search runs it once on the 6x6 Veronese matrix of the six leading
points, which yields every conic through five of them, then tests the
remaining points against each distinct conic once.  The conic arithmetic
(Veronese rows, eliminations, conic values) reads add, sub and mul tables
indexed [a][b] (collinear._op_tables), kept per field up to order 32
(collinear._KEEP_LINES) and calling FieldSpec per entry above it.

The line facts come from the line sizes whose C(m, 3) count_triples sums
(collinear._line_sizes), not from the C(q+2, 2) joins of the lifted points,
and one sizes pass per certificate serves the triple count, the nucleus
check and k*.  A point is an internal nucleus when every line through it
meets the set in exactly one other point; the lines through [1:0:0] are
z = 0 and the horizontals, sizes[:q].  A line of slope s != 0 misses both
infinite points, so it meets the set exactly when its size is nonzero.
That gives the covered lines k* in at most 2q^2 field operations, none once
the field's memo holds the graph's cells, where the joins take
13 C(q+2, 2).  count_covered_lines, which joins any point set, stays the
generic reference.  A certificate costs O(q^2) field operations; up to order
32, once the field's memo and tables are filled, it calls FieldSpec
only for the pivots' inverses, the degeneracy test and the O(q) check at the
pole, 63-91 calls at q = 7 to 13."""

import itertools
from dataclasses import dataclass

from .algebra import FieldSpec
from .collinear import _fractional_at, _line_sizes, _op_tables, _slope_count, recognize_fractional
from .errors import (
    Ambiguous,
    CertificateFailure,
    EvenCharacteristic,
    FieldTooSmall,
    NoConic,
)

_INFINITE = ((1, 0, 0), (0, 1, 0))


def normalize_point(f, v):
    """Scale a nonzero homogeneous triple so its last nonzero entry is 1."""
    x, y, z = v
    if x == y == z == 0:
        raise ValueError("zero vector has no projective class")
    last = z if z else (y if y else x)
    inv = f.inv(last)
    return (f.mul(x, inv), f.mul(y, inv), f.mul(z, inv))


def _join(f, p, r):
    """The line through two distinct points, as normalized coefficients."""
    sub, mul = f.sub, f.mul
    return normalize_point(f, (
        sub(mul(p[1], r[2]), mul(p[2], r[1])),
        sub(mul(p[2], r[0]), mul(p[0], r[2])),
        sub(mul(p[0], r[1]), mul(p[1], r[0])),
    ))


@dataclass(frozen=True)
class ConicCert:
    """Conic coefficients (a, b, c, d, e, f) for ax^2+by^2+cxy+dxz+eyz+fz^2,
    scaled so the first nonzero entry is 1."""

    coeffs: tuple
    external_point: tuple = None
    nondegenerate: bool = None
    irreducible: bool = None


def lift_graph(perm):
    """The q+2 projective points: the graph of perm at z = 1, plus [1:0:0]
    and [0:1:0]."""
    return frozenset([(x, y, 1) for x, y in enumerate(perm.images)] + list(_INFINITE))


def _join_sweep(f, points):
    """Every point's distinct joins with the others, each of the C(n, 2)
    lines computed once."""
    joins = {p: set() for p in points}
    for p, r in itertools.combinations(points, 2):
        line = _join(f, p, r)
        joins[p].add(line)
        joins[r].add(line)
    return joins


def _covered(joins, q):
    return len(set().union(*joins.values())) + sum(q + 1 - len(js) for js in joins.values())


def count_covered_lines(points, f):
    """How many of the q^2+q+1 projective lines meet the set at all: the
    distinct secants, plus at each point the lines through it that join it
    to no other point of the set (its tangents)."""
    return _covered(_join_sweep(f, sorted({normalize_point(f, p) for p in points})), f.q)


def _covered_by_sizes(sizes, q):
    """count_covered_lines of the lifted graph with these line sizes
    (collinear._line_sizes): all q^2 + q + 1 lines but the empty ones of
    slope s != 0.  z = 0 meets both infinite points, each horizontal line
    [1:0:0] and each vertical line [0:1:0]."""
    return q * q + q + 1 - sizes[q:].count(0)


def _veronese(f, pts):
    """The points' rows of the Veronese matrix: x^2, y^2, xy, xz, yz, z^2."""
    mul = _op_tables(f)[2]
    return [(mul[x][x], mul[y][y], mul[x][y], mul[x][z], mul[y][z], mul[z][z])
            for x, y, z in pts]


def _dot(ops, u, v):
    """The dot product of u and v over the op tables (add, sub, mul)."""
    add, _, mul = ops
    acc = 0
    for a, b in zip(u, v):
        if a:
            acc = add[acc][mul[a][b]]
    return acc


def conic_value(f, coeffs, pt):
    return _dot(_op_tables(f), coeffs, _veronese(f, [pt])[0])


def _eliminate(f, rows):
    """Gauss-Jordan on the first six columns of the list `rows`, in place:
    rows[k] ends as the row of the k-th returned pivot column, 1 there and
    cleared from every other row, and the rows past the pivots are zero in
    those six columns.  Further columns ride along."""
    _, sub, mul = _op_tables(f)
    pivots = []
    for c in range(6):
        r = len(pivots)
        for pr in range(r, len(rows)):
            if rows[pr][c]:
                break
        else:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        scale = mul[f.inv(rows[r][c])]
        piv = rows[r] = [scale[v] if v else 0 for v in rows[r]]
        for i, row in enumerate(rows):
            fac = row[c]
            if i != r and fac:
                scale = mul[fac]
                rows[i] = [sub[a][scale[b]] if b else a for a, b in zip(row, piv)]
        pivots.append(c)
    return pivots


def _kernel(f, rows, pivots):
    """The kernel vector of eliminated rows of rank 5: the free column set
    to 1 and each pivot column back-substituted."""
    free = next(c for c in range(6) if c not in pivots)
    kernel = [0] * 6
    kernel[free] = 1
    for row, c in zip(rows, pivots):
        kernel[c] = f.neg(row[free])
    return tuple(kernel)


def fit_conic(points, f):
    """The unique conic through the points, the kernel of their Veronese
    matrix with columns x^2, y^2, xy, xz, yz, z^2.

    Points are projective: each is normalized (ValueError on the zero
    vector) and counted once.  They are sorted before building the matrix so
    the certificate is byte-stable.  NoConic when no conic passes through all
    points, Ambiguous when more than a line of conics does."""
    pts = sorted({normalize_point(f, pt) for pt in points})
    if len(pts) < 5:
        raise ValueError("need at least 5 distinct points")
    rows = _veronese(f, pts)
    pivots = _eliminate(f, rows)
    if len(pivots) == 6:
        raise NoConic(f"no conic through the {len(pts)} points")
    if len(pivots) < 5:
        raise Ambiguous(f"conic fit has a {6 - len(pivots)}-dimensional solution space")
    return _conic_cert(f, _kernel(f, rows, pivots))


def _conic_cert(f, raw):
    """The conic of a nonzero coefficient vector, scaled so its first nonzero
    entry is 1, with its degeneracy flags (None in characteristic 2)."""
    lead = next(v for v in raw if v)
    inv = f.inv(lead)
    coeffs = tuple(f.mul(inv, v) for v in raw)
    nd = None
    if f.p != 2:
        nd = classify_conic(coeffs, f) == "nondegenerate_irreducible"
    return ConicCert(coeffs, None, nd, nd)


def classify_conic(coeffs, f):
    """Degeneracy test through the associated symmetric matrix (off-diagonal
    coefficients halved): full rank means nondegenerate and irreducible.
    Valid in odd characteristic only."""
    if f.p == 2:
        raise EvenCharacteristic("symmetric-matrix test needs odd q")
    a, b, c, d, e, ff = coeffs
    h = f.inv(2)
    c2, d2, e2 = f.mul(c, h), f.mul(d, h), f.mul(e, h)
    m = ((a, c2, d2), (c2, b, e2), (d2, e2, ff))
    det = f.sub(
        f.add(
            f.mul(m[0][0], f.sub(f.mul(m[1][1], m[2][2]), f.mul(m[1][2], m[2][1]))),
            f.mul(m[0][2], f.sub(f.mul(m[1][0], m[2][1]), f.mul(m[1][1], m[2][0]))),
        ),
        f.mul(m[0][1], f.sub(f.mul(m[1][0], m[2][2]), f.mul(m[1][2], m[2][0]))),
    )
    return "nondegenerate_irreducible" if det != 0 else "degenerate"


_UNIT_ROWS = [[int(i == j) for j in range(6)] for i in range(6)]


def _five_point_fits(f, rows):
    """The conics through five of six points, from one Gauss-Jordan pass over
    their 6x6 Veronese matrix M (`rows`) with I6 beside it.

    Entry i is (coefficients up to scale, indices of the six off the conic)
    for the unique conic through every point but i, or None when those five
    leave a pencil or more (Ambiguous).  When M is invertible, column i of
    its inverse vanishes on every point but i.  At rank 5 the kernel is the
    one conic through all six, and the five without i pin it exactly when
    row i has a nonzero coefficient in the one row dependency.  Below rank 5
    every five are Ambiguous."""
    aug = [list(row) + unit for row, unit in zip(rows, _UNIT_ROWS)]
    pivots = _eliminate(f, aug)
    if len(pivots) == 6:
        return [(tuple(row[6 + i] for row in aug), (i,)) for i in range(6)]
    if len(pivots) < 5:
        return [None] * 6
    kernel = _kernel(f, aug, pivots)
    return [(kernel, ()) if lam else None for lam in aug[5][6:]]


def _misses(ops, coeffs, rows, off):
    """Indices of the candidates off the conic, stopping at the second:
    `off` are those among the first six, the rest are evaluated."""
    out = list(off)
    for j in range(6, len(rows)):
        if len(out) == 2:
            break
        if _dot(ops, coeffs, rows[j]):
            out.append(j)
    return tuple(out)


def _drop_one_hits(candidates, f):
    """(p, conic) for each point p of the sorted candidates (at least six)
    whose rest admits a unique conic, and that conic misses p.

    Every conic through the rest passes through its first five points, which
    are five of the first six candidates, so the six five-point fits of one
    elimination decide every rest: when the five pin a unique conic the rest
    has a conic exactly when all of its points lie on that one, and a
    1-dimensional kernel normalizes to the same coefficients whichever points
    fit it.  So a rest is a hit exactly when its five-point conic misses the
    dropped point and nothing else; each distinct conic is evaluated once.
    Only five points that leave a pencil or more (Ambiguous) send the whole
    rest to fit_conic."""
    ops = _op_tables(f)
    rows = _veronese(f, candidates)
    fits = _five_point_fits(f, rows[:6])
    misses = {}
    hits = []
    for i, p in enumerate(candidates):
        fit = fits[min(i, 5)]
        if fit is None:
            try:
                cert = fit_conic(candidates[:i] + candidates[i + 1 :], f)
            except (NoConic, Ambiguous):
                continue
            if conic_value(f, cert.coeffs, p) != 0:
                hits.append((p, cert))
            continue
        coeffs, off = fit
        if coeffs not in misses:
            misses[coeffs] = _misses(ops, coeffs, rows, off)
        if misses[coeffs] == (i,):
            hits.append((p, _conic_cert(f, coeffs)))
    return hits


def _certify(perm):
    """certify_minimizer's checks; returns the certificate, the recognized
    fractional parameters it was checked against and the graph's line sizes,
    which the triple count and the nucleus check read.  The parameters are
    tested at the fitted pole, -gamma = the external point's x, in O(q)
    field operations; recognize_fractional's sweep of every pole runs only
    when that test fails, to tell fractional_recognition from
    external_point_matches_params."""
    f = perm.ctx
    if not isinstance(f, FieldSpec):
        raise ValueError(f"certificates need a finite field, got {f!r}")
    q = f.q
    if f.p == 2:
        raise EvenCharacteristic("certificates need odd q")
    if q < 5:
        raise FieldTooSmall(f"certificates need q >= 5, got {q}")
    sizes = _line_sizes(perm)
    if _slope_count(sizes, 3) != (q - 1) // 2:
        raise CertificateFailure(
            "minimizer_precondition", f"permutation has more than {(q-1)//2} triples"
        )
    hits = _drop_one_hits(sorted(lift_graph(perm)), f)
    if not hits:
        raise CertificateFailure("conic_fit", "no drop-one subset admits a unique conic")
    if len(hits) > 1:
        raise CertificateFailure("conic_fit", "external point is not unique")
    ext, cert = hits[0]
    if not cert.nondegenerate:
        raise CertificateFailure("nondegeneracy", f"conic {cert.coeffs} is degenerate")
    a, b = cert.coeffs[0], cert.coeffs[1]
    if a != 0 or b != 0:
        raise CertificateFailure("lemma_ab_zero", f"leading coefficients ({a}, {b})")
    if ext[2] != 1:
        raise CertificateFailure("external_point_affine", f"{ext} lies on z = 0")
    params = _fractional_at(f, perm.images, f.neg(ext[0])) or recognize_fractional(perm)
    if params is None:
        raise CertificateFailure("fractional_recognition", "no parameters reproduce perm")
    predicted = (f.neg(params.gamma), params.alpha, 1)
    if ext != predicted:
        raise CertificateFailure(
            "external_point_matches_params", f"fit gave {ext}, parameters give {predicted}"
        )
    # internal nucleus: each line through the point holds one other point.
    # [0:1:0] always is one: z = 0 holds [1:0:0], and each vertical line x = c
    # holds the one graph point (c, sigma(c)).  The lines through [1:0:0] are
    # z = 0 and the horizontals y = c, whose points sizes[:q] count.
    if any(m != 1 for m in sizes[:q]):
        raise CertificateFailure("internal_nucleus", f"{_INFINITE[0]} fails the nucleus test")
    return ConicCert(cert.coeffs, ext, True, True), params, sizes


def certify_minimizer(perm):
    """Full certificate for a (q-1)/2-triple permutation of GF(q), q odd
    (EvenCharacteristic otherwise, where the conic test does not apply) and
    q >= 5 (FieldTooSmall at q = 3, where a drop-one rest has four points,
    too few to fit a conic): a nondegenerate conic through q+1 of the lifted
    points with the leftover point external, conic coefficients with
    a = b = 0, external point affine and matching the recognized fractional
    parameters.

    The external point is found by drop-one fitting, not assumed: for q >= 5
    two distinct conics share at most 4 points, so only the genuine external
    point can leave a fittable q+1 subset.  First violated check is named in
    the CertificateFailure."""
    return _certify(perm)[0]


def certificate_bundle(perm):
    """Certificate plus its side computations, shaped for JSON output.  The
    covered-line count k* is read off the line sizes _certify computed
    (_covered_by_sizes)."""
    cert, params, sizes = _certify(perm)
    return {
        "coeffs": list(cert.coeffs),
        "external_point": list(cert.external_point),
        "k_star": _covered_by_sizes(sizes, perm.ctx.q),
        # certification fails unless both infinite points are internal nuclei
        "nucleus_checks": {"[1:0:0]": True, "[0:1:0]": True},
        "lemma_ab_zero": cert.coeffs[0] == 0 and cert.coeffs[1] == 0,
        "fractional_params": [params.alpha, params.beta, params.gamma],
    }
