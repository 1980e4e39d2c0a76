"""Projective lift, conic fitting, and the minimizer certificate chain."""

import hashlib
import itertools
import json
import random
from math import comb

import pytest

import collinea.classify as classify
from collinea.algebra import FieldSpec, RingSpec, field_make
from collinea.classify import (
    ConicCert,
    _conic_cert,
    _covered_by_sizes,
    _drop_one_hits,
    _five_point_fits,
    _join_sweep,
    _veronese,
    certificate_bundle,
    certify_minimizer,
    classify_conic,
    conic_value,
    count_covered_lines,
    fit_conic,
    lift_graph,
    normalize_point,
)
from collinea.collinear import (
    FracParams,
    PermGraph,
    _line_sizes,
    _op_tables,
    closed_form_minimizer,
    fractional_perm,
    reciprocal_perm,
)
from collinea.errors import (
    Ambiguous,
    CertificateFailure,
    EvenCharacteristic,
    FieldTooSmall,
    NoConic,
)
from collinea.plane import projective_plane
from collinea.search import SearchConfig, min_triples_field


def test_normalize_point():
    f5 = field_make(5)
    assert normalize_point(f5, (2, 4, 2)) == (1, 2, 1)
    assert normalize_point(f5, (3, 2, 0)) == (4, 1, 0)
    assert normalize_point(f5, (3, 0, 0)) == (1, 0, 0)
    with pytest.raises(ValueError):
        normalize_point(f5, (0, 0, 0))


def test_lift_sizes_and_round_trip():
    f5 = field_make(5)
    g5 = closed_form_minimizer(f5)
    om = lift_graph(g5)
    assert isinstance(om, frozenset) and len(om) == 7
    f3 = field_make(3)
    om3 = lift_graph(PermGraph(f3, (0, 1, 2)))
    assert len(om3) == 5
    assert (1, 0, 0) in om3 and (0, 1, 0) in om3
    affine = sorted((x, y) for x, y, z in om if z == 1)
    assert affine == [(x, g5.images[x]) for x in range(5)]


def test_infinite_points_are_internal_nuclei():
    rng = random.Random(9)
    for q in (5, 7, 9):
        f = field_make(q)
        base = list(range(q))
        for _ in range(5):
            rng.shuffle(base)
            perm = PermGraph(f, tuple(base))
            joins = _join_sweep(f, lift_graph(perm))
            # q+1 distinct joins with the q+1 other points
            assert [len(joins[inf]) for inf in ((1, 0, 0), (0, 1, 0))] == [q + 1, q + 1]
            # one graph point on each horizontal line, as _certify reads it
            assert _line_sizes(perm)[:q] == [1] * q


def test_affine_point_on_long_line_is_not_a_nucleus():
    f5 = field_make(5)
    om = lift_graph(PermGraph(f5, (0, 1, 2, 3, 4)))
    # y = x holds the four other affine points: three joins, not six
    assert len(_join_sweep(f5, om)[(1, 1, 1)]) == 3


def test_count_covered_lines_basics():
    f5 = field_make(5)
    assert count_covered_lines(set(), f5) == 0
    assert count_covered_lines({(0, 0, 1)}, f5) == 6
    assert count_covered_lines(lift_graph(closed_form_minimizer(f5)), f5) == 23


@pytest.mark.parametrize("q", [5, 7, 9, 11])
def test_covered_lines_of_the_closed_form(q):
    f = field_make(q)
    om = lift_graph(closed_form_minimizer(f))
    got = count_covered_lines(om, f)
    assert got == (q + 1) * (q + 2) // 2 + (q - 1) // 2
    # tight inclusion-exclusion: pair lines minus double counts plus triples
    assert got == (q + 1) * (q + 2) - comb(q + 2, 2) + (q - 1) // 2


@pytest.mark.parametrize("q", [4, 5, 7, 8, 9, 11])
def test_covered_lines_from_buckets_match_the_join_sweep(q):
    """Oracle: the line-size line count against the projective join sweep,
    on random permutations, the identity and (odd q) the closed form."""
    f = field_make(q)
    rng = random.Random(700 + q)
    perms = [PermGraph(f, tuple(range(q)))]
    if q % 2:
        perms.append(closed_form_minimizer(f))
    for _ in range(8):
        images = list(range(q))
        rng.shuffle(images)
        perms.append(PermGraph(f, tuple(images)))
    for perm in perms:
        got = _covered_by_sizes(_line_sizes(perm), q)
        assert got == count_covered_lines(lift_graph(perm), f), perm


def test_bundle_k_star_matches_the_join_sweep():
    f7 = field_make(7)
    gf7 = [PermGraph(f7, w) for w in
           min_triples_field(f7, SearchConfig(mode="enumerate_all_min")).witnesses]
    assert len(gf7) == 294
    for perm in gf7:
        assert certificate_bundle(perm)["k_star"] == count_covered_lines(lift_graph(perm), f7)


def test_covered_lines_against_plane_module():
    """Independent oracle: count through the plane module's line sets."""
    q = 5
    f = field_make(q)
    pp = projective_plane(f)
    om = lift_graph(closed_form_minimizer(f))
    index = {p: i for i, p in enumerate(_proj_points(q))}
    pts = {index[p] for p in om}
    oracle = sum(1 for ln in pp.lines if pts & set(ln))
    assert count_covered_lines(om, f) == oracle


def test_fit_conic_of_the_closed_form():
    f5 = field_make(5)
    pts = [(0, 0, 1), (2, 2, 1), (3, 4, 1), (4, 3, 1), (1, 0, 0)]
    cert = fit_conic(pts, f5)
    assert cert.coeffs == (0, 0, 1, 4, 4, 0)  # xy - xz - yz = 0
    assert cert.nondegenerate and cert.irreducible


def test_fit_conic_through_all_five_graph_points_is_degenerate():
    # (1, 1) is the external point, so forcing it onto the curve leaves only
    # the line pair (y - x)(y + x - 2)
    f5 = field_make(5)
    g5 = closed_form_minimizer(f5)
    pts = [(x, g5.images[x], 1) for x in range(5)]
    cert = fit_conic(pts, f5)
    assert cert.coeffs == (1, 4, 0, 3, 2, 0)
    assert not cert.nondegenerate


def test_fit_conic_two_line_configuration():
    f5 = field_make(5)
    pts = [(0, 0, 1), (0, 1, 1), (0, 1, 0), (1, 0, 1), (2, 0, 1)]
    cert = fit_conic(pts, f5)
    assert cert.coeffs == (0, 0, 1, 0, 0, 0)  # xy = 0
    assert not cert.nondegenerate


def test_fit_conic_failures():
    f5 = field_make(5)
    with pytest.raises(Ambiguous):
        fit_conic([(0, 0, 1), (1, 0, 1), (2, 0, 1), (3, 0, 1), (0, 1, 1)], f5)
    conic = [(0, 0, 1), (2, 2, 1), (3, 4, 1), (4, 3, 1), (1, 0, 0), (0, 1, 0)]
    with pytest.raises(NoConic):
        fit_conic(conic + [(1, 2, 1)], f5)
    with pytest.raises(ValueError):
        fit_conic([(0, 0, 1), (1, 1, 1), (2, 2, 1)], f5)


def test_fit_conic_counts_projective_points():
    f5 = field_make(5)
    # (0, 0, 2) is (0, 0, 1) rescaled: four distinct points, not five
    with pytest.raises(ValueError, match="at least 5 distinct points"):
        fit_conic([(0, 0, 1), (0, 0, 2), (1, 0, 1), (2, 1, 1), (3, 4, 1)], f5)
    with pytest.raises(ValueError, match="zero vector"):
        fit_conic([(0, 0, 0), (0, 0, 1), (2, 2, 1), (3, 4, 1), (4, 3, 1), (1, 0, 0)], f5)
    pts = [(0, 0, 1), (2, 2, 1), (3, 4, 1), (4, 3, 1), (1, 0, 0)]
    scaled = [tuple(f5.mul(c, v) for v in pt) for pt, c in zip(pts, (2, 3, 4, 2, 3))]
    assert fit_conic(scaled + pts[:2], f5) == fit_conic(pts, f5)


def _monomials(f, pt):
    x, y, z = pt
    return [f.mul(x, x), f.mul(y, y), f.mul(x, y), f.mul(x, z), f.mul(y, z), f.mul(z, z)]


def _vanishes(f, coeffs, monomials):
    acc = 0
    for c, m in zip(coeffs, monomials):
        acc = f.add(acc, f.mul(c, m))
    return acc == 0


@pytest.mark.parametrize("q", [3, 4, 5])
def test_fit_conic_matches_enumeration_oracle(q):
    """Seeded 5-8 point sets, each with rescaled copies of one point, against
    all q^6 coefficient vectors: NoConic exactly when only zero vanishes on
    the set, Ambiguous exactly when at least q^2 vectors do, and otherwise
    the one nonzero solution scaled to a leading 1."""
    f = field_make(q)
    rng = random.Random(1000 + q)
    pts = _proj_points(q)
    vectors = list(itertools.product(range(q), repeat=6))
    sets = []
    for n in (5, 6, 7, 8):
        for _ in range(3):
            sets.append(rng.sample(pts, n))
            # n points of a random conic, when it has that many
            conic = rng.choice(vectors[1:])
            on = [p for p in pts if _vanishes(f, conic, _monomials(f, p))]
            if len(on) >= n:
                sets.append(rng.sample(on, n))
            # four points of a random line: every conic through them holds it
            line = rng.choice(pts)
            on = [p for p in pts if _on_line(f, line, p)]
            sets.append(rng.sample(on, 4) + rng.sample([p for p in pts if p not in on], n - 4))
    outcomes = set()
    for chosen in sets:
        rows = [_monomials(f, p) for p in chosen]
        kernel = [v for v in vectors if all(_vanishes(f, v, r) for r in rows)]
        if len(kernel) == 1:
            want = "NoConic"
        elif len(kernel) >= q * q:
            want = "Ambiguous"
        else:
            assert len(kernel) == q
            want = next(v for v in kernel if any(v) and next(c for c in v if c) == 1)
        copies = [tuple(f.mul(c, v) for v in rng.choice(chosen)) for c in range(1, q)]
        try:
            got = fit_conic(chosen + copies, f).coeffs
        except NoConic:
            got = "NoConic"
        except Ambiguous:
            got = "Ambiguous"
        assert got == want, chosen
        outcomes.add(want if isinstance(want, str) else "unique")
    assert outcomes == {"NoConic", "Ambiguous", "unique"}


def test_classify_conic_examples():
    f5 = field_make(5)
    assert classify_conic((0, 0, 1, 4, 4, 0), f5) == "nondegenerate_irreducible"
    assert classify_conic((1, 0, 0, 0, 0, 0), f5) == "degenerate"
    assert classify_conic((0, 0, 1, 0, 0, 0), f5) == "degenerate"
    with pytest.raises(EvenCharacteristic):
        classify_conic((0, 0, 1, 0, 0, 0), field_make(4))


def test_certify_closed_form():
    f5 = field_make(5)
    cert = certify_minimizer(closed_form_minimizer(f5))
    assert cert.external_point == (1, 1, 1)
    assert cert.coeffs[0] == 0 and cert.coeffs[1] == 0
    assert cert.nondegenerate
    cert7 = certify_minimizer(closed_form_minimizer(field_make(7)))
    assert cert7.external_point == (1, 1, 1)


@pytest.mark.parametrize("q", [4, 8])
def test_certify_rejects_even_q(q):
    # the reciprocal map has 0 triples there, fewer than (q-1)/2, so the
    # precondition would give a false reason; the conic test needs odd q
    with pytest.raises(EvenCharacteristic):
        certify_minimizer(reciprocal_perm(field_make(q)))


def test_certify_rejects_q_below_5():
    # at q = 3 a drop-one rest has four points, too few to fit a conic
    f3 = field_make(3)
    for perm in (closed_form_minimizer(f3), PermGraph(f3, (0, 1, 2))):
        with pytest.raises(FieldTooSmall):
            certify_minimizer(perm)
        with pytest.raises(FieldTooSmall):
            certificate_bundle(perm)


def test_certify_rejects_a_ring():
    perm = PermGraph(RingSpec(9), tuple(range(9)))
    for certify in (certify_minimizer, certificate_bundle):
        with pytest.raises(ValueError, match=r"RingSpec\(n=9\)"):
            certify(perm)


def test_certify_rejects_non_minimizer():
    with pytest.raises(CertificateFailure) as e:
        certify_minimizer(PermGraph(field_make(5), (0, 1, 2, 3, 4)))
    assert e.value.check == "minimizer_precondition"


def test_certify_reciprocal_and_sampled_params():
    f7 = field_make(7)
    cert = certify_minimizer(reciprocal_perm(f7))
    assert cert.external_point == (0, 0, 1)
    f9 = field_make(9)
    rng = random.Random(42)
    done = 0
    while done < 10:
        a, b, g = (rng.randrange(9) for _ in range(3))
        if f9.mul(a, g) == b:
            continue
        perm = fractional_perm(f9, FracParams(a, b, g))
        cert = certify_minimizer(perm)
        # a = b = 0 puts both infinite points on the conic
        assert conic_value(f9, cert.coeffs, (1, 0, 0)) == 0
        assert conic_value(f9, cert.coeffs, (0, 1, 0)) == 0
        assert cert.external_point == (f9.neg(g), a, 1)
        done += 1


def test_certificate_bundle_shape():
    f5 = field_make(5)
    b = certificate_bundle(closed_form_minimizer(f5))
    assert b["coeffs"] == [0, 0, 1, 4, 4, 0]
    assert b["external_point"] == [1, 1, 1]
    assert b["k_star"] == 23
    assert b["nucleus_checks"] == {"[1:0:0]": True, "[0:1:0]": True}
    assert b["lemma_ab_zero"] is True
    assert b["fractional_params"] == [1, 0, 4]


def _proj_points(q):
    """PG(2, q) points in the order projective_plane numbers them."""
    return ([(x, y, 1) for x in range(q) for y in range(q)]
            + [(x, 1, 0) for x in range(q)] + [(1, 0, 0)])


def _on_line(f, coeffs, pt):
    (a, b, c), (x, y, z) = coeffs, pt
    return f.add(f.add(f.mul(a, x), f.mul(b, y)), f.mul(c, z)) == 0


@pytest.mark.parametrize("q", [4, 5, 7, 8, 9])
def test_count_covered_lines_against_line_sets(q):
    """Oracle: the lines of projective_plane that contain a point of the set,
    on random sets with repeats and rescaled copies of their points."""
    f = field_make(q)
    pts = _proj_points(q)
    index = {p: i for i, p in enumerate(pts)}
    lines = [set(ln) for ln in projective_plane(f).lines]
    rng = random.Random(q)
    sets = [[], [pts[0]], [pts[-1]], [pts[3], pts[3]]]
    for n in (2, 3, 4, q, q + 2, 2 * q, 3 * q):
        for _ in range(6):
            sets.append([rng.choice(pts) for _ in range(n)])
    for chosen in sets:
        scaled = [tuple(f.mul(c, v) for v in p)
                  for p in chosen for c in rng.sample(range(1, q), min(2, q - 1))]
        hit = {index[p] for p in chosen}
        oracle = sum(1 for ln in lines if ln & hit)
        assert count_covered_lines(chosen, f) == oracle
        assert count_covered_lines(scaled, f) == oracle


def _nucleus_by_line_sweep(f, omega, p):
    """Sweep all q^2+q+1 lines: does each one through p hold exactly one
    other point of the set?"""
    for coeffs in _proj_points(f.q):
        if _on_line(f, coeffs, p):
            if sum(1 for r in omega if _on_line(f, coeffs, r)) != 2:
                return False
    return True


@pytest.mark.parametrize("q", [4, 5, 7, 8, 9])
def test_is_internal_nucleus_against_line_sweep(q):
    """The nucleus condition read off the join sets (q+1 distinct joins on a
    (q+2)-point set), and _certify's slope-0 check on the lifted
    permutations, against a sweep of every line."""
    f = field_make(q)
    rng = random.Random(100 + q)
    pts = _proj_points(q)
    perms = []
    for _ in range(6):
        images = list(range(q))
        rng.shuffle(images)
        perms.append(PermGraph(f, tuple(images)))
    perms.append(PermGraph(f, tuple(range(q))))
    for perm in perms:
        # the horizontal-line check _certify makes for [1:0:0]
        got = all(m == 1 for m in _line_sizes(perm)[:q])
        assert got == _nucleus_by_line_sweep(f, lift_graph(perm), (1, 0, 0)), perm
    omegas = [lift_graph(perm) for perm in perms]
    identity = omegas[-1]
    # image 0 taken twice: y = 0 holds two points of the set, y = q-1 none
    omegas.append(identity - {(q - 1, q - 1, 1)} | {(q - 1, 0, 1)})
    for n in (3, q + 1, q + 2, q + 3):
        omegas.append(frozenset(rng.sample(pts, n)))
    seen = set()
    for om in omegas:
        joins = _join_sweep(f, om)
        for p in sorted(om):
            got = len(om) == q + 2 and len(joins[p]) == q + 1
            assert got == _nucleus_by_line_sweep(f, om, p), (om, p)
            seen.add(got)
    assert seen == {True, False}


def _drop_one_by_full_fits(candidates, f):
    """The drop-one search done naively: one fit of every q+1 point rest."""
    hits = []
    for p in candidates:
        rest = [pt for pt in candidates if pt != p]
        try:
            cert = fit_conic(rest, f)
        except (NoConic, Ambiguous):
            continue
        if conic_value(f, cert.coeffs, p) != 0:
            hits.append((p, cert))
    return hits


@pytest.mark.parametrize("q", [5, 7, 9, 11])
def test_drop_one_hits_match_full_fits(q):
    f = field_make(q)
    rng = random.Random(200 + q)
    pts = _proj_points(q)
    sets = [sorted(lift_graph(closed_form_minimizer(f)))]
    for _ in range(8):
        images = list(range(q))
        rng.shuffle(images)
        sets.append(sorted(lift_graph(PermGraph(f, tuple(images)))))
    # the line x = 0 holds the first points in sorted order, so the five
    # leading points of most rests lie four on a line and fit a pencil
    x_axis = [(0, y, 1) for y in range(q)]
    for k in (4, 5, q):
        for _ in range(4):
            extra = rng.sample([p for p in pts if p[0] or p[2] != 1], q + 2 - k)
            sets.append(sorted(set(x_axis[:k]) | set(extra)))
    # two lines and one point off both: only dropping that point leaves a
    # unique conic (the line pair xy = 0), reached through the full fit
    pair = [(0, 0, 1), (0, 1, 1), (0, 2, 1), (0, 3, 1), (1, 0, 1), (2, 0, 1), (3, 0, 1), (2, 2, 1)]
    sets.append(pair)
    found = 0
    for cand in sets:
        got = _drop_one_hits(cand, f)
        assert got == _drop_one_by_full_fits(cand, f)
        found += len(got)
    assert found
    assert _drop_one_hits(pair, f) == [((2, 2, 1), ConicCert((0, 0, 1, 0, 0, 0), None, False, False))]


@pytest.mark.parametrize("q", [5, 7, 8, 9, 11])
def test_five_point_fits_match_fit_conic(q):
    """Each branch of the elimination against fit_conic of every 5-subset:
    M invertible, rank 5 on a nondegenerate conic and on a line pair whose
    row dependency skips two rows, and rank 4."""
    f = field_make(q)
    parabola = [(t, f.mul(t, t), 1) for t in range(5)] + [(0, 1, 0)]  # yz = x^2
    cases = {
        # five points of the parabola and one point off it
        "external": parabola[:4] + [(0, 1, 0), (0, 1, 1)],
        "conic": parabola,
        # four points on x = 0 and two on y = 0: only xy = 0 holds all six
        "line_pair": [(0, y, 1) for y in range(1, 5)] + [(1, 0, 1), (2, 0, 1)],
        "rank_4": [(0, y, 1) for y in range(5)] + [(1, 1, 1)],
    }
    ambiguous = {}
    for name, six in cases.items():
        fits = _five_point_fits(f, _veronese(f, six))
        for i, fit in enumerate(fits):
            try:
                want = fit_conic(six[:i] + six[i + 1 :], f)
            except Ambiguous:
                want = None
            assert (None if fit is None else _conic_cert(f, fit[0])) == want, (name, i)
            if fit is not None:
                coeffs, off = fit
                assert off == tuple(j for j, pt in enumerate(six) if conic_value(f, coeffs, pt))
                if q == 8:
                    assert want.nondegenerate is None
                elif name in ("conic", "line_pair"):
                    assert want.nondegenerate is (name == "conic")
        ambiguous[name] = [fit is None for fit in fits]
        if name == "external":
            assert [fit[1] for fit in fits] == [(i,) for i in range(6)]
        if name == "conic":
            assert len(set(fits)) == 1 and fits[0][1] == ()
    assert ambiguous == {"external": [False] * 6, "conic": [False] * 6,
                         "line_pair": [False] * 4 + [True] * 2, "rank_4": [True] * 6}


def _bundle_digest(perms):
    h = hashlib.sha256()
    for perm in perms:
        h.update(json.dumps(certificate_bundle(perm), sort_keys=True).encode() + b"\n")
    return h.hexdigest()


def test_certificate_bundles_are_pinned():
    """Byte-for-byte bundles of every GF(9) minimizer, a fixed GF(25) sample
    of fractional maps, as the line-sweep certification gave them, and the
    GF(37) closed form with a seeded sample, above _KEEP_LINES, as the
    certification through FieldSpec calls gave them."""
    f9 = field_make(9)
    gf9 = [PermGraph(f9, w) for w in
           min_triples_field(f9, SearchConfig(mode="enumerate_all_min")).witnesses]
    assert len(gf9) == 648
    f25 = field_make(25)
    rng = random.Random(25)
    sample = []
    while len(sample) < 24:
        a, b, g = (rng.randrange(25) for _ in range(3))
        if f25.mul(a, g) != b:
            sample.append(fractional_perm(f25, FracParams(a, b, g)))
    assert _bundle_digest(gf9) == "a684ab4638de0d9abacf8e0c1914994389234dd55b52d25f87dd27a212d15fbb"
    assert _bundle_digest(sample) == "9f652e2fdf7f951fea496da14a054272602ea511aaeb4b1fd6785cf969baa669"
    gf37 = [closed_form_minimizer(field_make(37))] + _fractional_sample(37, 6, 37)
    assert _bundle_digest(gf37) == "2528d147b8c25b413e27b91cb10a1787648bf54cfb57238cbff491d89797b7c3"


def _fractional_sample(q, n, seed):
    f = field_make(q)
    rng = random.Random(seed)
    sample = []
    while len(sample) < n:
        a, b, g = (rng.randrange(q) for _ in range(3))
        if f.mul(a, g) != b:
            sample.append(fractional_perm(f, FracParams(a, b, g)))
    return sample


def test_prime_field_bundles_are_pinned():
    """Byte-for-byte bundles over prime fields: every GF(7) minimizer, and
    fixed GF(11) and GF(13) samples of fractional maps."""
    f7 = field_make(7)
    gf7 = [PermGraph(f7, w) for w in
           min_triples_field(f7, SearchConfig(mode="enumerate_all_min")).witnesses]
    assert len(gf7) == 294
    sample = _fractional_sample(11, 24, 11) + _fractional_sample(13, 24, 13)
    assert _bundle_digest(gf7) == "a2325110073e1cd2a27dc184b520561a5e20a8b9d8f1245fdb223ce13e26cfc0"
    assert _bundle_digest(sample) == "75a128e3d46e5fb9101ff56d0c2eaac961b5c1105d96e7015169db6f7d239530"


def _failure_perms(q):
    """Seeded images: random maps, affine maps and fractional maps, the last
    two also with two images swapped."""
    f = field_make(q)
    rng = random.Random(300 + q)
    out = []
    for _ in range(6):
        images = list(range(q))
        rng.shuffle(images)
        out.append(images)
    for _ in range(3):
        m, b = rng.randrange(1, q), rng.randrange(q)
        images = [f.add(f.mul(m, x), b) for x in range(q)]
        out.append(images[:])
        i, j = rng.sample(range(q), 2)
        images[i], images[j] = images[j], images[i]
        out.append(images)
    for perm in _fractional_sample(q, 4, 400 + q):
        images = list(perm.images)
        out.append(images[:])
        i, j = rng.sample(range(q), 2)
        images[i], images[j] = images[j], images[i]
        out.append(images)
    return f, out


FAILED_CHECKS = {
    5: "ok ok ok ok ok ok conic_fit ok conic_fit ok conic_fit ok ok ok ok ok ok ok ok ok",
    7: " ".join(["conic_fit"] * 12 + ["ok", "conic_fit"] * 4),
    9: " ".join(["conic_fit"] * 12 + ["ok", "conic_fit"] * 4),
    11: " ".join(["conic_fit"] * 12 + ["ok", "conic_fit"] * 4),
    13: " ".join(["conic_fit"] * 12 + ["ok", "conic_fit"] * 4),
}


@pytest.mark.parametrize("q", sorted(FAILED_CHECKS))
def test_failed_checks_past_the_precondition_are_pinned(q, monkeypatch):
    """With the triple count forced to (q-1)/2, every permutation reaches the
    conic checks; the first failed check of each is pinned."""
    monkeypatch.setattr(classify, "_slope_count", lambda sizes, r: (q - 1) // 2)
    f, perms = _failure_perms(q)
    names = []
    for images in perms:
        try:
            certify_minimizer(PermGraph(f, tuple(images)))
            names.append("ok")
        except CertificateFailure as e:
            names.append(e.check)
    assert names == FAILED_CHECKS[q].split()


_OPS = ("add", "sub", "neg", "mul", "inv", "div", "pow_")

# FieldSpec ops per call, exact counts once the field's kept lines hold the
# graph's cells and its op tables are built, so that the certificate's line
# facts and conic arithmetic cost none: the closed form, the reciprocal map,
# then four seeded fractional maps.  A join sweep of the lifted points would
# add 194-338 per certify_minimizer call and 356-1001 per certificate_bundle
# call, and fail.  GF(37) is above _KEEP_LINES and keeps neither: its counts
# are 2q^2 for the line ids plus every op of the conic arithmetic, which the
# call-through tables send to FieldSpec, and of the recognition at the pole.
OP_BOUNDS = {
    7: [63, 63, 63, 63, 67, 63],
    9: [71, 71, 75, 71, 75, 75],
    13: [87, 87, 91, 87, 91, 87],
    37: [3510, 3450, 3579, 3668, 3579, 3579],
}
# k* reads the sizes pass of the certificate it comes with: no op more
BUNDLE_OP_BOUNDS = OP_BOUNDS


def _field_ops(fn, q, monkeypatch):
    """FieldSpec calls made by each fn(perm) over the OP_BOUNDS maps, once
    the field's kept lines hold their cells and its op tables are built, so
    that no earlier call decides which calls fill them."""
    f = field_make(q)
    perms = [closed_form_minimizer(f), reciprocal_perm(f)] + _fractional_sample(q, 4, 500 + q)
    for perm in perms:
        _line_sizes(perm)
    _op_tables(f)
    count = [0]

    def counted(op):
        def wrapper(*args):
            count[0] += 1
            return op(*args)
        return wrapper

    for name in _OPS:
        monkeypatch.setattr(FieldSpec, name, counted(getattr(FieldSpec, name)))
    used = []
    for perm in perms:
        count[0] = 0
        fn(perm)
        used.append(count[0])
    return used


@pytest.mark.parametrize("q", sorted(OP_BOUNDS))
def test_certify_minimizer_field_ops_are_bounded(q, monkeypatch):
    used = _field_ops(certify_minimizer, q, monkeypatch)
    assert all(u <= bound for u, bound in zip(used, OP_BOUNDS[q])), used


@pytest.mark.parametrize("q", sorted(BUNDLE_OP_BOUNDS))
def test_certificate_bundle_field_ops_are_bounded(q, monkeypatch):
    used = _field_ops(certificate_bundle, q, monkeypatch)
    assert all(u <= bound for u, bound in zip(used, BUNDLE_OP_BOUNDS[q])), used
