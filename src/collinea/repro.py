"""Named reproduction scenarios for the toolkit's headline results.

Each claim re-derives one published-quality statement from scratch: minimum
triple counts over small fields, the fractional form of every minimizer, the
covered-line count and certificate of the lifted graphs, the char-2 zero
construction, the seven order-9 planes, the composite-modulus table, and the
cross-checks of claim 10.  `run_claim(i)` returns a JSON-ready dict with
"ok", "expected", "observed" and wall time; results are deterministic apart
from the elapsed field.

Claims 1-6 share one search per field order: the sorted enumeration of
every minimizer, cached per process.  Claim 1 reads psi off it, claim 2 the
lex-least minimizer (its first witness), and claims 3-6 the full list.

Claim 10 checks the plane axioms of AG(2, q) and of every bundled fixture,
the MOLS round trip and orthogonality, that the plane search over AG(2, q)
at classes (q, 0) finds the field search's psi and lex-least witness for
q = 3, 5, 7, and that a parallel GF(7) search agrees with the sequential one.
"""

import time
from functools import cache

from .algebra import RingSpec, field_make
from .classify import certify_minimizer, count_covered_lines, lift_graph
from .collinear import (
    FracParams,
    PermGraph,
    closed_form_minimizer,
    count_quadruples,
    count_triples,
    fractional_family,
    fractional_perm,
    reciprocal_perm,
    recognize_fractional,
)
from .errors import CertificateFailure, UsageError
from .fixtures import (
    AFFINE_FIXTURES,
    DISTINGUISHED_CLASSES,
    EXCEPTIONAL_FIXTURE,
    fixture_bytes,
    fixture_names,
)
from .mols import check_orthogonal, mols_from_plane, plane_from_mols
from .plane import affine_plane, load_plane, validate
from .search import SearchConfig, min_triples_field, min_triples_plane, min_triples_zn


@cache
def field_outcome(q):
    return min_triples_field(field_make(q), SearchConfig(mode="enumerate_all_min"))


def _claim(claim_id, title, expected, observed, ok):
    return {"claim": claim_id, "title": title, "ok": bool(ok),
            "expected": expected, "observed": observed}


def _claim_1():
    qs = (3, 5, 7, 9, 11, 13)
    expected = {q: (q - 1) // 2 for q in qs}
    observed = {q: field_outcome(q).psi for q in qs}
    return _claim(1, "minimum collinear triples over GF(q) is (q-1)/2",
                  expected, observed, observed == expected)


def _prefix_012_maps(f):
    """Images of the fractional maps with sigma(0), sigma(1), sigma(2) = 0, 1, 2.

    sigma(0) = 0 forces beta = 0 (or the pole at 0 with alpha = 0), and then
    sigma(1) = 1, sigma(2) = 2 leave x/(x-1) alone unless 2 = -1.  In
    characteristic 3, 1/x (patched 0 -> 0) and -x/(x+1) join it, and which of
    the three is least depends on how the adjoined root is encoded."""
    neg1 = f.neg(1)
    params = [FracParams(1, 0, neg1)]
    if f.p == 3:
        params += [FracParams(0, 1, 0), FracParams(neg1, 0, 1)]
    return {fractional_perm(f, pr).images for pr in params}


def _claim_2():
    observed = {}
    ok = True
    for q in (5, 7, 9, 11, 13):
        f = field_make(q)
        lex = field_outcome(q).witnesses[0]
        family = [pg.images for pg in fractional_family(f)]
        g = closed_form_minimizer(f).images
        least = lex == min(family)
        prefix = {im for im in family if im[:3] == (0, 1, 2)} == _prefix_012_maps(f)
        match = lex == g
        ok = ok and least and prefix and (match or f.p == 3)
        observed[q] = {"lex_least_is_least_fractional": least,
                       "prefix_012_maps_as_predicted": prefix,
                       "match": match, "lex_least": list(lex), "closed_form": list(g)}
    expected = {"lex_least_is_least_fractional": True,
                "prefix_012_maps_as_predicted": True,
                "match": {q: True for q in (5, 7, 11, 13)}}
    return _claim(2, "lex-least minimizer is the least fractional map; it is "
                     "x/(x-1) for p != 3 (at q = 9 only under modulus x^2+2x+2)",
                  expected, observed, ok)


def _claim_3():
    observed = {}
    ok = True
    for q in (5, 7):
        f = field_make(q)
        wits = [PermGraph(f, w) for w in field_outcome(q).witnesses]
        recog = all(recognize_fractional(w) is not None for w in wits)
        family = fractional_family(f)
        target = (q - 1) // 2
        converse = all(count_triples(pg) == target for pg in family)
        ok = ok and recog
        observed[q] = {
            "minimizers": len(wits),
            "all_recognized_fractional": recog,
            "valid_parameter_triples": len(family),
            "all_parameters_attain_minimum": converse,  # reported, not asserted
        }
    return _claim(3, "every minimum witness is an extended fractional map",
                  {"all_recognized_fractional": True}, observed, ok)


def _claim_4():
    observed = {}
    ok = True
    for q in (5, 7, 9):
        f = field_make(q)
        want = (q + 1) * (q + 2) // 2 + (q - 1) // 2
        ks = {count_covered_lines(lift_graph(PermGraph(f, w)), f)
              for w in field_outcome(q).witnesses}
        good = ks == {want}
        ok = ok and good
        observed[q] = {"expected_k": want, "observed_k": sorted(ks), "ok": good}
    return _claim(4, "lifted minimizer graphs cover (q+1)(q+2)/2 + (q-1)/2 lines",
                  {"single_value": True}, observed, ok)


def _claim_5():
    observed = {}
    ok = True
    for q in (5, 7, 9, 11, 13):
        f = field_make(q)
        wits = field_outcome(q).witnesses
        failures = 0
        for w in wits:
            try:
                certify_minimizer(PermGraph(f, w))
            except CertificateFailure:
                failures += 1
        ok = ok and failures == 0 and len(wits) == q * q * (q - 1)
        observed[q] = {"minimizers": len(wits), "certificate_failures": failures}
    return _claim(5, "conic/nucleus certificates succeed on every minimizer, "
                     "and there are q^2(q-1) of them",
                  {"certificate_failures": 0, "minimizers": "q^2(q-1)"}, observed, ok)


def _claim_6():
    observed = {}
    for q in (5, 7, 9):
        f = field_make(q)
        wits = field_outcome(q).witnesses
        observed[q] = {"minimizers": len(wits),
                       "max_quadruples": max(count_quadruples(PermGraph(f, w))
                                             for w in wits)}
    ok = all(v["max_quadruples"] == 0 for v in observed.values())
    return _claim(6, "no minimizer admits a collinear quadruple",
                  {"max_quadruples": 0}, observed, ok)


def _claim_7():
    observed = {}
    for q in (4, 8, 16):
        f = field_make(q)
        observed[q] = count_triples(reciprocal_perm(f))
    ok = all(v == 0 for v in observed.values())
    return _claim(7, "the reciprocal permutation has zero triples in char 2",
                  {q: 0 for q in (4, 8, 16)}, observed, ok)


def _load_fixtures(names):
    """Each named fixture, loaded once without the strict check, and its
    validation report, so that a broken fixture is reported, not raised."""
    planes = {name: load_plane(fixture_bytes(name), strict=False) for name in names}
    return planes, {name: validate(plane) for name, plane in planes.items()}


def _claim_8():
    expected = {name: 5 if name == EXCEPTIONAL_FIXTURE else 4
                for name in AFFINE_FIXTURES}
    planes, reports = _load_fixtures(AFFINE_FIXTURES)
    observed = {name: min_triples_plane(ap, *DISTINGUISHED_CLASSES).psi
                if reports[name].ok else reports[name].failures[0]
                for name, ap in planes.items()}
    return _claim(8, "order-9 plane minima at the pinned class pair (0, 1): 4 "
                     "everywhere, 5 for the deleted translation line",
                  expected, observed, observed == expected)


# Catalogued minima for composite moduli.  The reference table (OEIS A379299)
# is not reachable from this sandbox; these values were re-derived from
# scratch by tools/zn_oracle.py (exhaustive translation-reduced sweeps for
# n = 9, 10; pruned zero-witness searches for the rest).
ZN_EXPECTED = {4: 0, 6: 0, 8: 0, 9: 5, 10: 2, 12: 0}


def _claim_9():
    observed = {n: min_triples_zn(n).psi for n in sorted(ZN_EXPECTED)}
    hand = count_triples(PermGraph(RingSpec(4), (0, 1, 3, 2)))
    observed["hand_checked_witness_0132_triples"] = hand
    ok = all(observed[n] == ZN_EXPECTED[n] for n in ZN_EXPECTED) and hand == 0
    return _claim(9, "composite-modulus minima match the catalogued table",
                  ZN_EXPECTED, observed, ok)


def _claim_10():
    checks = {}

    axioms = all(validate(affine_plane(field_make(q))).ok
                 for q in (2, 3, 4, 5, 7, 8, 9))
    _, reports = _load_fixtures(fixture_names())
    axioms = axioms and all(report.ok for report in reports.values())
    checks["plane_axioms"] = axioms

    mols_ok = True
    for q in (3, 5, 7, 9):
        ap = affine_plane(field_make(q))
        squares = mols_from_plane(ap, q, 0)
        for i in range(len(squares)):
            for j in range(i + 1, len(squares)):
                mols_ok = mols_ok and check_orthogonal(squares[i], squares[j])
        back = plane_from_mols(squares)
        mols_ok = mols_ok and (
            {frozenset(ln) for ln in back.lines} == {frozenset(ln) for ln in ap.lines})
    checks["mols_round_trip_and_orthogonality"] = mols_ok

    same = True
    for q in (3, 5, 7):
        want = field_outcome(q)
        got = min_triples_plane(affine_plane(field_make(q)), q, 0)
        same = same and (got.psi, got.witnesses[0]) == (want.psi, want.witnesses[0])
    checks["affine_plane_search_matches_field_search"] = same

    f7 = field_make(7)
    seq = min_triples_field(f7, SearchConfig())
    par = min_triples_field(f7, SearchConfig(parallel_depth=2, threads=2))
    checks["sequential_parallel_agreement_q7"] = (
        seq.psi == par.psi and seq.witnesses == par.witnesses)

    return _claim(10, "cross-checking property suite",
                  {k: True for k in checks}, checks, all(checks.values()))


CLAIMS = {i: fn for i, fn in enumerate(
    (_claim_1, _claim_2, _claim_3, _claim_4, _claim_5,
     _claim_6, _claim_7, _claim_8, _claim_9, _claim_10), start=1)}


def run_claim(claim_id):
    if claim_id not in CLAIMS:
        raise UsageError(f"claim id must be 1..{len(CLAIMS)}, got {claim_id}")
    t0 = time.perf_counter()
    out = CLAIMS[claim_id]()
    out["elapsed"] = round(time.perf_counter() - t0, 3)
    return out
