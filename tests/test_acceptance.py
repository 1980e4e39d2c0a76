"""Acceptance gate: the ten numbered checks, one test per check, driven by
the shared claim registry (collinea.repro) so this suite and the `repro`
command cannot drift apart.  Each test prints a one-line verdict; run with -s
to watch them scroll by, or read the captured stdout of any failure.

Check 2 concerns the lexicographically least minimizer, which the paper
describes (the Cooper-Solymosi conjecture).  Lex order is order on the element
encoding: integers 0..q-1 read base p, with GF(9) pinned to the modulus
x^2 + 1.  The check therefore asserts what survives any encoding: the
exhaustive lex-least witness is the least member of the fractional family
(alpha*x + beta)/(x + gamma), rebuilt from its parameters.  The lex-least
minimizer starts 0, 1, 2.  For p != 3 only x/(x-1) in the family
has that prefix, so there the witness must equal the closed form.  In
characteristic 3, where 2 = -1, the prefix is shared by x/(x-1), 1/x (patched
0 -> 0) and -x/(x+1); which is least depends on the encoding of the adjoined
root.  Under x^2 + 1 it is -x/(x+1), giving (0,1,2,4,3,8,7,6,5) against the
closed form's (0,1,2,5,7,3,8,4,6); x/(x-1) comes first only under
x^2 + 2x + 2.  At q = 9 the closed-form comparison is reported, not asserted.
"""

import hashlib
import json

from collinea.fixtures import AFFINE_FIXTURES, EXCEPTIONAL_FIXTURE
from collinea.repro import run_claim

# SHA-256 of each claim's json.dumps output (insertion order) without its
# "elapsed" field: everything else a claim reports is deterministic.
CLAIM_DIGESTS = {
    1: "5c45c1401ee992473ab56bb3d8b0aaa39b61b18d5fe1246dd905c92ef012bcf9",
    2: "7599e5830dd2c8c532dadd81355104c5f0e27592b45493f6b19d78949f66c01f",
    3: "74007285dcfed5ec17b3b5793b4ecc6ead2b598ac7bc7539f27276d1b2d31ccc",
    4: "da785817dba5f65022e7a476821e0021b1d0353894d8a00f1dd8397963c0d3b8",
    5: "875564fa1172e138370ce77984b63d581cffa5cb3bcb96b69a05c0f681ad1acd",
    6: "9a963f76752bcf67264bb791a5201a8669244714ee845d2500192bac61280f2f",
    7: "f6f179e2cae94b9d88c9485f8797261e0acd33e59c7edcedecdb7a49e5f9d09b",
    8: "e785547ded7f2ec192b3c6e757799c71a0a5d047c8207cd2bff574b66309b3b9",
    9: "a336ff5870160a55055ff70b82d05ee56c735e683dd0b37d49ee06ee7505ff10",
    10: "1b50f0a169a8aeaeb736d8c13af8fbf37c138563ba272b0025d09bfbcd0fe9cb",
}


def _run(i, budget=None):
    out = run_claim(i)
    print(f"criterion {i}: {'PASS' if out['ok'] else 'FAIL'} - {out['title']}")
    if budget is not None:
        assert out["elapsed"] < budget, f"claim {i} took {out['elapsed']}s"
    assert out["ok"], json.dumps(out, indent=1)
    pinned = {k: v for k, v in out.items() if k != "elapsed"}
    assert hashlib.sha256(json.dumps(pinned).encode()).hexdigest() == CLAIM_DIGESTS[i], (
        json.dumps(pinned, indent=1))
    return out


def test_criterion_01_field_minima():
    out = _run(1, budget=11 * 60)
    assert out["observed"] == {3: 1, 5: 2, 7: 3, 9: 4, 11: 5, 13: 6}


def test_criterion_02_lex_least_equals_closed_form():
    out = _run(2)
    nine = out["observed"][9]
    assert nine["lex_least"] == [0, 1, 2, 4, 3, 8, 7, 6, 5]
    assert nine["closed_form"] == [0, 1, 2, 5, 7, 3, 8, 4, 6]
    assert nine["match"] is False
    for q in (5, 7, 11, 13):
        assert out["observed"][q]["match"] is True


def test_criterion_03_minimizers_are_fractional():
    out = _run(3)
    for q in (5, 7):
        o = out["observed"][q]
        print(f"  q={q}: {o['valid_parameter_triples']} valid parameterizations, "
              f"all attain the minimum: {o['all_parameters_attain_minimum']} (reported)")


def test_criterion_04_covered_line_count():
    out = _run(4)
    assert out["observed"][5]["expected_k"] == 23


def test_criterion_05_certificates():
    out = _run(5)
    assert out["observed"][13] == {"minimizers": 2028, "certificate_failures": 0}


def test_criterion_06_no_quadruples():
    _run(6)


def test_criterion_07_char2_zero_triples():
    out = _run(7, budget=1.0)
    assert out["observed"] == {4: 0, 8: 0, 16: 0}


def test_criterion_08_order9_planes():
    out = _run(8, budget=4 * 3600)
    for name in AFFINE_FIXTURES:
        assert out["observed"][name] == (5 if name == EXCEPTIONAL_FIXTURE else 4)


def test_criterion_09_composite_moduli():
    out = _run(9, budget=15 * 60)
    assert out["observed"]["hand_checked_witness_0132_triples"] == 0


def test_criterion_10_property_suites():
    out = _run(10)
    assert set(out["observed"]) == {
        "plane_axioms", "mols_round_trip_and_orthogonality",
        "affine_plane_search_matches_field_search", "sequential_parallel_agreement_q7"}
