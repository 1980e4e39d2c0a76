"""The benchmark's oracle agrees with collinea on correct results and catches
corrupted ones: a swapped witness pair, a wrong psi, a dropped minimizer, a
wrong certificate."""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import pytest  # noqa: E402

import oracle  # noqa: E402
from collinea import (PermGraph, certificate_bundle, field_make,  # noqa: E402
                      load_fixture, min_triples_plane)


@pytest.fixture(scope="module")
def gf9():
    F = oracle.Field(9)
    return F, oracle.fractional_family(F)


@pytest.mark.parametrize("q", [7, 8, 9, 11, 13, 25])
def test_field_tables_follow_the_pinned_encoding(q):
    F, f = oracle.Field(q), field_make(q)
    assert all(F.add[a][b] == f.add(a, b) and F.mul[a][b] == f.mul(a, b)
               for a in range(q) for b in range(q))


def test_family_is_the_minimizer_set(gf9):
    F, fam = gf9
    assert len(fam) == 9 * 9 * 8
    assert min(fam) == (0, 1, 2, 4, 3, 8, 7, 6, 5)
    assert {oracle.triples(F, w) for w in fam} == {4}
    assert oracle.check_field_enumeration(F, 4, sorted(fam), fam) == []
    assert oracle.check_field_min(F, 4, min(fam), fam) == []


def test_swapped_witness_pair_fails(gf9):
    F, fam = gf9
    ws = sorted(fam)
    ws[10], ws[11] = ws[11], ws[10]
    assert oracle.check_field_enumeration(F, 4, ws, fam)


def test_dropped_minimizer_fails(gf9):
    F, fam = gf9
    ws = sorted(fam)
    del ws[100]
    assert oracle.check_field_enumeration(F, 4, ws, fam)


def test_wrong_psi_fails(gf9):
    F, fam = gf9
    assert oracle.check_field_enumeration(F, 5, sorted(fam), fam)
    assert oracle.check_field_min(F, 3, min(fam), fam)
    assert oracle.check_zn(9, 4, (0, 1, 2, 3, 4, 5, 6, 7, 8), 5, lambda n, w: 5)


def test_non_least_witness_fails(gf9):
    F, fam = gf9
    second = sorted(fam)[1]
    probs = oracle.check_field_min(F, 4, second, fam)
    assert len(probs) == 1 and "least" in probs[0]


def test_certificate_check():
    F = oracle.Field(7)
    params = (3, 1, 2)
    images = oracle.fractional_map(F, *params)
    bundle = certificate_bundle(PermGraph(field_make(7), images))
    assert oracle.check_certificate(F, images, params, bundle) == []
    moved = dict(bundle, external_point=[0, params[0], 1])
    assert oracle.check_certificate(F, images, params, moved)
    assert oracle.check_certificate(F, images, params, dict(bundle, k_star=bundle["k_star"] - 1))
    conic = list(bundle["coeffs"])
    conic[5] = (conic[5] + 1) % 7
    assert oracle.check_certificate(F, images, params, dict(bundle, coeffs=conic))


def test_plane_checks():
    name = "hall_translation_deleted"
    plane = oracle.RawPlane(name)
    truth = plane.minimizers()
    psi, ws = truth
    assert (psi, len(ws)) == (5, 3888)
    out = min_triples_plane(load_fixture(name), 0, 1)
    assert oracle.check_plane(plane, out.psi, out.witnesses, truth) == []
    assert oracle.check_plane(plane, 4, out.witnesses, truth)
    assert oracle.check_plane(plane, 5, ws[1:2], truth)  # not the lex-least
    assert oracle.check_plane(plane, 5, ws, truth, enumeration=True) == []
    assert oracle.check_plane(plane, 5, ws[:-1], truth, enumeration=True)
    swapped = ws[:2][::-1] + ws[2:]
    assert oracle.check_plane(plane, 5, swapped, truth, enumeration=True)
