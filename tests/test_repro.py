"""The claim registry's own contracts: claim 2's oracle, one field search per
order, and claims 8 and 10 reporting a broken fixture instead of raising."""

import json
from collections import Counter
from types import SimpleNamespace

import pytest

from collinea import repro
from collinea.algebra import field_make
from collinea.collinear import closed_form_minimizer
from collinea.fixtures import fixture_bytes


def test_claim_2_rejects_closed_form_as_lex_witness_at_q9(monkeypatch):
    def closed_form_outcome(q):
        return SimpleNamespace(witnesses=[closed_form_minimizer(field_make(q)).images])

    monkeypatch.setattr(repro, "field_outcome", closed_form_outcome)
    out = repro.run_claim(2)
    assert not out["ok"]
    assert [q for q, o in out["observed"].items()
            if not o["lex_least_is_least_fractional"]] == [9]


@pytest.fixture
def empty_field_cache():
    repro.field_outcome.cache_clear()
    yield
    repro.field_outcome.cache_clear()


def test_claims_1_to_6_search_each_field_order_once(monkeypatch, empty_field_cache):
    calls = Counter()

    def recorder(f, cfg=None):
        calls[f.q] += 1
        return SimpleNamespace(psi=(f.q - 1) // 2,
                               witnesses=(closed_form_minimizer(f).images,))

    monkeypatch.setattr(repro, "min_triples_field", recorder)
    for i in range(1, 7):
        repro.run_claim(i)
    assert calls == {q: 1 for q in (3, 5, 7, 9, 11, 13)}


def test_claim_10_reports_a_broken_fixture(monkeypatch):
    obj = json.loads(fixture_bytes("hall_projective"))
    obj["lines"].pop()
    broken = json.dumps(obj).encode()

    def bytes_with_a_line_missing(name):
        return broken if name == "hall_projective" else fixture_bytes(name)

    monkeypatch.setattr(repro, "fixture_bytes", bytes_with_a_line_missing)
    out = repro.run_claim(10)
    assert out["ok"] is False
    assert out["observed"]["plane_axioms"] is False


def test_claims_8_and_10_report_a_broken_affine_fixture(monkeypatch):
    obj = json.loads(fixture_bytes("ag_2_9"))
    obj["lines"].pop()
    broken = json.dumps(obj).encode()

    def bytes_with_a_line_missing(name):
        return broken if name == "ag_2_9" else fixture_bytes(name)

    monkeypatch.setattr(repro, "fixture_bytes", bytes_with_a_line_missing)
    out = repro.run_claim(8)
    assert out["ok"] is False
    assert out["observed"]["ag_2_9"] == "line count 89, expected 90"
    assert out["observed"]["hall_translation_deleted"] == 5
    out = repro.run_claim(10)
    assert out["ok"] is False
    assert out["observed"]["plane_axioms"] is False
    assert out["observed"]["affine_plane_search_matches_field_search"] is True
