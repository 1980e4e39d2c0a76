"""Field/ring arithmetic checked against exhaustive axiom sweeps."""

import itertools
import pickle
import random

import pytest

from collinea import algebra
from collinea.algebra import (
    _TABLE_LIMIT,
    FieldSpec,
    RingSpec,
    _digits,
    _undigits,
    field_make,
)
from collinea.errors import DivisionByZero, NotPrimePower

ORDERS = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27]


def test_field_make_moduli_pinned():
    # lex-least monic irreducible, high-to-low coefficient order
    assert field_make(4).modulus == (1, 1, 1)
    assert field_make(8).modulus == (1, 1, 0, 1)
    assert field_make(9).modulus == (1, 0, 1)
    assert field_make(16).modulus == (1, 1, 0, 0, 1)
    assert field_make(7) == FieldSpec(7, 1, ())


def test_field_make_rejects_non_prime_powers():
    for q in (0, 1, 6, 10, 12, 15, 100):
        with pytest.raises(NotPrimePower):
            field_make(q)


def test_field_make_deterministic():
    assert field_make(9) == field_make(9)
    assert field_make(16).modulus == field_make(16).modulus


@pytest.mark.parametrize("q", ORDERS)
def test_field_axioms_exhaustive(q):
    """Every listed order: full commutativity/identity/inverse sweeps, plus
    associativity and distributivity over all triples."""
    f = field_make(q)
    els = list(f.elements())
    assert len(els) == q
    for a in els:
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.mul(a, 0) == 0
        assert f.add(a, f.neg(a)) == 0
        if a != 0:
            assert f.mul(a, f.inv(a)) == 1
        for b in els:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
    for a, b, c in itertools.product(els, repeat=3):
        assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


@pytest.mark.parametrize("q", ORDERS)
def test_multiplicative_order_divides(q):
    f = field_make(q)
    for a in range(1, q):
        assert f.pow_(a, q - 1) == 1


@pytest.mark.parametrize("q", [4, 8, 9, 16, 25, 27])
def test_characteristic(q):
    f = field_make(q)
    acc = 0
    for _ in range(f.p):
        acc = f.add(acc, 1)
    assert acc == 0


def test_encoding_is_base_p():
    f = field_make(9)
    # 5 encodes 2 + x; doubling it gives 1 + 2x = 7
    assert f.add(5, 5) == 7
    assert f.mul(3, 3) == f.neg(1)  # x^2 = -1 under modulus x^2 + 1


FIELD_OPS = ("add", "sub", "neg", "mul", "inv", "div", "pow_")


@pytest.mark.parametrize("q", [4, 8, 9, 25, 27])
def test_table_ops_match_polynomial_arithmetic(q):
    """Every op over every pair against digit-wise addition and _polymul."""
    f = field_make(q)
    p, k = f.p, f.k
    digs = [_digits(e, p, k) for e in range(q)]
    for a in range(q):
        neg = _undigits([(-x) % p for x in digs[a]], p)
        assert f.neg(a) == neg
        if a:
            assert f._polymul(a, f.inv(a)) == 1
        power = 1
        for e in range(4):
            assert f.pow_(a, e) == power
            power = f._polymul(power, a)
        for b in range(q):
            assert f.add(a, b) == _undigits([(x + y) % p for x, y in zip(digs[a], digs[b])], p)
            assert f.sub(a, b) == _undigits([(x - y) % p for x, y in zip(digs[a], digs[b])], p)
            assert f.mul(a, b) == f._polymul(a, b)
            if b:
                assert f._polymul(f.div(a, b), b) == a


@pytest.mark.parametrize("q", [25, 27])
def test_fallback_ops_match_the_tables(q, monkeypatch):
    """Above _TABLE_LIMIT every op runs on digit vectors and _polymul; forced
    on a small field, each must agree with the tables at every pair."""
    tabled = field_make(q)
    assert tabled._load_ops() is not None
    monkeypatch.setattr(algebra, "_tables", lambda spec: None)
    f = FieldSpec(tabled.p, tabled.k, tabled.modulus)
    assert f._load_ops() is None
    for a in range(q):
        assert f.neg(a) == tabled.neg(a)
        if a:
            assert f.inv(a) == tabled.inv(a)
        for b in range(q):
            for op in ("add", "sub", "mul") + (("div",) if b else ()):
                assert getattr(f, op)(a, b) == getattr(tabled, op)(a, b), (op, a, b)


@pytest.mark.parametrize("q", [2048, 2187])
def test_untabled_fields_keep_the_axioms(q):
    f = field_make(q)
    assert q > _TABLE_LIMIT and f._load_ops() is None
    rng = random.Random(q)
    for _ in range(100):
        a, b, c = (rng.randrange(q) for _ in range(3))
        assert f.add(a, b) == f.add(b, a) and f.mul(a, b) == f.mul(b, a)
        assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
        assert f.add(a, f.neg(a)) == 0 and f.sub(f.add(a, b), b) == a
        if a:
            assert f.mul(a, f.inv(a)) == 1 and f.div(f.mul(a, b), a) == b


def test_loaded_tables_leave_identity_alone():
    used, fresh = field_make(9), field_make(9)
    assert used.sub(2, 3) == 8  # loads the op tables of `used` only
    assert used == fresh and hash(used) == hash(fresh) == hash((3, 2, (1, 0, 1)))
    assert repr(used) == repr(fresh) == "FieldSpec(p=3, k=2, modulus=(1, 0, 1))"
    copy = pickle.loads(pickle.dumps(used))
    assert copy == used and copy.mul(3, 3) == 2
    assert pickle.dumps(used) == pickle.dumps(fresh)  # the tables stay behind
    # no instance attribute hides an op from a wrapper set on the class
    assert not set(vars(used)) & set(FIELD_OPS)


def test_ops_defined_on_the_class_see_every_call(monkeypatch):
    f = field_make(9)
    f.mul(1, 1)
    calls = []
    plain = FieldSpec.mul

    def counted(self, a, b):
        calls.append((a, b))
        return plain(self, a, b)

    monkeypatch.setattr(FieldSpec, "mul", counted)
    assert f.mul(3, 3) == 2 and f.div(2, 3) == f.mul(2, f.inv(3))
    assert len(calls) == 3


def test_division_by_zero():
    f = field_make(9)
    with pytest.raises(DivisionByZero):
        f.inv(0)
    with pytest.raises(DivisionByZero):
        f.div(3, 0)


def test_ring_rejects_small_modulus():
    with pytest.raises(ValueError):
        RingSpec(1)
