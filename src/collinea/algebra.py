"""Exact arithmetic in GF(p^k) and Z_n.

Field elements are encoded as integers 0..q-1 read base-p: the digits are the
coefficients of the residue polynomial, constant term in the least significant
digit.  The encoding gives every field a canonical total order, which the rest
of the toolkit relies on whenever permutations are compared lexicographically.
"""

from dataclasses import dataclass
from functools import lru_cache

from .errors import DivisionByZero, NotPrimePower

# Extension fields up to this order get dense op tables; beyond it every
# operation falls back to polynomial arithmetic.
_TABLE_LIMIT = 1024


def _digits(e, p, k):
    out = []
    for _ in range(k):
        out.append(e % p)
        e //= p
    return out


def _undigits(ds, p):
    e = 0
    for d in reversed(ds):
        e = e * p + d
    return e


def _poly_divmod(num, den, p):
    """Divide coefficient lists (constant term first) over GF(p)."""
    num = list(num)
    dn = len(den) - 1
    while len(den) > 1 and den[-1] == 0:
        den = den[:-1]
        dn -= 1
    inv_lead = pow(den[-1], p - 2, p)
    quot = [0] * max(len(num) - dn, 0)
    for i in range(len(num) - 1, dn - 1, -1):
        c = num[i] % p
        if c == 0:
            continue
        f = (c * inv_lead) % p
        quot[i - dn] = f
        for j, d in enumerate(den):
            num[i - dn + j] = (num[i - dn + j] - f * d) % p
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return quot, num


def _poly_is_zero(poly):
    return all(c == 0 for c in poly)


def _irreducible(coeffs, p):
    """Monic polynomial irreducible over GF(p)?  Trial division by every monic
    polynomial of degree 1..deg/2; fine at the orders this toolkit targets."""
    k = len(coeffs) - 1
    for d in range(1, k // 2 + 1):
        for m in range(p**d):
            den = _digits(m, p, d) + [1]
            _, rem = _poly_divmod(coeffs, den, p)
            if _poly_is_zero(rem):
                return False
    return True


@dataclass(frozen=True)
class FieldSpec:
    """Arithmetic context for GF(p^k).  `modulus` holds the k+1 coefficients of
    the monic reduction polynomial, constant term first; empty for k = 1."""

    p: int
    k: int
    modulus: tuple = ()

    @property
    def q(self):
        return self.p**self.k

    def elements(self):
        return range(self.q)

    # -- arithmetic -------------------------------------------------------
    # Extension fields index dense tables, kept on the instance by _load_ops
    # on first use so an op costs one list index and no hash.  The ops stay
    # class attributes: wrapping them on the class must reach every call.

    _ops = None

    def add(self, a, b):
        if self.k == 1:
            return (a + b) % self.p
        t = self._ops or self._load_ops()
        if t is not None:
            return t.add[a][b]
        p = self.p
        da, db = _digits(a, p, self.k), _digits(b, p, self.k)
        return _undigits([(x + y) % p for x, y in zip(da, db)], p)

    def sub(self, a, b):
        if self.k == 1:
            return (a - b) % self.p
        t = self._ops or self._load_ops()
        if t is not None:
            return t.add[a][t.neg[b]]
        return self.add(a, self.neg(b))

    def neg(self, a):
        if self.k == 1:
            return (-a) % self.p
        t = self._ops or self._load_ops()
        if t is not None:
            return t.neg[a]
        p = self.p
        return _undigits([(-x) % p for x in _digits(a, p, self.k)], p)

    def mul(self, a, b):
        if self.k == 1:
            return (a * b) % self.p
        t = self._ops or self._load_ops()
        if t is not None:
            return t.mul[a][b]
        return self._polymul(a, b)

    def inv(self, a):
        if a == 0:
            raise DivisionByZero("inverse of zero")
        if self.k == 1:
            return pow(a, self.p - 2, self.p)
        t = self._ops or self._load_ops()
        if t is not None:
            return t.inv[a]
        return self.pow_(a, self.q - 2)

    def div(self, a, b):
        if b == 0:
            raise DivisionByZero("division by zero")
        return self.mul(a, self.inv(b))

    def pow_(self, a, e):
        if e < 0:
            raise ValueError("exponent must be nonnegative")
        r, base = 1, a
        while e:
            if e & 1:
                r = self.mul(r, base)
            base = self.mul(base, base)
            e >>= 1
        return r

    def _load_ops(self):
        """The shared op tables of this field, stored on the instance (None
        above _TABLE_LIMIT).  They stay out of __eq__, __hash__, repr and
        pickles, which see only p, k and modulus."""
        t = _tables(self)
        object.__setattr__(self, "_ops", t)
        return t

    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop("_ops", None)
        return state

    def _polymul(self, a, b):
        p, k = self.p, self.k
        da, db = _digits(a, p, k), _digits(b, p, k)
        prod = [0] * (2 * k - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    prod[i + j] = (prod[i + j] + x * y) % p
        _, rem = _poly_divmod(prod, list(self.modulus), p)
        rem += [0] * (k - len(rem))
        return _undigits(rem[:k], p)


class _OpTables:
    __slots__ = ("add", "neg", "mul", "inv")

    def __init__(self, spec):
        q, p, k = spec.q, spec.p, spec.k
        digs = [_digits(e, p, k) for e in range(q)]
        self.neg = [_undigits([(-x) % p for x in digs[e]], p) for e in range(q)]
        self.add = [
            [_undigits([(x + y) % p for x, y in zip(digs[a], digs[b])], p) for b in range(q)]
            for a in range(q)
        ]
        self.mul = [[spec._polymul(a, b) for b in range(q)] for a in range(q)]
        self.inv = [0] * q
        for a in range(1, q):
            self.inv[self.mul[a].index(1)] = a


@lru_cache(maxsize=None)
def _tables(spec):
    if spec.q > _TABLE_LIMIT:
        return None
    return _OpTables(spec)


@dataclass(frozen=True)
class RingSpec:
    """Arithmetic context for Z_n.  No division: Z_n has zero divisors."""

    n: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("ring modulus must be at least 2")

    def elements(self):
        return range(self.n)

    def add(self, a, b):
        return (a + b) % self.n

    def sub(self, a, b):
        return (a - b) % self.n

    def mul(self, a, b):
        return (a * b) % self.n

    def neg(self, a):
        return (-a) % self.n


def field_make(q):
    """Build the FieldSpec of order q = p^k, choosing for k > 1 the
    lexicographically least monic irreducible modulus (high-to-low coefficient
    vectors compared as base-p numbers).  Raises NotPrimePower otherwise."""
    if q < 2:
        raise NotPrimePower(f"{q} is not a prime power")
    p = None
    for d in range(2, q + 1):
        if d * d > q:
            p = q  # q itself is prime
            break
        if q % d == 0:
            p = d
            break
    k, m = 0, q
    while m % p == 0:
        m //= p
        k += 1
    if m != 1:
        raise NotPrimePower(f"{q} is not a prime power")
    if k == 1:
        return FieldSpec(p, 1, ())
    for upper in range(q):
        coeffs = _digits(upper, p, k) + [1]
        if _irreducible(coeffs, p):
            return FieldSpec(p, k, tuple(coeffs))
    raise AssertionError("no irreducible polynomial found")  # unreachable

