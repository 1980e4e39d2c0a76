"""Reference computations the benchmark checks collinea's results against.

Nothing here imports collinea.  Field arithmetic is rebuilt from the prime
and, for extension fields, from the pinned modulus; elements use the same
base-p encoding (constant coefficient in the least significant digit), so a
permutation here and in collinea is the same tuple of images.  Collinearity
is the raw 3x3 determinant; planes are read straight from the fixture JSON.
Z_n counts come from tools/zn_oracle.py, itself free of package imports.

Each check_* function returns a list of problems, empty when the result is
right, so the benchmark can count them and its tests can show that a
corrupted result is caught.

Run as a script to re-derive a plane's minimum and minimizer count from raw
incidence by a search of its own:

    python3 perfbench/oracle.py plane hall_translation_deleted
"""

import json
import os
import sys
from itertools import combinations
from math import comb

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURE_DIR = os.path.join(ROOT, "src", "collinea", "data")

# The lexicographically least monic irreducible of each degree, constant
# coefficient first: the moduli collinea's field_make is pinned to.
MODULI = {
    8: (2, (1, 1, 0, 1)),
    9: (3, (1, 0, 1)),
    25: (5, (2, 0, 1)),
}


def _is_prime(n):
    return n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))


class Field:
    """GF(q) as dense add/mul tables over the integer encoding 0..q-1."""

    def __init__(self, q):
        if q in MODULI:
            p, mod = MODULI[q]
        elif _is_prime(q):
            p, mod = q, None
        else:
            raise ValueError(f"no pinned modulus for q = {q}")
        self.q, self.p = q, p
        k = 1 if mod is None else len(mod) - 1
        digits = []
        for e in range(q):
            ds = []
            for _ in range(k):
                ds.append(e % p)
                e //= p
            digits.append(ds)

        def enc(ds):
            e = 0
            for d in reversed(ds):
                e = e * p + d
            return e

        def polymul(da, db):
            prod = [0] * (2 * k - 1)
            for i, x in enumerate(da):
                for j, y in enumerate(db):
                    prod[i + j] = (prod[i + j] + x * y) % p
            for i in range(len(prod) - 1, k - 1, -1):  # reduce by the monic modulus
                c = prod[i]
                if c:
                    for j in range(k + 1):
                        prod[i - k + j] = (prod[i - k + j] - c * mod[j]) % p
            return prod[:k]

        self.add = [[enc([(x + y) % p for x, y in zip(digits[a], digits[b])])
                     for b in range(q)] for a in range(q)]
        if mod is None:
            self.mul = [[a * b % q for b in range(q)] for a in range(q)]
        else:
            self.mul = [[enc(polymul(digits[a], digits[b])) for b in range(q)]
                        for a in range(q)]
        self.neg = [self.add[a].index(0) for a in range(q)]
        self.inv = [None] + [self.mul[a].index(1) for a in range(1, q)]

    def sub(self, a, b):
        return self.add[a][self.neg[b]]


def det_zero(F, p1, p2, p3):
    (x1, y1), (x2, y2), (x3, y3) = p1, p2, p3
    m, a, s = F.mul, F.add, F.sub
    return a[a[m[x1][s(y2, y3)]][m[x2][s(y3, y1)]]][m[x3][s(y1, y2)]] == 0


def triples(F, images):
    """Collinear triples of the graph {(x, images[x])}, by determinants."""
    pts = list(enumerate(images))
    return sum(1 for t in combinations(pts, 3) if det_zero(F, *t))


def fractional_map(F, alpha, beta, gamma):
    """x -> (alpha x + beta)/(x + gamma), patched by -gamma -> alpha."""
    pole = F.neg[gamma]
    return tuple(
        alpha if x == pole
        else F.mul[F.add[F.mul[alpha][x]][beta]][F.inv[F.add[x][gamma]]]
        for x in range(F.q))


def fractional_family(F):
    """Every patched fractional permutation, mapped to its (alpha, beta,
    gamma); the q^2(q-1) parameter triples give distinct maps."""
    fam = {}
    for a in range(F.q):
        for g in range(F.q):
            for b in range(F.q):
                if F.mul[a][g] != b:
                    fam[fractional_map(F, a, b, g)] = (a, b, g)
    return fam


def odd_psi(q):
    return (q - 1) // 2


def covered_lines(q):
    """k* for a minimizer: conic plus one external point meets this many of
    the q^2+q+1 projective lines."""
    return (q + 1) * (q + 2) // 2 + (q - 1) // 2


def conic_at(F, coeffs, pt):
    a, b, c, d, e, f = coeffs
    x, y, z = pt
    m, ad = F.mul, F.add
    terms = (m[a][m[x][x]], m[b][m[y][y]], m[c][m[x][y]],
             m[d][m[x][z]], m[e][m[y][z]], m[f][m[z][z]])
    acc = 0
    for t in terms:
        acc = ad[acc][t]
    return acc


def _meet(a, b):
    (pt,) = a & b  # two lines of different classes share exactly one point
    return pt


class RawPlane:
    """An affine plane fixture read as bare incidence sets, coordinatized by
    its pinned parallel classes (0, 1): row i is line i of class 0, column j
    line j of class 1, and only the other lines count triples."""

    def __init__(self, name):
        with open(os.path.join(FIXTURE_DIR, name + ".json")) as fh:
            obj = json.load(fh)
        self.name = name
        self.order = obj["order"]
        lines = [frozenset(ln) for ln in obj["lines"]]
        rows, cols = obj["parallel_classes"][0], obj["parallel_classes"][1]
        self.grid = [[_meet(lines[r], lines[c]) for c in cols] for r in rows]
        skip = set(rows) | set(cols)
        self.lines = [ln for i, ln in enumerate(lines) if i not in skip]

    def triples(self, cols):
        """C(m, 3) summed over the counting lines, where m counts the chosen
        points grid[i][cols[i]] on the line."""
        chosen = {self.grid[i][j] for i, j in enumerate(cols)}
        return sum(comb(len(ln & chosen), 3) for ln in self.lines)

    def minimizers(self):
        """(psi, all minimizing column tuples in lex order), by a row-by-row
        search of its own that prunes only counts above the best so far."""
        q = self.order
        on = {}
        for li, ln in enumerate(self.lines):
            for pt in ln:
                on.setdefault(pt, []).append(li)
        keys = [[on[self.grid[i][j]] for j in range(q)] for i in range(q)]
        cnt = [0] * len(self.lines)
        best = [comb(q, 3) + 1]
        found = []
        cols = []

        def rec(i, used, cost):
            if i == q:
                if cost < best[0]:
                    best[0] = cost
                    found.clear()
                found.append(tuple(cols))
                return
            for j in range(q):
                if used >> j & 1:
                    continue
                ks = keys[i][j]
                add = 0
                for li in ks:
                    add += cnt[li] * (cnt[li] - 1) // 2
                    cnt[li] += 1
                if cost + add <= best[0]:
                    cols.append(j)
                    rec(i + 1, used | 1 << j, cost + add)
                    cols.pop()
                for li in ks:
                    cnt[li] -= 1

        rec(0, 0, 0)
        return best[0], found


# -- checks --------------------------------------------------------------


def check_strictly_increasing(witnesses):
    for a, b in zip(witnesses, witnesses[1:]):
        if not tuple(a) < tuple(b):
            return [f"witnesses out of lex order or repeated: {list(a)} then {list(b)}"]
    return []


def check_field_min(F, psi, witness, family=None):
    """psi is (q-1)/2 for odd q and 0 in characteristic 2; the witness
    recounts to psi; for odd q it is the least member of the family."""
    q = F.q
    want = 0 if F.p == 2 else odd_psi(q)
    probs = []
    if psi != want:
        probs.append(f"GF({q}): psi {psi}, expected {want}")
    got = triples(F, witness)
    if got != want:
        probs.append(f"GF({q}): witness {list(witness)} has {got} triples, expected {want}")
    if family is not None and tuple(witness) != min(family):
        probs.append(f"GF({q}): witness {list(witness)} is not the least family "
                     f"member {list(min(family))}")
    return probs


def check_field_enumeration(F, psi, witnesses, family):
    """Exactly the q^2(q-1) family members, strictly increasing, each with
    (q-1)/2 triples."""
    q = F.q
    probs = []
    if psi != odd_psi(q):
        probs.append(f"GF({q}): psi {psi}, expected {odd_psi(q)}")
    want = q * q * (q - 1)
    if len(witnesses) != want:
        probs.append(f"GF({q}): {len(witnesses)} minimizers, expected {want}")
    probs += check_strictly_increasing(witnesses)
    got = {tuple(w) for w in witnesses}
    if got != set(family):
        probs.append(f"GF({q}): minimizer set differs from the fractional family "
                     f"({len(got - set(family))} extra, {len(set(family) - got)} missing)")
    bad = [w for w in witnesses if triples(F, w) != odd_psi(q)]
    if bad:
        probs.append(f"GF({q}): {len(bad)} minimizers do not recount to {odd_psi(q)}")
    return probs


def check_certificate(F, images, params, bundle):
    """A certificate of the fractional map with the given parameters: the
    external point is (-gamma, alpha, 1), the conic has a = b = 0 and passes
    through every lifted point but that one, both infinite points are
    internal nuclei, and k* = (q+1)(q+2)/2 + (q-1)/2."""
    q = F.q
    a, b, g = params
    probs = []
    ext = (F.neg[g], a, 1)
    if tuple(bundle["external_point"]) != ext:
        probs.append(f"GF({q}) {list(images)}: external point "
                     f"{bundle['external_point']}, expected {list(ext)}")
    if tuple(bundle["fractional_params"]) != tuple(params):
        probs.append(f"GF({q}) {list(images)}: parameters {bundle['fractional_params']}, "
                     f"expected {list(params)}")
    if bundle["k_star"] != covered_lines(q):
        probs.append(f"GF({q}) {list(images)}: k* {bundle['k_star']}, "
                     f"expected {covered_lines(q)}")
    coeffs = tuple(bundle["coeffs"])
    if coeffs[0] or coeffs[1] or not bundle["lemma_ab_zero"]:
        probs.append(f"GF({q}) {list(images)}: conic {list(coeffs)} has a or b nonzero")
    lifted = [(x, y, 1) for x, y in enumerate(images)] + [(1, 0, 0), (0, 1, 0)]
    off = [pt for pt in lifted if conic_at(F, coeffs, pt) != 0]
    if off != [ext]:
        probs.append(f"GF({q}) {list(images)}: conic misses {off}, expected only {list(ext)}")
    if not all(bundle["nucleus_checks"].values()):
        probs.append(f"GF({q}) {list(images)}: nucleus check failed")
    return probs


def check_zn(n, psi, witness, want_psi, zn_count):
    """psi matches the value tools/zn_oracle.py derives, and the witness
    recounts to it under that tool's determinant counter."""
    probs = []
    if psi != want_psi:
        probs.append(f"Z_{n}: psi {psi}, expected {want_psi}")
    got = zn_count(n, tuple(witness))
    if got != want_psi:
        probs.append(f"Z_{n}: witness {list(witness)} has {got} triples, expected {want_psi}")
    return probs


def check_plane(plane, psi, witnesses, truth, enumeration=False):
    """Against `truth` = plane.minimizers(): psi matches and every witness
    recounts to it; a min_value witness is the lex-least minimizer; an
    enumeration is every minimizer, strictly increasing."""
    want_psi, minimizers = truth
    probs = []
    if psi != want_psi:
        probs.append(f"{plane.name}: psi {psi}, expected {want_psi}")
    bad = [w for w in witnesses if plane.triples(w) != want_psi]
    if bad:
        probs.append(f"{plane.name}: {len(bad)} witnesses do not recount to {want_psi}")
    if not enumeration:
        if [tuple(w) for w in witnesses] != minimizers[:1]:
            probs.append(f"{plane.name}: witnesses {witnesses}, expected the lex-least "
                         f"{minimizers[0]}")
        return probs
    if len(witnesses) != len(minimizers):
        probs.append(f"{plane.name}: {len(witnesses)} minimizers, expected {len(minimizers)}")
    probs += check_strictly_increasing(witnesses)
    if {tuple(w) for w in witnesses} != set(minimizers):
        probs.append(f"{plane.name}: minimizer set differs from the raw-incidence search")
    return probs


def main(argv):
    if len(argv) != 2 or argv[0] != "plane":
        print("usage: python3 perfbench/oracle.py plane <affine fixture name>", file=sys.stderr)
        return 2
    plane = RawPlane(argv[1])
    psi, found = plane.minimizers()
    print(json.dumps({"plane": plane.name, "classes": [0, 1], "psi": psi,
                      "minimizers": len(found), "lex_least": list(found[0])}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
