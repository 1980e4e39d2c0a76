"""Every minimizer is a patched fractional map, and vice versa.

Enumerate ALL minimum-attaining permutations of GF(q) for small odd q, run
each through the fractional-map recognizer, and sweep the full parameter
space (alpha, beta, gamma) with alpha*gamma != beta the other way.  The two
sets coincide: q^2(q-1) permutations on both sides.
"""

import argparse
from collections import Counter

from collinea.algebra import field_make
from collinea.collinear import (PermGraph, count_triples, fractional_family,
                                recognize_fractional)
from collinea.search import SearchConfig, min_triples_field


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("q", type=int, nargs="?", default=5, help="odd prime power (default 5)")
    args = ap.parse_args()
    q = args.q
    f = field_make(q)

    out = min_triples_field(f, SearchConfig(mode="enumerate_all_min"))
    print(f"q = {q}: minimum is {out.psi} triples, attained by {len(out.witnesses)} "
          f"permutations (q^2(q-1) = {q * q * (q - 1)})")

    recognized = Counter()
    for w in out.witnesses:
        p = recognize_fractional(PermGraph(f, w))
        recognized["recognized" if p is not None else "NOT recognized"] += 1
    print(f"recognizer verdicts over all minimizers: {dict(recognized)}")

    family = fractional_family(f)
    counts = Counter(count_triples(perm) for perm in family)
    seen = {perm.images for perm in family}
    print(f"parameter sweep: {sum(counts.values())} valid (alpha,beta,gamma) triples, "
          f"{len(seen)} distinct permutations, triple counts {dict(counts)}")

    wits = {tuple(w) for w in out.witnesses}
    print("sweep image set == enumerated minimizer set:", seen == wits)


if __name__ == "__main__":
    main()
