"""What is the smallest number of collinear triples a permutation graph over
GF(q) can have?

For odd q the answer is (q-1)/2, and a single closed-form family attains it:
the patched fractional map x -> x/(x-1) (with the two patched values chosen
to keep it a bijection).  This script runs the exact branch-and-bound for a
few q and lines the results up against the formula.
"""

import argparse
import time

from collinea.algebra import field_make
from collinea.collinear import closed_form_minimizer, count_triples
from collinea.search import SearchConfig, min_triples_field


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--big", action="store_true", help="also run q = 11 (under a second)")
    args = ap.parse_args()

    qs = [3, 5, 7, 9] + ([11] if args.big else [])
    print("q   (q-1)/2   search   lex-least witness              closed form matches?")
    for q in qs:
        f = field_make(q)
        t0 = time.perf_counter()
        out = min_triples_field(f, SearchConfig())
        dt = time.perf_counter() - t0
        g = closed_form_minimizer(f)
        wit = list(out.witnesses[0])
        print(f"{q:<3} {(q-1)//2:<9} {out.psi:<8} {str(wit):<30} "
              f"{'yes' if wit == list(g.images) else 'no, both attain ' + str(count_triples(g))}"
              f"   [{dt:.2f}s, {out.nodes_expanded} nodes]")
    print()
    print("The q = 9 row is the interesting one: the lexicographically least")
    print("minimizer and the closed-form map are different members of the same")
    print("fractional family (which one sorts first depends on the modulus used")
    print("to build GF(9); this package always picks the lexicographically")
    print("least irreducible, here x^2 + 1).")


if __name__ == "__main__":
    main()
