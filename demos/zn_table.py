"""Collinear-triple minima over the rings Z_n.

Replace GF(q) by Z_n with the same determinant test, now modulo n.  Prime n
reproduces the field values; composite n behaves very differently because of
zero divisors: the minimum drops to 0 for n = 4, 6, 8, 12, but n = 9 is
stuck at 5 (one MORE than GF(9)'s 4) and n = 10 at 2.
"""

import argparse
import time

from collinea.search import SearchConfig, min_triples_zn


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max", type=int, default=10,
                    help="largest modulus (default 10; 11 and 12 add about a "
                         "tenth of a second each, 13 about two and a half seconds)")
    args = ap.parse_args()

    print("n    minimum  lex-least witness                         time")
    for n in range(3, args.max + 1):
        t0 = time.perf_counter()
        out = min_triples_zn(n, SearchConfig())
        tag = "prime" if all(n % d for d in range(2, n)) else "composite"
        print(f"{n:<4} {out.psi:<8} {str(list(out.witnesses[0])):<41} "
              f"{time.perf_counter() - t0:5.1f}s  ({tag})")
    print()
    print("The zeros have tidy witnesses; [0, 1, 3, 2] at n = 4 can be checked")
    print("by hand (four points, four determinants, all nonzero mod 4).")


if __name__ == "__main__":
    main()
