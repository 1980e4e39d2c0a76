"""Why (q-1)/2 is hard to beat: the conic certificate.

Lift a minimizer's graph to the projective plane PG(2,q) by adjoining the
two infinite points [1:0:0] and [0:1:0].  For a true minimizer the q+2
lifted points are a nondegenerate irreducible conic (with first two
coefficients zero) plus one external point, the external point is affine and
recoverable from the fractional parameters as (-gamma, alpha), and the two
infinite points are internal nuclei.  The covered-line count of the lifted
set is exactly (q+1)(q+2)/2 + (q-1)/2.

This script builds the certificate for one witness and prints every piece.
"""

import argparse
import json

from collinea.algebra import field_make
from collinea.classify import certificate_bundle
from collinea.collinear import PermGraph
from collinea.search import SearchConfig, min_triples_field


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("q", type=int, nargs="?", default=9,
                    help="odd prime power, at least 5 (default 9)")
    args = ap.parse_args()
    f = field_make(args.q)

    out = min_triples_field(f, SearchConfig(mode="lex_least"))
    perm = PermGraph(f, out.witnesses[0])
    print(f"q = {args.q}, lex-least minimizer {list(perm.images)} "
          f"with {out.psi} collinear triples")

    b = certificate_bundle(perm)
    a_, b_, c_, d_, e_, f_ = b["coeffs"]
    print(f"conic: {a_}*x^2 + {b_}*y^2 + {c_}*xy + {d_}*xz + {e_}*yz + {f_}*z^2 = 0")
    print(f"  leading coefficients both zero: {b['lemma_ab_zero']}")
    print(f"  external point (affine, z=1): {b['external_point']}")
    al, be, ga = b["fractional_params"]
    print(f"  fractional parameters (alpha, beta, gamma) = ({al}, {be}, {ga}); "
          f"predicted external point (-gamma, alpha) = ({f.neg(ga)}, {al})")
    print(f"  infinite points are internal nuclei: {b['nucleus_checks']}")
    k = b["k_star"]
    q = args.q
    print(f"  covered lines k* = {k}; formula (q+1)(q+2)/2 + (q-1)/2 = "
          f"{(q + 1) * (q + 2) // 2 + (q - 1) // 2}")
    print()
    print("full bundle:")
    print(json.dumps(b, indent=1))


if __name__ == "__main__":
    main()
