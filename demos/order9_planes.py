"""The seven order-9 affine planes, and the one that stands apart.

Up to isomorphism there are four projective planes of order 9: the classical
PG(2,9), the Hall plane, its dual, and the self-dual Hughes plane.  Deleting
a line (and picking representatives of the line orbits) leaves seven affine
planes.  The transversal-search minimum is 4 on six of them and 5 on exactly
one: the Hall plane minus its translation line.

The minimum is taken over transversals with respect to a fixed PAIR of
parallel classes, and on the non-Desarguesian planes it genuinely depends on
which pair you fix.  Every bundled fixture documents its pinned pair (0, 1)
in its provenance string; `collinea psi plane <fixture> --all-pairs` redoes
the full 45-pair sweep for one fixture and prints the split (try it on
hall_translation_deleted).
"""

import argparse
import time

from collinea.fixtures import AFFINE_FIXTURES, DISTINGUISHED_CLASSES, load_fixture
from collinea.search import SearchConfig, min_triples_plane


def main():
    argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        epilog="all 45 class pairs of one fixture: "
               "collinea psi plane <fixture> --all-pairs").parse_args()

    h, v = DISTINGUISHED_CLASSES
    print(f"transversal minimum at the pinned class pair ({h}, {v}):")
    for name in AFFINE_FIXTURES:
        plane = load_fixture(name)
        t0 = time.perf_counter()
        out = min_triples_plane(plane, h, v, SearchConfig())
        print(f"  {name:<28} {out.psi}   "
              f"[{time.perf_counter() - t0:.1f}s, {out.nodes_expanded} nodes]")
    print()
    print("hall_translation_deleted is the outlier.  Its parent projective")
    print("plane is certified in the fixture provenance by an elation census:")
    print("the deleted line is the unique one admitting all 80 nonidentity")
    print("elations, i.e. the translation line.")


if __name__ == "__main__":
    main()
