"""Collinear-triple counting and minimization over finite fields, Z_n, and
finite affine planes."""

__version__ = "0.1.0"

from .algebra import FieldSpec, RingSpec, field_make
from .classify import (
    certificate_bundle,
    certify_minimizer,
    count_covered_lines,
    lift_graph,
)
from .collinear import (
    FracParams,
    GenPerm,
    PermGraph,
    closed_form_minimizer,
    count_quadruples,
    count_triples,
    fractional_perm,
    is_collinear,
    list_triples,
    recognize_fractional,
    reciprocal_perm,
    transversal_from_bijection,
)
from .fixtures import DISTINGUISHED_CLASSES, fixture_names, load_fixture
from .mols import (
    LatinSquare,
    check_orthogonal,
    diagonal_witness,
    load_mols,
    mols_from_plane,
    plane_from_mols,
    save_mols,
)
from .plane import (
    AffinePlane,
    ProjectivePlane,
    affine_plane,
    delete_line,
    dual_plane,
    load_plane,
    plane_grid,
    projective_plane,
    save_plane,
    validate,
)
from .search import (
    SearchConfig,
    SearchOutcome,
    min_triples_field,
    min_triples_plane,
    min_triples_zn,
)
