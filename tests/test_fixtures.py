"""Bundled order-9 planes: loading, structure, and identity recertification.

The identity checks recompute the elation censuses from the shipped incidence
data alone: an axis is a translation line iff every one of its 80 candidate
nonidentity central collineations (center on the axis, one base point moved
along a line through the center) extends to a collineation.
"""

import importlib.util
import os

import pytest

from collinea.fixtures import (
    AFFINE_FIXTURES,
    DISTINGUISHED_CLASSES,
    PROJECTIVE_FIXTURES,
    fixture_names,
    load_fixture,
)
from collinea.mols import check_orthogonal, mols_from_plane
from collinea.plane import AffinePlane, ProjectivePlane, delete_line, dual_plane


class _Geom:
    def __init__(self, pp):
        self.pp = pp
        self.sets = [frozenset(ln) for ln in pp.lines]
        self.index = {s: i for i, s in enumerate(self.sets)}
        self.through = {}
        for i, ln in enumerate(pp.lines):
            for a in ln:
                for b in ln:
                    if a < b:
                        self.through[(a, b)] = i

    def line_of(self, a, b):
        return self.through[(a, b)] if a < b else self.through[(b, a)]


def _candidate_ok(geom, axis_idx, center, q0, q1):
    pp = geom.pp
    axis = geom.sets[axis_idx]
    pq = geom.line_of(center, q0)
    image = {x: x for x in axis}
    image[q0] = q1
    base = None
    for x in range(pp.n_points):
        if x in axis or x == q0 or x in geom.sets[pq]:
            continue
        m = next(iter(geom.sets[geom.line_of(q0, x)] & axis))
        hit = geom.sets[geom.line_of(center, x)] & geom.sets[geom.line_of(m, q1)]
        if len(hit) != 1:
            return False
        image[x] = next(iter(hit))
        if base is None:
            base = x
    for x in geom.sets[pq]:
        if x == center or x == q0:
            continue
        m = next(iter(geom.sets[geom.line_of(base, x)] & axis))
        hit = geom.sets[pq] & geom.sets[geom.line_of(m, image[base])]
        if len(hit) != 1:
            return False
        image[x] = next(iter(hit))
    if len(set(image.values())) != pp.n_points:
        return False
    for s in geom.sets:
        if frozenset(image[x] for x in s) not in geom.index:
            return False
    return True


def _is_translation_axis(geom, axis_idx):
    axis = geom.pp.lines[axis_idx]
    q0 = next(x for x in range(geom.pp.n_points) if x not in axis)
    for center in axis:
        for q1 in geom.pp.lines[geom.line_of(center, q0)]:
            if q1 == center or q1 == q0:
                continue
            if not _candidate_ok(geom, axis_idx, center, q0, q1):
                return False
    return True


@pytest.mark.parametrize("name", fixture_names())
def test_fixture_loads(name):
    pl = load_fixture(name)
    assert pl.order == 9
    if name in PROJECTIVE_FIXTURES:
        assert isinstance(pl, ProjectivePlane)
        assert len(pl.lines) == 91 and pl.n_points == 91
    else:
        assert isinstance(pl, AffinePlane)
        assert len(pl.lines) == 90 and pl.n_points == 81
        assert len(pl.parallel_classes) == 10
    assert pl.provenance


def test_unknown_name_rejected():
    with pytest.raises(KeyError):
        load_fixture("fano")


def test_fixtures_are_pairwise_distinct():
    line_sets = {}
    for name in fixture_names():
        line_sets[name] = frozenset(frozenset(ln) for ln in load_fixture(name).lines)
    names = list(line_sets)
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            assert line_sets[a] != line_sets[b], (a, b)


def test_hall_translation_line_is_unique():
    hall = load_fixture("hall_projective")
    assert hall.labels == {90: "translation line"}
    geom = _Geom(hall)
    assert _is_translation_axis(geom, 90)
    for i in range(90):
        assert not _is_translation_axis(geom, i), i


def test_dual_hall_translation_structure():
    dual = load_fixture("dual_hall_projective")
    geom = _Geom(dual)
    for i in range(91):
        assert not _is_translation_axis(geom, i), i
    # the transpose is the Hall plane again, translation line last
    back = _Geom(dual_plane(dual))
    assert _is_translation_axis(back, 90)


def test_hughes_has_no_translation_line_either_way():
    hughes = load_fixture("hughes_projective")
    for pp in (hughes, dual_plane(hughes)):
        geom = _Geom(pp)
        for i in range(91):
            assert not _is_translation_axis(geom, i), i


def test_hughes_labels_mark_both_line_types():
    hughes = load_fixture("hughes_projective")
    tags = sorted(hughes.labels.values())
    assert tags == [
        "meets the invariant order-3 subplane in 1 point",
        "meets the invariant order-3 subplane in 4 points",
    ]


def test_affine_fixtures_match_their_projective_sources():
    cases = [
        ("hall_projective", 90, "hall_translation_deleted"),
        ("hall_projective", 0, "hall_nontranslation_deleted"),
        ("dual_hall_projective", 81, "dual_hall_special_deleted"),
        ("dual_hall_projective", 0, "dual_hall_generic_deleted"),
    ]
    for src, idx, target in cases:
        got = delete_line(load_fixture(src), idx)
        want = load_fixture(target)
        assert got.lines == want.lines
        assert got.parallel_classes == want.parallel_classes


def test_affine_provenance_pins_the_class_pair():
    assert DISTINGUISHED_CLASSES == (0, 1)
    for name in AFFINE_FIXTURES:
        assert "(0, 1)" in load_fixture(name).provenance


@pytest.mark.parametrize("name", ["ag_2_9", "hall_translation_deleted"])
def test_fixture_mols_form_complete_orthogonal_sets(name):
    squares = mols_from_plane(load_fixture(name), *DISTINGUISHED_CLASSES)
    assert len(squares) == 8
    for i in range(8):
        for j in range(i + 1, 8):
            assert check_orthogonal(squares[i], squares[j])


def test_fixture_generator_derives_the_bundled_hall_plane():
    # tools/make_fixtures.py builds every order-9 fixture; deleting the line at
    # infinity of its completed derived Hall plane renumbers nothing, so that
    # plane is the bundled hall_translation_deleted
    path = os.path.join(os.path.dirname(__file__), "..", "tools", "make_fixtures.py")
    spec = importlib.util.spec_from_file_location("make_fixtures", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    derived = tool.derived_hall_affine()
    bundled = load_fixture("hall_translation_deleted")
    assert derived.lines == bundled.lines
    assert derived.parallel_classes == bundled.parallel_classes
