"""Plane constructions checked against independent pair-coverage oracles,
plus serialization round-trips."""

import hashlib
import itertools
import json
import signal
import tracemalloc
from collections import Counter
from contextlib import contextmanager

import pytest

from collinea.algebra import field_make
from collinea.errors import NotAPlane, ParseError
from collinea.fixtures import PROJECTIVE_FIXTURES, load_fixture
from collinea.plane import (
    AffinePlane,
    ProjectivePlane,
    affine_plane,
    delete_line,
    dual_plane,
    load_plane,
    parallel_classes,
    projective_plane,
    save_plane,
    validate,
)

ORDERS = [2, 3, 4, 5, 7, 8, 9]


def _pair_counts(lines):
    c = Counter()
    for ln in lines:
        for pair in itertools.combinations(sorted(ln), 2):
            c[pair] += 1
    return c


@pytest.mark.parametrize("q", ORDERS)
def test_affine_construction(q):
    pl = affine_plane(field_make(q))
    assert pl.n_points == q * q
    assert len(pl.lines) == q * q + q
    assert all(len(ln) == q for ln in pl.lines)
    assert len(pl.parallel_classes) == q + 1
    # oracle: every point pair on exactly one line
    counts = _pair_counts(pl.lines)
    assert len(counts) == q * q * (q * q - 1) // 2
    assert set(counts.values()) == {1}
    for cls in pl.parallel_classes:
        pts = sorted(p for j in cls for p in pl.lines[j])
        assert pts == list(range(q * q))
    assert validate(pl).ok


@pytest.mark.parametrize("q", ORDERS)
def test_projective_construction(q):
    pp = projective_plane(field_make(q))
    assert pp.n_points == q * q + q + 1
    assert len(pp.lines) == q * q + q + 1
    assert all(len(ln) == q + 1 for ln in pp.lines)
    counts = _pair_counts(pp.lines)
    n = pp.n_points
    assert len(counts) == n * (n - 1) // 2
    assert set(counts.values()) == {1}
    for i, j in itertools.combinations(range(len(pp.lines)), 2):
        assert len(set(pp.lines[i]) & set(pp.lines[j])) == 1
    degree = Counter(p for ln in pp.lines for p in ln)
    assert [degree[p] for p in range(n)] == [q + 1] * n
    assert validate(pp).ok


def test_small_plane_sizes():
    assert len(projective_plane(field_make(2)).lines) == 7  # Fano
    assert len(projective_plane(field_make(3)).lines) == 13
    assert len(projective_plane(field_make(5)).lines) == 31
    assert len(affine_plane(field_make(3)).lines) == 12
    assert len(affine_plane(field_make(9)).lines) == 90


@pytest.mark.parametrize("q", [3, 5, 7])
def test_delete_infinity_line_recovers_affine(q):
    """Dropping the z=0 line (index 0 by the coefficient enumeration) leaves
    exactly the affine plane, point for point."""
    f = field_make(q)
    pp = projective_plane(f)
    assert set(pp.lines[0]) == set(range(q * q, q * q + q + 1))
    af = delete_line(pp, 0)
    ag = affine_plane(f)
    assert validate(af).ok
    # the surviving points (x, y, 1) already sit at index x*q + y, so the
    # identification is the identity map
    assert {frozenset(ln) for ln in af.lines} == {frozenset(ln) for ln in ag.lines}
    to_sets = lambda pl: {
        frozenset(frozenset(pl.lines[j]) for j in cls) for cls in pl.parallel_classes
    }
    assert to_sets(af) == to_sets(ag)


def test_delete_any_line_gives_affine():
    pp = projective_plane(field_make(3))
    for i in range(len(pp.lines)):
        af = delete_line(pp, i)
        assert len(af.lines) == 12
        assert validate(af).ok
    for bad in (13, -1):
        with pytest.raises(IndexError):
            delete_line(pp, bad)


def test_delete_line_output_is_pinned():
    # every deletion of every projective fixture, serialized: lines, classes
    # in order, labels and provenance (SHA-256 taken before delete_line's
    # classes came from parallel_classes)
    h = hashlib.sha256()
    for name in PROJECTIVE_FIXTURES:
        pp = load_fixture(name)
        for i in range(len(pp.lines)):
            h.update(save_plane(delete_line(pp, i)))
    assert h.hexdigest() == "9e938e10e704ebc56bb126441818d172cf0905d49e79718197495de5f609101b"


def test_delete_line_keeps_labels():
    pp = projective_plane(field_make(3))
    pp2 = ProjectivePlane(3, pp.lines, {0: "at-infinity", 5: "kept"}, "demo")
    af = delete_line(pp2, 0)
    assert "at-infinity" in af.provenance
    assert "kept" in af.labels.values()


@pytest.mark.parametrize("q", [3, 5, 9])
def test_parallel_classes_reproduce_slope_grouping(q):
    pl = affine_plane(field_make(q))
    assert parallel_classes(pl.lines, q) == pl.parallel_classes


def test_parallel_classes_rejects_broken_input():
    # parallel_classes only groups the lines; a file without classes is
    # judged by validate when load_plane reads it
    obj = json.loads(save_plane(affine_plane(field_make(3))))
    del obj["parallel_classes"]
    missing = obj["lines"][:-1]
    assert parallel_classes(missing, 3) == ()
    doubled = list(obj["lines"])
    doubled[1] = doubled[0]
    for lines in (missing, doubled):
        with pytest.raises(NotAPlane):
            load_plane(json.dumps({**obj, "lines": lines}))


def test_validate_flags_flipped_incidence():
    pp = projective_plane(field_make(2))
    lines = [list(ln) for ln in pp.lines]
    lines[0][0] = (lines[0][0] + 1) % 7  # corrupt one incidence
    bad = ProjectivePlane(2, tuple(tuple(sorted(ln)) for ln in lines))
    rep = validate(bad)
    assert not rep.ok
    assert any("0 lines" in msg for msg in rep.failures)


@contextmanager
def _within(seconds):
    """Fail the block with an AssertionError once it has run for seconds."""
    def stuck(signum, frame):
        raise AssertionError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, stuck)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("kind", ["projective", "affine", "affine-classless"])
def test_load_rejects_oversized_order_promptly(kind):
    # order 3000 means about 9e6 points and 4e13 point pairs; three lines
    # already condemn the file, so validate must not sweep the pairs, and
    # parallel_classes must not build its per-point table for a classless
    # file (9e6 lists, about 0.6 GB)
    q = 3000
    obj = {"type": kind.split("-")[0], "order": q, "points": q * q,
           "lines": [[0, 1, 2], [0, 3, 4], [1, 3, 5]]}
    if kind == "projective":
        obj["points"] += q + 1
    elif kind == "affine":
        obj["parallel_classes"] = [[0], [1], [2]]

    tracemalloc.start()
    try:
        with _within(10), pytest.raises(NotAPlane, match="line count 3,"):
            load_plane(json.dumps(obj))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


@pytest.mark.parametrize("line", [[], [0]])
def test_load_computes_classes_of_a_short_file_promptly(line):
    # order 150 with the full 22650 lines, each too short: grouping them by
    # "equal or disjoint" would cost about 5e8 set comparisons, so
    # parallel_classes must give () and leave the faults to validate
    q = 150
    obj = {"type": "affine", "order": q, "points": q * q, "lines": [line] * (q * q + q)}
    with _within(10):
        with pytest.raises(NotAPlane, match=f"line 0 has {len(line)} distinct points"):
            load_plane(json.dumps(obj))
        assert load_plane(json.dumps(obj), strict=False).parallel_classes == ()


def test_validate_reports_out_of_range_points():
    pp = projective_plane(field_make(2))
    lines = [list(ln) for ln in pp.lines]
    lines[0][0] = 9  # the Fano plane has points 0..6
    rep = validate(ProjectivePlane(2, tuple(tuple(sorted(ln)) for ln in lines)))
    assert rep.failures == ("line 0 contains out-of-range point 9",)


def test_save_load_round_trip():
    ag = affine_plane(field_make(5))
    assert load_plane(save_plane(ag)) == ag
    pp = projective_plane(field_make(3))
    assert load_plane(save_plane(pp)) == pp
    tagged = AffinePlane(
        ag.order, ag.lines, ag.parallel_classes, {2: "special"}, "from construction"
    )
    back = load_plane(save_plane(tagged))
    assert back.labels == {2: "special"}
    assert back.provenance == "from construction"


def test_load_rejects_truncated_file():
    blob = save_plane(affine_plane(field_make(3)))
    with pytest.raises(ParseError):
        load_plane(blob[: len(blob) // 2])


def test_load_rejects_duplicate_line():
    obj = json.loads(save_plane(affine_plane(field_make(3))))
    obj["lines"][1] = obj["lines"][0]
    del obj["parallel_classes"]
    with pytest.raises(NotAPlane):
        load_plane(json.dumps(obj))


def test_load_rejects_schema_problems():
    with pytest.raises(ParseError):
        load_plane(b"\xff\xfe")
    with pytest.raises(ParseError):
        load_plane(json.dumps([1, 2, 3]))
    with pytest.raises(ParseError):
        load_plane(json.dumps({"type": "moebius", "order": 3, "points": 9, "lines": []}))
    obj = json.loads(save_plane(affine_plane(field_make(3))))
    del obj["order"]
    with pytest.raises(ParseError):
        load_plane(json.dumps(obj))
    obj = json.loads(save_plane(affine_plane(field_make(3))))
    obj["points"] = 10
    with pytest.raises(NotAPlane):
        load_plane(json.dumps(obj))
    # shapes the rest of the toolkit would trip over, rejected before validate
    classes = json.loads(save_plane(affine_plane(field_make(3))))["parallel_classes"]
    classes[1][2] = "a"
    for key, value in (("parallel_classes", 5), ("parallel_classes", classes),
                       ("parallel_classes", [5, 6]), ("labels", [1, 2])):
        obj = json.loads(save_plane(affine_plane(field_make(3))))
        obj[key] = value
        for strict in (True, False):
            with pytest.raises(ParseError, match=key):
                load_plane(json.dumps(obj), strict=strict)
    obj = json.loads(save_plane(projective_plane(field_make(3))))
    obj["labels"] = "at-infinity"
    with pytest.raises(ParseError, match="labels"):
        load_plane(json.dumps(obj))
    # JSON true and false are not the integers 1 and 0
    obj = json.loads(save_plane(affine_plane(field_make(3))))
    obj["lines"] = [[True if p == 1 else p for p in ln] for ln in obj["lines"]]
    with pytest.raises(ParseError, match="line"):
        load_plane(json.dumps(obj), strict=False)
    obj = json.loads(save_plane(affine_plane(field_make(3))))
    obj["parallel_classes"][0][0] = bool(obj["parallel_classes"][0][0])
    with pytest.raises(ParseError, match="parallel_classes"):
        load_plane(json.dumps(obj), strict=False)
    obj = json.loads(save_plane(affine_plane(field_make(3))))
    obj["points"] = 9.0
    with pytest.raises(ParseError, match="points"):
        load_plane(json.dumps(obj))


@pytest.mark.parametrize("key", ["1_0", " 3", "-1", "99", "03", "12", "", "x", "1" * 5000])
def test_load_rejects_label_keys_that_are_not_line_indices(key):
    obj = json.loads(save_plane(affine_plane(field_make(3))))
    obj["labels"] = {"0": "kept", key: "stray"}
    for strict in (True, False):
        with pytest.raises(ParseError, match="is not a line index"):
            load_plane(json.dumps(obj), strict=strict)
    obj["labels"] = {"0": "first", "11": "last"}
    assert load_plane(json.dumps(obj)).labels == {0: "first", 11: "last"}
    # a label on a line the file lacks is the line count's fault, reported by
    # validate, not a parse error
    obj["lines"].pop()
    del obj["parallel_classes"]
    plane = load_plane(json.dumps(obj), strict=False)
    assert validate(plane).failures[0] == "line count 11, expected 12"


def test_load_reads_hostile_json_as_a_parse_error():
    # deep nesting and an integer too long to convert fail inside the JSON
    # parser, not as a RecursionError or a bare ValueError
    for data in (b"[" * 100000, b'{"order": ' + b"1" * 5000 + b"}", b'{"type": "\xff"}'):
        with pytest.raises(ParseError, match="not valid JSON"):
            load_plane(data)


def test_dual_plane_involution():
    pp = projective_plane(field_make(3))
    dd = dual_plane(pp)
    assert validate(dd).ok
    assert dual_plane(dd).lines == pp.lines
