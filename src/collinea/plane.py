"""Finite affine and projective planes as explicit incidence structures.

Desarguesian planes are built from a FieldSpec; anything else (the order-9
fixtures) enters through the JSON loader, which validates the plane axioms
before handing the structure to the rest of the toolkit.  All indexing is
deterministic so downstream search witnesses are reproducible byte-for-byte.

The input grammar of every JSON file the toolkit reads (planes, MOLS sets,
permutations, relabelings) lives here too: json_value decodes and parses,
and int_array and int_arrays check the integer arrays, where JSON true and
false are not integers.  Each failure is a ParseError, prefixed by the
caller's name for the input: a file path, a field, or "not valid JSON".
"""

import json
import re
from dataclasses import dataclass, field

from .errors import ClassesNotDistinct, NoSuchLine, NotAPlane, ParseError


@dataclass(frozen=True)
class AffinePlane:
    """Order-q affine plane on points 0..q^2-1.  Lines are sorted point
    tuples; parallel_classes partitions the line indices, q+1 classes of q."""

    order: int
    lines: tuple
    parallel_classes: tuple
    labels: dict = field(default_factory=dict, compare=True)
    provenance: str = ""

    @property
    def n_points(self):
        return self.order * self.order


@dataclass(frozen=True)
class ProjectivePlane:
    """Order-q projective plane on points 0..q^2+q."""

    order: int
    lines: tuple
    labels: dict = field(default_factory=dict, compare=True)
    provenance: str = ""

    @property
    def n_points(self):
        return self.order * self.order + self.order + 1


def affine_plane(f):
    """AG(2, q) over the field f.  Point (x, y) is index x*q + y; line
    indices run through the q slope classes (s*q + b) and then verticals."""
    q = f.q
    lines = []
    for s in range(q):
        for b in range(q):
            lines.append(tuple(sorted(x * q + f.add(f.mul(s, x), b) for x in range(q))))
    for c in range(q):
        lines.append(tuple(c * q + y for y in range(q)))
    classes = [tuple(range(s * q, s * q + q)) for s in range(q)]
    classes.append(tuple(range(q * q, q * q + q)))
    return AffinePlane(q, tuple(lines), tuple(classes))


def _proj_points(q):
    """Normalized homogeneous triples, last nonzero coordinate equal to 1:
    (x, y, 1) in x*q+y order, then (x, 1, 0), then (1, 0, 0)."""
    pts = [(x, y, 1) for x in range(q) for y in range(q)]
    pts += [(x, 1, 0) for x in range(q)]
    pts.append((1, 0, 0))
    return pts


def projective_plane(f):
    """PG(2, q): lines are the solution sets of ax + by + cz = 0 with the
    coefficient triple normalized and enumerated the same way as points."""
    q = f.q
    pts = _proj_points(q)
    lines = []
    for a, b, c in pts:  # self-dual enumeration of coefficient triples
        on = []
        for i, (x, y, z) in enumerate(pts):
            s = f.add(f.add(f.mul(a, x), f.mul(b, y)), f.mul(c, z))
            if s == 0:
                on.append(i)
        lines.append(tuple(on))
    return ProjectivePlane(q, tuple(lines))


def delete_line(pp, line_index):
    """Affine restriction of pp: drop the chosen line and its points.

    Surviving points are renumbered in ascending old order; surviving lines
    keep their relative order; parallel_classes groups them, so lines that
    met at a deleted point share a class.  An index outside the lines raises
    NoSuchLine, an IndexError."""
    q = pp.order
    if not 0 <= line_index < len(pp.lines):
        raise NoSuchLine(f"line index {line_index} out of range")
    removed = set(pp.lines[line_index])
    keep = [p for p in range(pp.n_points) if p not in removed]
    new_index = {p: i for i, p in enumerate(keep)}
    lines = []
    labels = {}
    for i, ln in enumerate(pp.lines):
        if i == line_index:
            continue
        hit = sum(p in removed for p in ln)
        if hit != 1:
            raise NotAPlane(f"line {i} meets the deleted line in {hit} points")
        if i in pp.labels:
            labels[len(lines)] = pp.labels[i]
        lines.append(tuple(sorted(new_index[p] for p in ln if p not in removed)))
    note = f"deleted line {line_index}"
    if line_index in pp.labels:
        note += f" ({pp.labels[line_index]})"
    prov = (pp.provenance + "; " if pp.provenance else "") + note
    return AffinePlane(q, tuple(lines), parallel_classes(lines, q), labels, prov)


def parallel_classes(lines, q):
    """Partition the line indices by the relation "equal or disjoint", each
    group sorted and the groups by their least index: the parallel classes of
    an affine plane of order q.  No axiom is checked here (validate does
    that), so on other lines the groups may overlap.  The grouping runs only
    on q^2 + q lines of q distinct points in range(q^2), each point on q + 1
    of them, and costs O(q^4) there like validate's sweep; any other input
    gives () after one pass over the lines."""
    lines = [frozenset(ln) for ln in lines]
    n = q * q
    if len(lines) != n + q or not all(
            len(ln) == q and all(0 <= p < n for p in ln) for ln in lines):
        return ()
    through = [[] for _ in range(n)]
    for j, ln in enumerate(lines):
        for p in ln:
            through[p].append(j)
    if any(len(t) != q + 1 for t in through):
        return ()
    par = set()
    for ln in lines:
        meets = {j for p in ln for j in through[p]}
        par.add(frozenset(j for j in range(n + q) if j not in meets or lines[j] == ln))
    return tuple(tuple(sorted(cls)) for cls in sorted(par, key=min))


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    failures: tuple

    def __bool__(self):
        return self.ok


_FAILURE_CAP = 100


def validate(plane):
    """Check every type invariant; the report carries one message per violated
    axiom instance, each with a witness.  The incidence sweeps run only on a
    plane with the right line count and no overlong line or out-of-range
    point, and stop once the report is full: they cost O(n^2) in the stated
    order, which a short hostile file could otherwise make huge."""
    fails = []

    def note(msg):
        if len(fails) < _FAILURE_CAP:
            fails.append(msg)

    q = plane.order
    n = plane.n_points
    projective = isinstance(plane, ProjectivePlane)
    want_lines = q * q + q + 1 if projective else q * q + q
    want_size = q + 1 if projective else q
    sweep = len(plane.lines) == want_lines
    if not sweep:
        note(f"line count {len(plane.lines)}, expected {want_lines}")
    for i, ln in enumerate(plane.lines):
        size = len(set(ln))
        if size != want_size:
            note(f"line {i} has {size} distinct points, expected {want_size}")
            sweep = sweep and size < want_size
        for p in ln:
            if not 0 <= p < n:
                note(f"line {i} contains out-of-range point {p}")
                sweep = False
    if sweep:
        for msg in _incidence_faults(plane, projective):
            if len(fails) == _FAILURE_CAP:
                break
            note(msg)
    if not projective:
        cls = plane.parallel_classes
        if len(cls) != q + 1:
            note(f"{len(cls)} parallel classes, expected {q+1}")
        used = [j for c in cls for j in c]
        if sorted(used) != list(range(len(plane.lines))):
            note("parallel classes are not a partition of the line indices")
        for ci, c in enumerate(cls):
            if len(c) != q:
                note(f"class {ci} has {len(c)} lines, expected {q}")
            pts = [p for j in c if j < len(plane.lines) for p in plane.lines[j]]
            if len(pts) != len(set(pts)) or len(set(pts)) != n:
                note(f"class {ci} does not partition the point set")
    return ValidationReport(not fails, tuple(fails))


def _incidence_faults(plane, projective):
    """Point pairs not on exactly one line; for a projective plane also line
    pairs not meeting in one point and points not on q + 1 lines."""
    q = plane.order
    n = plane.n_points
    cover = {}
    for i, ln in enumerate(plane.lines):
        sl = sorted(set(ln))
        for a in range(len(sl)):
            for b in range(a + 1, len(sl)):
                cover.setdefault((sl[a], sl[b]), []).append(i)
    for x in range(n):
        for y in range(x + 1, n):
            hits = cover.get((x, y), [])
            if len(hits) != 1:
                yield f"pair ({x}, {y}) lies on {len(hits)} lines: {hits}"
    if projective:
        for i in range(len(plane.lines)):
            si = set(plane.lines[i])
            for j in range(i + 1, len(plane.lines)):
                m = len(si & set(plane.lines[j]))
                if m != 1:
                    yield f"lines {i} and {j} meet in {m} points"
        deg = [0] * n
        for ln in plane.lines:
            for p in set(ln):
                deg[p] += 1
        for p, d in enumerate(deg):
            if d != q + 1:
                yield f"point {p} lies on {d} lines, expected {q+1}"


def plane_grid(ap, h_class, v_class):
    """Coordinatize the plane by two parallel classes: grid[i][j] is the point
    where line i of the h class meets line j of the v class.  Transversals
    take their cells from here, and grid_lines its inverse."""
    n_cls = len(ap.parallel_classes)
    if not (0 <= h_class < n_cls and 0 <= v_class < n_cls):
        raise ValueError("parallel class index out of range")
    if h_class == v_class:
        raise ClassesNotDistinct("grid needs two different classes")
    q = ap.order
    col_of = {}
    for j, vline in enumerate(ap.parallel_classes[v_class]):
        for p in ap.lines[vline]:
            col_of[p] = j
    grid = [[None] * q for _ in range(q)]
    for i, hline in enumerate(ap.parallel_classes[h_class]):
        for p in ap.lines[hline]:
            grid[i][col_of[p]] = p
    return grid


def grid_lines(ap, h_class, v_class):
    """Each parallel class other than h and v, in class order, as the list of
    its lines, each a row -> column permutation of plane_grid: perm[i] is the
    column where the line meets h line i.  Line s of such a class is symbol s
    of its latin square (mols_from_plane), and the plane search runs on these
    permutations."""
    grid = plane_grid(ap, h_class, v_class)
    cell = {p: (i, j) for i, row in enumerate(grid) for j, p in enumerate(row)}
    classes = []
    for c, cls in enumerate(ap.parallel_classes):
        if c in (h_class, v_class):
            continue
        perms = []
        for ln in cls:
            perm = [None] * ap.order
            for p in ap.lines[ln]:
                i, j = cell[p]
                perm[i] = j
            perms.append(tuple(perm))
        classes.append(perms)
    return classes


def dual_plane(pp):
    """Transpose the incidence relation: point i of the dual is line i of pp,
    and dual line j collects the lines of pp through point j."""
    lines = []
    for p in range(pp.n_points):
        lines.append(tuple(i for i, ln in enumerate(pp.lines) if p in ln))
    return ProjectivePlane(pp.order, tuple(lines), {}, pp.provenance)


def save_plane(plane):
    """Serialize to the JSON interchange format (UTF-8 bytes)."""
    obj = {
        "type": "projective" if isinstance(plane, ProjectivePlane) else "affine",
        "order": plane.order,
        "points": plane.n_points,
        "lines": [list(ln) for ln in plane.lines],
    }
    if isinstance(plane, AffinePlane):
        obj["parallel_classes"] = [list(c) for c in plane.parallel_classes]
    if plane.labels:
        obj["labels"] = {str(i): tag for i, tag in sorted(plane.labels.items())}
    if plane.provenance:
        obj["provenance"] = plane.provenance
    return json.dumps(obj, indent=1).encode()


def is_json_int(v):
    """A JSON integer: bool is an int subclass, but true/false are not numbers."""
    return isinstance(v, int) and not isinstance(v, bool)


def json_value(data, what):
    """The value of a JSON text given as str or UTF-8 bytes.  Bytes that are
    not UTF-8, malformed JSON, an integer too long to convert and nesting too
    deep to parse are each a ParseError prefixed by what."""
    try:
        if isinstance(data, bytes):
            data = data.decode("utf-8")
        return json.loads(data)
    except (ValueError, RecursionError) as e:  # ValueError covers the decode errors
        raise ParseError(f"{what}: {e}") from e


def int_array(value, what):
    """value, if it is an array of JSON integers; else a ParseError naming what."""
    if not isinstance(value, list) or not all(is_json_int(v) for v in value):
        raise ParseError(f"{what}: expected a JSON array of integers")
    return value


def int_arrays(value, what):
    """value, if it is an array of arrays of JSON integers; else a ParseError
    naming what."""
    if not isinstance(value, list) or not all(
            isinstance(a, list) and all(is_json_int(v) for v in a) for a in value):
        raise ParseError(f"{what} must be an array of integer arrays")
    return value


def load_json_object(data, keys):
    """The top-level object of a JSON interchange file (str or UTF-8 bytes),
    checked to have every field in keys and an integer order >= 2."""
    obj = json_value(data, "not valid JSON")
    if not isinstance(obj, dict):
        raise ParseError("top-level value must be an object")
    for key in keys:
        if key not in obj:
            raise ParseError(f"missing field {key!r}")
    if not is_json_int(obj["order"]) or obj["order"] < 2:
        raise ParseError("order must be an integer >= 2")
    return obj


def load_plane(data, strict=True):
    """Parse and fully validate a plane file; validation failures are fatal.
    strict=False skips the axiom check (parse errors stay fatal) so a caller
    can collect the full violation report itself.  Missing parallel classes
    are computed by parallel_classes, so validate reports their faults too."""
    obj = load_json_object(data, ("type", "order", "points", "lines"))
    kind = obj["type"]
    if kind not in ("affine", "projective"):
        raise ParseError(f"unknown plane type {kind!r}")
    order = obj["order"]
    lines = [tuple(sorted(ln)) for ln in int_arrays(obj["lines"], "lines")]
    n_expect = order * order + (order + 1 if kind == "projective" else 0)
    if not is_json_int(obj["points"]):
        raise ParseError("points must be an integer")
    if obj["points"] != n_expect:
        raise NotAPlane(f"point count {obj['points']}, expected {n_expect} for order {order}")
    tags = obj.get("labels", {})
    if not isinstance(tags, dict):
        raise ParseError("labels must be an object")
    n_lines = order * order + order + (kind == "projective")
    labels = {}
    for k, v in tags.items():
        # an index the declared plane has, written as save_plane writes it
        # (18 digits outnumber any file's lines); a line missing from a short
        # file is a line-count fault for validate to report
        if not re.fullmatch("0|[1-9][0-9]{0,17}", k) or int(k) >= n_lines:
            raise ParseError(f"label key {k!r} is not a line index")
        labels[int(k)] = str(v)
    prov = str(obj.get("provenance", ""))
    if kind == "projective":
        plane = ProjectivePlane(order, tuple(lines), labels, prov)
    else:
        if "parallel_classes" in obj:
            classes = int_arrays(obj["parallel_classes"], "parallel_classes")
            classes = tuple(tuple(c) for c in classes)
        else:
            classes = parallel_classes(lines, order)
        plane = AffinePlane(order, tuple(lines), classes, labels, prov)
    if strict:
        report = validate(plane)
        if not report.ok:
            raise NotAPlane(report.failures[0])
    return plane
