"""Affine planes as complete sets of mutually orthogonal latin squares.

Fixing two parallel classes coordinatizes the plane as a q x q grid; each of
the q-1 remaining classes becomes a latin square (cell -> which line of the
class covers it), and the squares are pairwise orthogonal.  The reverse build
takes any complete orthogonal set back to a plane.  diagonal_witness moves a
transversal onto the main diagonal by a column relabeling and looks for a
symbol repeating three times there, i.e. three transversal points on one line.
"""

import json
from dataclasses import dataclass

from .errors import IncompleteSet, NotOrthogonal, OrderMismatch, ParseError
from .plane import AffinePlane, grid_lines, int_arrays, load_json_object


@dataclass(frozen=True)
class LatinSquare:
    """Order-q square with every row and every column a permutation of 0..q-1."""

    order: int
    rows: tuple

    def __post_init__(self):
        q = self.order
        object.__setattr__(self, "rows", tuple(tuple(r) for r in self.rows))
        if len(self.rows) != q:
            raise ValueError(f"need {q} rows, got {len(self.rows)}")
        full = frozenset(range(q))
        for i, r in enumerate(self.rows):
            if frozenset(r) != full or len(r) != q:
                raise ValueError(f"row {i} is not a permutation of 0..{q - 1}")
        for j in range(q):
            if frozenset(r[j] for r in self.rows) != full:
                raise ValueError(f"column {j} is not a permutation of 0..{q - 1}")

    def __getitem__(self, i):
        return self.rows[i]


def mols_from_plane(ap, h_class, v_class):
    """The q-1 latin squares of the classes other than h and v, in class order.

    Square M for class c has M[i][k] = position within c of the line through
    the grid cell (i, k).
    """
    q = ap.order
    squares = []
    for perms in grid_lines(ap, h_class, v_class):  # raises ClassesNotDistinct
        rows = [[None] * q for _ in range(q)]
        for s, perm in enumerate(perms):
            for i, j in enumerate(perm):
                rows[i][j] = s
        squares.append(LatinSquare(q, rows))
    return squares


def check_orthogonal(a, b):
    """True iff superimposing a and b yields q^2 distinct ordered pairs."""
    if a.order != b.order:
        raise OrderMismatch(f"orders {a.order} and {b.order} differ")
    q = a.order
    seen = {(a.rows[i][j], b.rows[i][j]) for i in range(q) for j in range(q)}
    return len(seen) == q * q


def plane_from_mols(squares):
    """Affine plane of a complete orthogonal set: q-1 squares of order q.

    Point (i, j) is index i*q + j.  Lines are the rows, the columns, and one
    level set per square per symbol; classes in that order.
    """
    if not squares:
        raise IncompleteSet("no squares given")
    q = squares[0].order
    if len(squares) != q - 1:
        raise IncompleteSet(f"{len(squares)} squares of order {q}, need {q - 1}")
    for i in range(len(squares)):
        for j in range(i + 1, len(squares)):
            if not check_orthogonal(squares[i], squares[j]):
                raise NotOrthogonal(f"squares {i} and {j} share a superimposed pair")
    lines = []
    for i in range(q):
        lines.append(tuple(i * q + j for j in range(q)))
    for j in range(q):
        lines.append(tuple(i * q + j for i in range(q)))
    for m in squares:
        cells = [[] for _ in range(q)]
        for i in range(q):
            for j in range(q):
                cells[m.rows[i][j]].append(i * q + j)
        for s in range(q):
            lines.append(tuple(cells[s]))
    classes = tuple(tuple(range(c * q, c * q + q)) for c in range(q + 1))
    return AffinePlane(q, tuple(lines), classes)


def diagonal_witness(squares, relabeling):
    """First (square index, symbol, diagonal rows) with a symbol appearing at
    least 3 times on the diagonal after permuting columns by the relabeling,
    scanning squares then symbols in ascending order.  None if no square has
    one (possible only for even order).

    relabeling[i] is the old column holding the transversal's row-i point, so
    the relabeled diagonal entry M[i][relabeling[i]] names the line of that
    square's class through the point.
    """
    if not squares:
        return None
    q = squares[0].order
    if sorted(relabeling) != list(range(q)):
        raise ValueError("relabeling must be a bijection on 0..q-1")
    for j, m in enumerate(squares):
        hits = [[] for _ in range(q)]
        for i in range(q):
            hits[m.rows[i][relabeling[i]]].append(i)
        for k in range(q):
            if len(hits[k]) >= 3:
                return j, k, tuple(hits[k])
    return None


def save_mols(squares):
    """Serialize to the JSON interchange format (UTF-8 bytes)."""
    if not squares:
        raise ValueError("no squares given")
    obj = {
        "order": squares[0].order,
        "squares": [[list(r) for r in m.rows] for m in squares],
    }
    return json.dumps(obj, indent=1).encode()


def load_mols(data):
    """Parse a MOLS file; latin violations are fatal, orthogonality is not
    checked here (plane_from_mols does that)."""
    obj = load_json_object(data, ("order", "squares"))
    order = obj["order"]
    if not isinstance(obj["squares"], list):
        raise ParseError("squares must be an array")
    out = []
    for idx, sq in enumerate(obj["squares"]):
        try:
            out.append(LatinSquare(order, int_arrays(sq, f"square {idx}")))
        except ValueError as e:
            raise ParseError(f"square {idx}: {e}") from e
    return out
