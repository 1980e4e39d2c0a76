"""Branch-and-bound minimization of collinear triples.

Three search domains share one kernel (_pair_search): DFS over domain points
in ascending order, candidate images in ascending order, with a counter per
cell and a prune rule against an incumbent (see _Incumbent).  Each domain
builds a pair table once per search, listing for two cells the later cells
collinear with both: _line_pairs walks the lines of a field (y = s*x + b,
s nonzero) or of a plane, and _zn_pairs solves the determinant congruence,
because collinearity mod n is not a line structure.  A plane's lines come
from plane.grid_lines: every line outside the two grid classes (one symbol of
one latin square of mols_from_plane) as the column of its cell in each row.
Placing a cell adds one to the counter of every later cell collinear with it
and a placed cell, so a counter is the number of triples its cell would add.
Counters only grow, so the kernel also prunes a node once its count plus each
unplaced row's least counter in a free column reaches the bound.

Every domain is searched modulo a group G of column maps beta, which act on a
permutation sigma by sigma -> beta o sigma and keep its triple count:
- fields: y -> c*y + d, c nonzero; (x, y) -> (x, c*y + d) takes lines to lines
- Z_n: y -> c*y + d, c a unit mod n; the determinant is scaled by c
- planes: the column group of the (h, v) grid, computed per search with
  its row group (_grid_groups).  beta must keep every row and map every line
  outside the two grid classes onto such a line.  Each such line is a
  row -> column permutation pi_L, so beta = pi_L o pi_L0^-1 for one fixed
  L0, and each of those q(q-1) candidates is checked against the set of all
  pi_L.  For AG(2, q) all of them pass at every class pair; the order-9
  fixtures at classes (0, 1) have groups of order 1 to 72.
The set of permutations below any count is closed under G.  If beta took the
2-prefix of its lex-first member sigma below the prefix itself, beta o sigma
would be a smaller member, so sigma lies under an orbit-least 2-prefix (the
orbit-representative argument of McKay, "Isomorph-free exhaustive generation",
J. Algorithms 1998).  _symmetry reads those roots off its tables, and
_run_search searches only under them, in ascending order; min_value,
lex_least and first_below are exact there.  The roots are (0, 1) over a field
and (0, g) for each divisor g < n of n over Z_n.

Every domain is also searched modulo row maps alpha, which act by
sigma -> sigma o alpha^-1 and keep the count: over fields and Z_n the maps
x -> u*x + b (u nonzero, or a unit mod n), which permute the lines or scale
the determinant by u; over a plane the row group of its grid, the alpha that
take every line pi to a line pi o alpha^-1, tested with G in one pass.
Row and column maps commute, so the group searched is the direct product of
the two.  Rows are placed in order, so these give no roots but a lex-leader
check in the kernel
(Crawford, Ginsberg, Luks and Roy, "Symmetry-breaking predicates for search
problems", KR 1996): a node is pruned once some alpha, with the beta in G that
makes its image least, takes the placed prefix lex-below itself.  That never
prunes the lex-least member of an orbit, the one min_value, lex_least and
first_below report, whatever subset of the row maps the check runs.  The
check is incremental (_lex_step): each alpha waits, filed under the row its
next comparison needs, and is dropped for the subtree once its image
compares higher.  _symmetry drops the identity row map where G acts freely
on 2-prefixes (fields, prime n, planes): there it never cuts.  The kernel
gets only the row maps whose first comparisons come early (_cutting).
enumerate_all_min expands the minimizers found by every row map, not only
the kernel's, then by G, drops repeats and sorts: under a subset the kernel
may keep several members of an orbit, but always its lex-least one, whose
expansion by the whole group is the orbit.

Every mode is one pass of the kernel against one exclusive limit: a node is
pruned once its count, or its look-ahead bound, reaches the limit, or once
the lex-leader check cuts it; prunes counts all three.
min_value and lex_least start from a seed s that a known witness attains as
the limit s + 1 (or from C(size, 3) + 1) and lower it to each kept leaf's
value, which makes the witness left at the end the lex-first one at the
minimum, so both modes and parallel runs report the same canonical witness.
enumerate_all_min keeps every leaf at the least value seen, under the limit
best + 1, and first_below stops at the first leaf under its bound.  The seed
comes from the closed form (odd q and prime n) or the reciprocal map (even
q); composite n and planes start from C(size, 3) + 1.  With parallel_depth >
0 each root is split that many levels further into prefix tasks, dealt
round-robin into static shares (_search_shares): the calling process runs one
job of shares and each worker of one process pool per search another.  A
share carries its own state, one _Incumbent with its witnesses and node and
prune counts, which the kernel fills as it runs.
Sequential and parallel runs share the share code and one merge of the
shares in task order, so both count nodes and enforce node_limit the same
way.

Before a search returns, _run_search recounts every witness it reports with a
counter that shares nothing with the kernel's pair table, and raises
AssertionError unless each recounts to psi.  Over a field that is
count_triples, C(m, 3) over the sizes of the lines y = s*x + b, whose ids
at each cell collinear._line_sizes computes by field arithmetic and keeps
per field; over Z_n count_triples tests all C(n, 3) determinants in the
integers, reducing each mod n once; over a plane it is a table built once
per search from the raw incidences, cell (i, j) -> the lines outside the two
grid classes through the point where h line i meets v line j, and a
witness's count is C(m, 3) summed over those lines, m being the chosen cells
on each.  None of them reads plane_grid, the MOLS or a pair table.
"""

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import permutations
from math import comb, gcd, perm
from operator import itemgetter

from .algebra import RingSpec, field_make
from .collinear import PermGraph, closed_form_minimizer, count_triples, reciprocal_perm
from .errors import ClassesNotDistinct, NodeLimitExceeded
from .plane import grid_lines

MODES = ("min_value", "enumerate_all_min", "lex_least", "first_below")


@dataclass(frozen=True)
class SearchConfig:
    """A search's mode and limits, a plain value: threads is the worker cap,
    or None for one worker per core."""

    mode: str = "min_value"
    bound: int = None  # first_below only: find a witness with count < bound
    parallel_depth: int = 0
    threads: int = None
    node_limit: int = None
    upper_bound_seed: int = None  # must be a count achieved by a known witness

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "first_below" and self.bound is None:
            raise ValueError("first_below needs a bound")
        for name, least in (("threads", 1), ("bound", 0), ("parallel_depth", 0),
                            ("node_limit", 0), ("upper_bound_seed", 0)):
            value = getattr(self, name)
            if value is not None and (isinstance(value, bool) or not isinstance(value, int)
                                      or value < least):
                kind = "a positive" if least else "a non-negative"
                raise ValueError(f"{name} must be {kind} integer, got {value!r}")


@dataclass(frozen=True)
class SearchOutcome:
    psi: int
    witnesses: tuple
    nodes_expanded: int
    prunes: int
    elapsed: float
    config: SearchConfig


# -- the incumbent -----------------------------------------------------------
# The kernel walks its tree in lex order and prunes a node once its partial
# count reaches limit; partial counts only grow along a path, so every leaf
# it reaches is offered here, and shares are merged the same way.


class _Incumbent:
    """One share's state: the exclusive limit it prunes against, the
    witnesses kept under it, and the nodes expanded and prunes made for it.
    best is the value the witnesses attain, or the limit while none is kept.

    mode "best": the lex-first witness at the least value.  A seed s that a
    known witness attains enters as the limit s + 1; each kept witness lowers
    the limit to its value, so later leaves must improve strictly.
    mode "all": every witness at the least value, in the order offered; the
    limit stays best + 1, so a result above best is dropped, and the list
    resets when best drops.
    mode "first": the first witness below a fixed limit.
    """

    def __init__(self, limit, mode):
        self.limit = self.best = limit
        self.mode = mode
        self.witnesses = []
        self.nodes = self.prunes = 0

    def offer(self, value, witnesses):
        """Merge a result; True once a "first" search may stop."""
        if witnesses and value < self.limit:
            if value == self.best:
                self.witnesses.extend(witnesses)
            else:
                self.best = value
                self.witnesses = list(witnesses)
                self.limit = value + 1 if self.mode == "all" else value
        return self.mode == "first" and bool(self.witnesses)


# -- the kernel --------------------------------------------------------------
# Cells are row * size + column.  pairs[p][a] lists the later-row cells
# collinear with the cells a and p; cnt[cell] counts the placed pairs it is
# collinear with, which is the number of triples placing that cell would add.
# Two builders fill pairs: _zn_pairs solves the congruence mod n, and
# _line_pairs walks the lines of a field or a plane.


def _zn_pairs(n):
    """pairs[p][a] for cells a = (i, y_i) and p = (j, y_j), i < j: the cells
    (d, y), d > j, whose determinant with a and p vanishes mod n, that is
    y*(j - i) = y_i*(j - d) + y_j*(d - i) mod n."""
    # scaled[k][y] = k*y mod n, for k in -(n-1)..n-1 by negative indexing;
    # solve[e][d][c] lists the cells (d, y) with y*e = c mod n, ascending, for
    # c in 0..2n-2, so that a sum of two residues needs no modulus
    scaled = [[k * y % n for y in range(n)] for k in range(n)]
    solve = [None]
    for e in range(1, n):
        ys = [[] for _ in range(n)]
        for y in range(n):
            ys[scaled[e][y]].append(y)
        solve.append([[tuple([d * n + y for y in s]) for s in ys + ys] for d in range(n)])
    pairs = []
    for j in range(n):
        for yj in range(n):
            row = []
            for i in range(j):
                terms = [(solve[j - i][d], scaled[j - d], scaled[d - i][yj])
                         for d in range(j + 1, n)]
                for yi in range(n):
                    cells = []
                    if yi != yj:  # no permutation holds two cells of a column
                        for sols, by_yi, c in terms:
                            cells += sols[by_yi[yi] + c]
                    row.append(tuple(cells))
            pairs.append(row)
    return pairs


def _line_pairs(q, perms):
    """pairs[p][a] from lines given as row -> column permutations: for two
    cells a, p of a line in rows i < j, the line's cells in rows d > j.  Two
    cells in distinct rows and columns lie on exactly one such line; cells in
    one column lie on none, and list nothing."""
    pairs = [[()] * (j * q) for j in range(q) for _ in range(q)]
    for pi in perms:
        cells = [d * q + y for d, y in enumerate(pi)]
        for j in range(1, q - 1):
            later = tuple(cells[j + 1:])
            row = pairs[cells[j]]
            for a in cells[:j]:
                row[a] = later
    return pairs


def _pair_place(row, placed, cnt):
    """Add one to cnt at every cell that row, the pairs[] entry of the cell
    being placed, lists under a placed cell."""
    for a in placed:
        for c in row[a]:
            cnt[c] += 1


def _lex_step(syms, d, sig, least, after):
    """Advance the lex-leader states that wait for row d, now that rows 0..d
    are placed with columns sig[:d + 1].  A state (inv, k, s) holds a row
    map alpha as inv = alpha^-1 and, as its offset in the tables of
    _symmetry, the set s of the column maps beta whose image
    beta o sigma o alpha^-1 ties sigma at the positions before k; it starts
    at (inv, 0, 0), set 0 being the whole group.  The image's k-th column is
    beta(sigma(inv[k])), least over s, so a state compares position k once
    rows inv[k] and k are placed.  A lower image prunes, a higher one drops
    the state for the subtree, a tie narrows s and goes on to k + 1, and a
    tie at every position drops it too.  A state that must wait is re-filed
    under the row it waits for.  Returns the rows re-filed under, for the
    caller to pop on return, or None to prune."""
    size = len(sig)
    moved = []
    for inv, k, s in syms[d]:
        while k < size:
            j = inv[k]
            r = j if j > k else k
            if r > d:
                syms[r].append((inv, k, s))
                moved.append(r)
                break
            y = s + sig[j]
            if least[y] != sig[k]:
                if least[y] < sig[k]:
                    for r in moved:
                        syms[r].pop()
                    return None
                break
            s = after[y]
            k += 1
    return moved


def _pair_search(size, pairs, node_limit, prefix, inc, sym):
    """Lex-ordered DFS over the completions of prefix that offers each leaf
    to the _Incumbent inc and prunes against its limit; adds the nodes
    expanded and prunes made to inc's counts and returns True once a "first"
    search may stop.  inc.nodes is the share's count before this call, so the
    kernel raises NodeLimitExceeded once that count passes node_limit.
    Before expanding a node it prunes on cost + the sum over unplaced rows of
    the row's least counter in a free column: counters only grow, so no leaf
    below costs less.  It also prunes a node that some row map of sym, the
    (rows, least, after) of _symmetry, takes lex-below itself (_lex_step).
    Each child gets its own free columns and a copy of its parent's counters
    plus its own pairs, so nothing is undone on return."""
    budget = None if node_limit is None else node_limit - inc.nodes
    nodes = prunes = 0
    cells = size * size
    cnt = [0] * cells
    placed = []  # the cells placed so far, one per row
    sig = [0] * size  # sig[d] is row d's column, once placed
    rows, least, after = sym
    syms = [[] for _ in range(size)]  # syms[r]: the states waiting for row r
    for inv in rows:  # first read once its first two comparisons can run
        syms[max(inv[0], inv[1])].append((inv, 0, 0))
    cost = 0
    for d, y in enumerate(prefix):
        p = d * size + y
        cost += cnt[p]
        _pair_place(pairs[p], placed, cnt)
        placed.append(p)
        sig[d] = y
        if syms[d] and _lex_step(syms, d, sig, least, after) is None:
            inc.prunes += 1
            return False
    limit = inc.limit
    if cost >= limit:
        inc.prunes += 1
        return False

    def rec(d, free, cost, cnt):
        nonlocal limit, nodes, prunes
        if d == size:
            stop = inc.offer(cost, [tuple(sig)])
            limit = inc.limit
            return stop
        base = d * size
        bound = cost
        if len(free) == 1:
            bound += cnt[base + free[0]]
        else:
            get = itemgetter(*free)
            for b in range(base, cells, size):
                bound += min(get(cnt[b:b + size]))
                if bound >= limit:
                    break
        if bound >= limit:
            prunes += 1
            return False
        for i, y in enumerate(free):
            p = base + y
            nc = cost + cnt[p]
            nodes += 1
            if budget is not None and nodes > budget:
                raise NodeLimitExceeded(f"expanded more than {node_limit} nodes")
            if nc >= limit:
                prunes += 1
                continue
            sig[d] = y
            moved = ()
            if syms[d]:
                moved = _lex_step(syms, d, sig, least, after)
                if moved is None:
                    prunes += 1
                    continue
            child = cnt[:]
            _pair_place(pairs[p], placed, child)
            placed.append(p)
            stop = rec(d + 1, free[:i] + free[i + 1:], nc, child)
            placed.pop()
            for r in moved:
                syms[r].pop()
            if stop:
                return True
        return False

    free = tuple([y for y in range(size) if y not in prefix])
    try:
        stop = rec(len(prefix), free, cost, cnt)
    finally:
        del rec  # rec is in its own closure: unbind it so refcounting frees the search state
    inc.nodes += nodes
    inc.prunes += prunes
    return stop


# -- shares and the process pool ---------------------------------------------


# a pool process's search context, (size, pairs, node_limit, count, roots,
# depth, limit, mode, sym) as _run_shares reads it, set once per process by
# _init_worker so that a job is only its share indices
_worker = None


def _init_worker(ctx):
    global _worker
    _worker = ctx


def _job(shares):
    return _run_shares(_worker, shares)


def _prefixes(size, roots, depth):
    """The tasks, generated lazily: each root extended by up to depth further
    distinct images, in lex order."""
    for root in roots:
        rest = [y for y in range(size) if y not in root]
        for tail in permutations(rest, min(depth, len(rest))):
            yield root + tail


def _run_shares(ctx, shares):
    """Run the listed shares out of ctx's count: share w owns the prefix tasks
    whose index is w mod count and runs them in lex order on its own
    _Incumbent(limit, mode), up to its first hit in mode "first".  The
    prefixes are walked once, lazily, each task going to its share.  Returns
    the shares' incumbents.  A share raises NodeLimitExceeded once its own
    node count passes the limit."""
    size, pairs, node_limit, count, roots, depth, limit, mode, sym = ctx
    incs = [_Incumbent(limit, mode) for _ in shares]
    open_shares = dict(zip(shares, incs))
    for i, prefix in enumerate(_prefixes(size, roots, depth)):
        inc = open_shares.get(i % count)
        if inc is not None and _pair_search(size, pairs, node_limit, prefix, inc, sym):
            del open_shares[i % count]
            if not open_shares:
                break
    return incs


def _search_shares(cfg, size, pairs, sym, roots, limit, mode):
    """Run the kernel over the prefix tasks of roots in static shares and
    offer the shares to one _Incumbent(limit, mode), which is returned with
    the summed nodes and prunes.

    Sequentially (parallel_depth 0) one share runs the roots in this process.
    Otherwise there are min(threads or cores, tasks) shares, so a requested
    thread count fixes the node counts whatever the cores, and each of
    procs = min(shares, cores) processes runs every procs-th share as one
    job.  This process runs job 0 itself, after handing jobs 1..procs-1 to
    one pool of procs - 1 workers per search (no pool when procs is 1), and
    then collects theirs.  An exception on either side fails the search once
    the pool has shut down.

    Shares are offered in the order of their first witness, which is task
    order: the tasks are disjoint prefix ranges in lex order.  The merge
    equals the sequential outcome.  "best": a share's limit stays above psi
    until its lex-first psi-leaf, so the share holding the global lex-first
    minimizer keeps it, and it is offered before any other share at psi.
    "all": every share's limit stays at least psi + 1, so every minimizer is
    kept.  "first": a share stops only at its own first hit, so every task
    before the earliest hit has run, and the lex-first hit is offered first;
    sorting by (value, witness) would keep a lower later hit instead.
    node_limit is checked against the summed nodes, and each share stops
    once its own count passes it, so a failing search expands at most
    shares x (node_limit + 1) nodes."""
    depth = cfg.parallel_depth
    count = procs = 1
    if depth > 0:
        cpus = os.cpu_count() or 1
        count = min(cfg.threads or cpus, len(roots) * perm(size - 2, min(depth, size - 2)))
        procs = min(count, cpus)
    ctx = (size, pairs, cfg.node_limit, count, roots, depth, limit, mode, sym)
    if procs == 1:
        shares = _run_shares(ctx, range(count))
    else:
        with ProcessPoolExecutor(max_workers=procs - 1, initializer=_init_worker,
                                 initargs=(ctx,)) as pool:
            jobs = pool.map(_job, [range(j, count, procs) for j in range(1, procs)])
            shares = _run_shares(ctx, range(0, count, procs))
            shares += [inc for incs in jobs for inc in incs]
    nodes = sum(inc.nodes for inc in shares)
    if cfg.node_limit is not None and nodes > cfg.node_limit:
        raise NodeLimitExceeded(f"expanded more than {cfg.node_limit} nodes")
    top = _Incumbent(limit, mode)
    for inc in sorted(shares, key=lambda inc: inc.witnesses[:1]):
        if top.offer(inc.best, inc.witnesses):
            break
    return top, nodes, sum(inc.prunes for inc in shares)


# -- orchestration -----------------------------------------------------------


# Column maps and their images are built as tuple([...]): tuple() of a
# generator allocates ten slots and shrinks, so it never reuses the tuples its
# frees put on the free list, and thousands stay allocated after a search.


def _symmetry(rows, group):
    """The symmetry of a search, (rows, least, after, roots, group), from its
    row maps alpha, as the tuples alpha^-1, and its column group, a list of
    maps beta (tuples) that includes the identity.  least and after are flat
    tables over sets of column maps: set s, at offset s*size, has
    least[s*size + y] = its least beta(y) and after[s*size + y] = the offset
    of its maps that reach it; set 0 is the whole group.  So the roots, the
    orbit-least 2-prefixes in ascending order, are the (a, b) with
    least[a] == a and least[after[a] + b] == b.  If the group acts freely on
    2-prefixes, |G| * |roots| = size * (size - 1), only beta = id ties a root,
    so the identity row map ties at every position and is dropped."""
    size = len(group[0])
    sets = [tuple(range(len(group)))]  # sets of indices into group
    index = {sets[0]: 0}
    least, after = [], []
    for s, ids in enumerate(sets):  # grows as narrowing finds new sets
        if len(ids) == 1:
            least += group[ids[0]]
            after += [s * size] * size
            continue
        for y in range(size):
            low = min([group[b][y] for b in ids])
            tied = tuple([b for b in ids if group[b][y] == low])
            if tied not in index:
                index[tied] = len(sets)
                sets.append(tied)
            least.append(low)
            after.append(index[tied] * size)
    roots = [(a, b) for a, b in permutations(range(size), 2)
             if least[a] == a and least[after[a] + b] == b]
    if len(group) * len(roots) == size * (size - 1):
        rows = [inv for inv in rows if inv != tuple(range(size))]
    return rows, least, after, roots, group


def _cutting(rows, size):
    """The row maps handed to the kernel's lex-leader check: the alpha with
    alpha^-1(0), alpha^-1(1) and alpha^-1(2) all at most ceil(size/2).  Any
    subset is sound, as the check never cuts the lex-least member of an
    orbit; the rule trades cuts against the cost of walking the states.
    Over a field or prime n, G is sharply 2-transitive and the root is
    (0, 1), so positions 0 and 1 of every image tie, and the first
    comparison that can cut, position 2, waits for rows alpha^-1(0..2).  A
    map whose last of these is row d is walked at every node that places
    row d, and a cut there saves at most the (size - 1 - d)! leaves below
    it: past the middle row the saving falls factorially while the nodes
    that walk the map do not.  GF(13) keeps 27 of its 155 maps and expands
    the same nodes.  Planes and composite n, where positions 0 and 1 can
    cut too, take the same rule."""
    return [inv for inv in rows if max(inv[:3]) <= (size + 1) // 2]


def _run_search(cfg, size, sym, pairs, recount, seed_value=None):
    """Run cfg's mode over the completions of the roots of sym, the symmetry
    of _symmetry, on the kernel with pair table pairs and the _cutting
    subset of sym's row maps.  enumerate_all_min expands the minimizers
    found there by all of sym's row maps, then by the column group.  cfg
    None runs the default SearchConfig."""
    rows, least, after, roots, group = sym
    cfg = cfg or SearchConfig()
    t0 = time.perf_counter()
    if cfg.mode == "first_below":
        limit, mode = cfg.bound, "first"
    else:
        seed = cfg.upper_bound_seed if cfg.upper_bound_seed is not None else seed_value
        limit = comb(size, 3) + 1 if seed is None else seed + 1
        mode = "all" if cfg.mode == "enumerate_all_min" else "best"
    top, nodes, prunes = _search_shares(cfg, size, pairs, (_cutting(rows, size), least, after),
                                        roots, limit, mode)
    psi = top.best if top.witnesses else None
    if psi is None and mode != "first":
        # only possible when the seed undercut the true minimum, so no
        # witness got under its limit
        raise ValueError(f"upper bound seed {seed} is below the minimum")
    found = top.witnesses
    if cfg.mode == "enumerate_all_min":
        found = found + [tuple([w[i] for i in inv]) for w in found for inv in rows]
        seen = set()  # a union of orbits under group, so a member's orbit is in it
        for w in found:
            if w not in seen:
                seen.update([tuple([beta[y] for y in w]) for beta in group])
        found = sorted(seen)
    witnesses = tuple(found)
    for w in witnesses:
        got = recount(w)
        if got != psi:
            raise AssertionError(f"witness {w} recounts to {got}, search said {psi}")
    elapsed = time.perf_counter() - t0
    return SearchOutcome(psi, witnesses, nodes, prunes, elapsed, cfg)


def _y_affine_group(ctx, scales):
    """The maps y -> c*y + d with c in scales and d any element of ctx."""
    els = ctx.elements()
    return [tuple([ctx.add(ctx.mul(c, y), d) for y in els]) for c in scales for d in els]


def _grid_groups(lines):
    """The row maps, as the tuples alpha^-1, and the column group of a grid
    whose lines are the row -> column permutations pi_0, pi_1, ...:
    beta_a = pi_a o pi_0^-1 is in the group when T[a][b] =
    pi_a o pi_0^-1 o pi_b is a line for every b, and pi_0^-1 o pi_b is
    alpha^-1 for a row map when T[a][b] is a line for every a.  A member's
    row of T is all lines, so the column test reads only the other rows."""
    members = set(lines)
    inv0 = [0] * len(lines[0])
    for i, j in enumerate(lines[0]):
        inv0[j] = i
    images = [itemgetter(*pi) for pi in lines]  # images[b](beta) = beta o pi_b
    group, failed = [], []
    for pi in lines:
        beta = tuple([pi[i] for i in inv0])
        (group if all(image(beta) in members for image in images) else failed).append(beta)
    rows = [image(inv0) for image in images
            if all(image(beta) in members for beta in failed)]
    return rows, group


def _plane_recount(ap, h_class, v_class):
    """The triple count of a witness of the (h, v) grid from the raw
    incidences: cell (i, j) is the point where h line i meets v line j, found
    by intersecting their point sets rather than read from plane_grid, and a
    witness counts C(m, 3) on each line outside the two classes that holds m
    of its cells."""
    q = ap.order
    skip = set(ap.parallel_classes[h_class]) | set(ap.parallel_classes[v_class])
    through = [[] for _ in range(ap.n_points)]
    for li, ln in enumerate(ap.lines):
        if li not in skip:
            for p in ln:
                through[p].append(li)
    cell_lines = []
    for hl in ap.parallel_classes[h_class]:
        h_points = set(ap.lines[hl])
        for vl in ap.parallel_classes[v_class]:
            inter = h_points.intersection(ap.lines[vl])
            if len(inter) != 1:
                raise ClassesNotDistinct("classes do not cross properly")
            cell_lines.append(tuple(through[inter.pop()]))
    cols = list(range(q))

    def recount(w):
        if sorted(w) != cols:
            raise ValueError(f"witness {w} is not a bijection on 0..{q - 1}")
        on = [0] * len(ap.lines)
        for i, j in enumerate(w):
            for li in cell_lines[i * q + j]:
                on[li] += 1
        return sum(comb(m, 3) for m in on if m > 2)

    return recount


def min_triples_field(f, cfg=None):
    """Exact minimum number of collinear triples over all permutations of
    GF(q), with witnesses per the configured mode.  The incumbent is seeded
    from the closed-form family (odd q) or the reciprocal map (even q), unless
    cfg gives a seed or a first_below bound."""
    q = f.q
    seed = count_triples(closed_form_minimizer(f) if f.p != 2 else reciprocal_perm(f))

    def recount(w):
        return count_triples(PermGraph(f, w))

    # the line y = s*x + b, s nonzero, as a row -> column map is the column
    # map y -> s*y + b, so the lines, the row maps x -> u*x + b as alpha^-1
    # and the group are one list
    lines = _y_affine_group(f, range(1, q))
    return _run_search(cfg, q, _symmetry(lines, lines), _line_pairs(q, lines), recount, seed)


def min_triples_zn(n, cfg=None):
    """Exact minimum under determinant-mod-n collinearity.  For prime n, Z_n
    is GF(n) and the incumbent is seeded, as min_triples_field seeds it, from
    the closed form's count over Z_n; composite n starts unseeded."""
    if n < 3:
        raise ValueError("need n >= 3")
    ring = RingSpec(n)
    units = [c for c in range(1, n) if gcd(c, n) == 1]

    def recount(w):
        return count_triples(PermGraph(ring, w))

    seed = recount(closed_form_minimizer(field_make(n)).images) if len(units) == n - 1 else None
    group = _y_affine_group(ring, units)  # also the row maps, as alpha^-1
    return _run_search(cfg, n, _symmetry(group, group), _zn_pairs(n), recount, seed)


def min_triples_plane(ap, h_class, v_class, cfg=None):
    """Exact minimum over transversals of the (h, v) grid; witnesses are
    column tuples (row i picks column witness[i]).  The lines are those of
    grid_lines, class after class."""
    q = ap.order
    lines = [perm for perms in grid_lines(ap, h_class, v_class) for perm in perms]
    sym = _symmetry(*_grid_groups(lines))
    return _run_search(cfg, q, sym, _line_pairs(q, lines), _plane_recount(ap, h_class, v_class))
