"""Linear/convex program construction and solving for the minmax relaxations.

Two programs are built here:

* the Kendall/Kemeny relaxation over pairwise orders in [0, 1] with one
  column per pair (Grötschel, Jünger & Reinelt, Operations Research 1984)
  and triangle constraints, minimizing the epigraph variable q of the
  weighted class costs (tied pairs inside a class contribute the constant
  weight*T_k/2).  Pair {a, b} keeps u[b][a] = 1 - u[a][b], a first in sigma
  (descending pooled weighted wins): HiGHS leaves nonbasic columns at their
  lower bound, sigma's side, which steers the vertex it ends on and so the
  rounding.  ``solve`` adds a ranged row per triple whose triangle its
  optima violate as a cut, re-solving from the last basis.  Separation
  checks only the triples through pairs that u leaves unsettled, pairs not
  within 1e-9/4 of one transitive order, since no other triple can be
  violated;
* the footrule program over free positions u(1..n), reformulated exactly
  as an LP with one epigraph column per class and element: the sum of that
  element's absolute deviations from the class's member positions is
  convex and piecewise linear, so it is the max of d + 1 affine pieces,
  d being the number of distinct member positions of that element.

``solve`` loads either program into one HiGHS model the same way, through
scipy's private binding (scipy >= 1.15), and raises ``SolverError`` with
HiGHS's model-status text for any status other than optimal.  It turns
presolve off for the Kendall program, whose solves are small and start
warm after the first, and keeps it for the footrule program's one cold
solve of many rows.  The Kendall program's class weights and the tie mass
read the instance's pairwise-count view ``Instance.above_counts``; members'
pairwise orders are counted nowhere else.  Both programs write their
``A_ub`` straight as CSR arrays.  Fractional solutions keep u (the pair
orders or the positions) and the solve counts.  Both read their optimum
the same way: each ``A_ub`` row plus q less its bound is q less the row's
slack, a class row's is its class's cost, and the largest is the worst
class cost at the solution.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.optimize._highspy import _core as highspy
from scipy.sparse import csr_matrix

from .distances import BLOCK_ELEMENTS
from .rankings import Instance


class SolverError(RuntimeError):
    """HiGHS rejected a program or ended with a status other than optimal."""


@dataclass(frozen=True, eq=False)
class LinearProgram:
    """A minimization LP plus what reads its solution back.

    The arrays keep the argument form of scipy's LP front end (``A_ub``,
    ``b_ub``, ``bounds``) only so that tests can hand a program to it as an
    independent reference; ``solve`` loads them into its own HiGHS model.

    Column 0 is the epigraph variable q.  A pairwise program, one that
    carries sigma, keeps u[b][a] of pair {a, b} at column
    ``_pair_columns(n)``, where ``rank``, each element's place in sigma, puts
    a first, and the float class weights ``wf`` (C, n, n); its rows are the
    C class rows, whose ``-b_ub`` are the classes' tie shifts plus their
    costs at sigma, and ``solve`` adds triangles.  A positional program keeps
    the positions u(h) at columns 1..n and class k's epigraph t_kh of element
    h at column 1 + n + kn + h; its rows are each class's piece rows followed
    by its cost row.
    """

    c: np.ndarray
    A_ub: csr_matrix
    b_ub: np.ndarray
    bounds: np.ndarray  # (columns, 2), +-inf where unbounded
    n: int
    wf: np.ndarray | None = None
    rank: np.ndarray | None = None  # place in sigma; a program with sigma is pairwise


@dataclass(frozen=True)
class FractionalSolution:
    objective: float
    u: np.ndarray  # pairwise: (n, n) in [0, 1], diagonal 0; positional: (n,)
    runs: int  # HiGHS solves of the program
    rows: int  # rows HiGHS held at its last solve
    iterations: int  # simplex iterations over all the solves


def tie_mass(inst: Instance) -> tuple[Fraction, ...]:
    """Average tied-pair count per class (the constant part of its cost).

    A member orders each of the C(n, 2) pairs one way or ties it, so a
    class's tied pairs are m C(n, 2) less its ordered ones; a class of
    permutations has none.
    """
    pairs = inst.n * (inst.n - 1) // 2
    ordered = inst.above_counts.sum(axis=(1, 2)).tolist()
    return tuple(
        Fraction(cls.m * pairs - o, cls.m) for o, cls in zip(ordered, inst.classes)
    )


#: a triangle row counts as violated when its sum is below 1 by more than this
_VIOLATION = 1e-9


def _pair_columns(n: int) -> np.ndarray:
    """(n, n) array: the column of pair {x, y}, in ``combinations`` order."""
    col = np.zeros((n, n), dtype=np.intp)
    lo, hi = np.triu_indices(n, 1)
    col[lo, hi] = col[hi, lo] = np.arange(1, len(lo) + 1)
    return col


def _triangle_rows(triples: np.ndarray, col: np.ndarray,
                   later: np.ndarray) -> tuple[np.ndarray, ...]:
    """Rows 1 <= u[x][y] + u[y][z] + u[z][x] <= 2 of triples (x * n + y) * n + z.

    Both cycles of x < y < z sum to 3, so the row holds both.  u[s][t] is the
    column of {s, t} where ``later[s, t]`` and 1 less it elsewhere.  Returns
    (lower, upper, indptr, indices, data) as ``addRows`` takes them.
    """
    n = len(col)
    xy, z = np.divmod(triples, n)
    x, y = np.divmod(xy, n)
    s, t = np.stack([x, y, z], axis=1), np.stack([y, z, x], axis=1)
    sign = np.where(later[s, t], 1.0, -1.0)
    j = (sign < 0).sum(axis=1)  # terms written 1 - column
    return 1.0 - j, 2.0 - j, np.arange(0, sign.size + 1, 3), col[s, t].ravel(), sign.ravel()


def _violated_chunk(flat: np.ndarray, n: int, a: np.ndarray, b: np.ndarray,
                    settled: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Violated ids of the triples whose first unsettled pair is one of (a, b).

    For the pair a < b and a third element c, the triple is sorted x < y < z
    and its pairs are taken in (xy, xz, yz) order: (a, b) is the first
    unsettled one when c > b, when a < c < b and (a, c) is settled, or when
    c < a and (c, a) and (c, b) are settled.  (a, b) itself is unsettled,
    which rules out c = a and c = b.  A triple is violated when either of its
    cycle sums is; each sum adds its terms in the order of the cycle from x,
    as the reference check of every triangle does, so the same rows come out.
    """
    cell = np.flatnonzero(upper[b] | (settled[a] & (upper[a] | settled[b])))
    i = cell // n
    c = cell - i * n
    a, b = a[i], b[i]
    x, y, z = np.minimum(a, c), np.minimum(np.maximum(a, c), b), np.maximum(b, c)
    xn, yn, zn = x * n, y * n, z * n
    xy = xn + y
    below = 1.0 - _VIOLATION
    fwd = flat.take(xy) + flat.take(yn + z) + flat.take(zn + x)  # u[x][y] + u[y][z] + u[z][x]
    rev = flat.take(yn + x) + flat.take(zn + y) + flat.take(xn + z)  # u[y][x] + u[z][y] + u[x][z]
    return (xy * n + z)[(fwd < below) | (rev < below)]


def _violated_triangles(u: np.ndarray, present: np.ndarray) -> np.ndarray:
    """Ascending ids of the triples u violates that are not in ``present``.

    Triple x < y < z has id (x * n + y) * n + z; ``present`` is ascending.
    The triple is violated when either of its cycle sums, u[x][y] + u[y][z]
    + u[z][x] or its reverse, is below 1 - eps, eps = ``_VIOLATION``.

    Only triples through unsettled pairs are checked.  Let sigma be the
    stable order of the elements by descending row sums of u, and call a pair
    {x, y} settled when u[x][y] and u[y][x] both lie within eps/4 of the 0/1
    values that sigma gives them.  A triple of three settled pairs is within
    eps/4 per term of the transitive tournament sigma induces on it, whose
    two cycle sums are 1 and 2; so both of its sums are at least 1 - 3eps/4.
    The settled test is exact on every entry it passes, and the two
    roundings of a sum below 4 cost under 1e-15, far less than the eps/4
    left; so no such triple is violated.  Every other triple is checked
    once, from its first unsettled pair.  The pairs go in chunks of at most
    BLOCK_ELEMENTS / 4 (pair, element) cells, so the dozen int and float
    temporaries of a chunk stay within a few BLOCK_ELEMENTS values, however
    fractional u is.
    """
    n = len(u)
    idx = np.arange(n)
    rank = np.empty(n, dtype=np.intp)
    rank[np.argsort(-u.sum(axis=1), kind="stable")] = idx
    off = np.abs(u - (rank[:, None] < rank)) > _VIOLATION / 4
    off |= off.T
    upper = idx[:, None] < idx  # upper[r, c]: c > r
    a, b = np.nonzero(off & upper)
    settled = ~off
    flat = u.ravel()
    step = max(1, BLOCK_ELEMENTS // (4 * max(n, 1)))
    ids = np.sort(np.concatenate([np.empty(0, dtype=np.int64)] + [
        _violated_chunk(flat, n, a[s:s + step], b[s:s + step], settled, upper)
        for s in range(0, len(a), step)
    ]))
    return ids[np.searchsorted(present, ids) == np.searchsorted(present, ids, side="right")]


def build_kendall_lp(inst: Instance) -> LinearProgram:
    """The pairwise-order relaxation of minmax Kendall/Kemeny aggregation.

    It holds the class rows only; ``solve`` adds the triangles.
    """
    n, num_classes = inst.n, inst.num_classes
    # w[k][x][y] = count * weight / m, looked up in a per-class table of the
    # m + 1 possible counts; Python's int true division rounds each exact
    # quotient correctly, like float(Fraction), whatever the operand sizes
    wf = np.stack([
        np.array([
            c * cls.weight.numerator / (cls.weight.denominator * cls.m)
            for c in range(cls.m + 1)
        ])[counts]
        for cls, counts in zip(inst.classes, inst.above_counts)
    ])
    ties = tie_mass(inst)
    shifts = np.array(
        [float(cls.weight * t / 2) for t, cls in zip(ties, inst.classes)]
    )
    # sigma: descending pooled weighted wins sum_k sum_y (w[k][x][y] - w[k][y][x]),
    # ties by id; summed from integer net wins, so that equal ones stay equal
    net = inst.above_counts.sum(axis=2) - inst.above_counts.sum(axis=1)
    wins = sum(k_net * (cls.weight.numerator / (cls.weight.denominator * cls.m))
               for k_net, cls in zip(net, inst.classes))
    rank = np.empty(n, dtype=np.intp)
    rank[np.argsort(-wins, kind="stable")] = np.arange(n)
    lo, hi = np.triu_indices(n, 1)  # pairs in combinations order
    swap = rank[lo] > rank[hi]
    a, b = np.where(swap, hi, lo), np.where(swap, lo, hi)

    # class cost epigraph, column v = u[b][a] of each pair:
    # sum_pairs (w[a][b] - w[b][a]) v - q <= -shift_k - sum_pairs w[b][a]
    ncols = 1 + len(lo)
    block = np.empty((num_classes, ncols))
    block[:, 0] = -1.0
    np.subtract(wf[:, a, b], wf[:, b, a], out=block[:, 1:])
    mask = block != 0
    indptr = np.r_[0, np.cumsum(mask.sum(axis=1))]
    A_ub = csr_matrix((block[mask], np.nonzero(mask)[1], indptr), shape=(num_classes, ncols))

    c_vec = np.zeros(ncols)
    c_vec[0] = 1.0
    bounds = np.zeros((ncols, 2))
    bounds[0, 1] = np.inf
    bounds[1:, 1] = 1.0
    return LinearProgram(
        c_vec,
        A_ub,
        -shifts - wf[:, b, a].sum(axis=1),
        bounds,
        n,
        wf=wf,
        rank=rank,
    )


def build_footrule_program(inst: Instance) -> LinearProgram:
    """Minmax weighted L1 distance to the member positions, as an exact LP.

    Column t_kh is the epigraph of class k's sum_g |u(h) - p_gh|, the max over
    r = 0..m of the pieces (m - 2r) u(h) + 2 S_r - S_m, where S_r sums the r
    largest member positions of h.  It gets a row for r = 0, r = m and each r
    whose r-th and (r+1)-th largest positions differ, by element, then r.
    """
    n = inst.n
    counts, indices, data, b_ub = [], [], [], []
    row0, col0 = 0, 1 + n
    for cls, tw in zip(inst.classes, np.split(inst.member_tw, inst.class_starts[1:])):
        lam = float(cls.weight) / cls.m
        s = np.sort(tw / 2, axis=0)[::-1]
        top = np.cumsum(np.vstack([np.zeros(n), s]), axis=0)  # S_r
        keep = np.ones((cls.m + 1, n), dtype=bool)
        keep[1:-1] = s[:-1] > s[1:]
        h, r = np.nonzero(keep.T)
        t_cols = col0 + np.arange(n)
        # pieces: slope u(h) - t_kh <= -intercept; class: lambda/m sum_h t_kh - q <= 0
        counts += [np.full(len(h), 2), [n + 1]]
        indices += [np.stack([1 + h, t_cols[h]], axis=1).ravel(), np.r_[0, t_cols]]
        data += [np.stack([cls.m - 2.0 * r, -np.ones(len(h))], axis=1).ravel(),
                 np.r_[-1.0, np.full(n, lam)]]
        b_ub += [top[-1, h] - 2 * top[r, h], [0.0]]
        row0 += len(h) + 1
        col0 += n

    # rows come out in order, each with ascending columns, so they are CSR as is
    A_ub = csr_matrix((np.concatenate(data), np.concatenate(indices),
                       np.r_[0, np.cumsum(np.concatenate(counts))]), shape=(row0, col0))
    c_vec = np.zeros(col0)
    c_vec[0] = 1.0
    bounds = np.zeros((col0, 2))
    bounds[:, 1] = np.inf
    bounds[1:1 + n, 0] = -np.inf
    return LinearProgram(c_vec, A_ub, np.concatenate(b_ub), bounds, n)


def _loaded(highs, status) -> None:
    """Raise SolverError if HiGHS rejected the data it was passed."""
    if status == highspy.HighsStatus.kError:
        raise SolverError(highs.modelStatusToString(highspy.HighsModelStatus.kModelError))


def _add_rows(highs, lower: np.ndarray, upper: np.ndarray, indptr: np.ndarray,
              indices: np.ndarray, data: np.ndarray) -> None:
    """Append the rows lower <= A x <= upper, A given by its CSR parts."""
    _loaded(highs, highs.addRows(len(lower), lower, upper, len(data), indptr, indices, data))


def solve(lp: LinearProgram) -> FractionalSolution:
    """Solve ``lp`` on one HiGHS model and read the structured solution back out.

    The model holds the columns with their bounds and the ``A_ub`` rows as
    (-inf, b_ub].  A pairwise program (``rank`` is set) then appends a
    ranged row for each triple one of whose triangles its optimum violates
    and is solved again, warm from its last basis, until no triangle is
    violated; a positional program separates nothing.  The rows come from a
    finite set, so this ends, and the returned optimum is the optimum of the
    program with every triangle.  A pairwise model is solved without
    presolve: it only slowed the first, cold solve, and without it HiGHS
    starts from the all-zero columns, sigma's order of every pair.
    """
    n = lp.n
    pairwise = lp.rank is not None
    highs = highspy._Highs()
    highs.setOptionValue("output_flag", False)
    if pairwise:
        _loaded(highs, highs.setOptionValue("presolve", "off"))
        col = _pair_columns(n)
        later = lp.rank[:, None] > lp.rank  # u[s][t] is the column of {s, t}
    lower, upper = lp.bounds.T  # np.inf is kHighsInf
    _loaded(highs, highs.addCols(len(lp.c), lp.c, lower, upper, 0, [], [], []))
    _add_rows(highs, np.full(len(lp.b_ub), -highspy.kHighsInf), lp.b_ub,
              lp.A_ub.indptr, lp.A_ub.indices, lp.A_ub.data)
    present = np.empty(0, dtype=np.int64)  # ascending ids of the triples added
    runs = iterations = 0
    while True:
        highs.run()
        status = highs.getModelStatus()
        if status != highspy.HighsModelStatus.kOptimal:
            raise SolverError(highs.modelStatusToString(status))
        runs += 1
        iterations += highs.getInfo().simplex_iteration_count
        x = np.array(highs.getSolution().col_value)
        if pairwise:
            u = np.where(later, x[col], 1.0 - x[col])
            np.fill_diagonal(u, 0.0)
            new = _violated_triangles(u, present)
        else:
            u, new = x[1:1 + n], []  # a positional program separates nothing
        if not len(new):
            break
        _add_rows(highs, *_triangle_rows(new, col, later))
        present = np.sort(np.concatenate([present, new]))
    # a row plus q less its bound is q less its slack; a class row holds -q,
    # so there it is the class's cost
    costs = lp.A_ub @ x + x[0] - lp.b_ub
    return FractionalSolution(float(costs.max()), u, runs, highs.getNumRow(), iterations)
