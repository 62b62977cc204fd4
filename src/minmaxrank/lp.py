"""Linear/convex program construction and solving for the minmax relaxations.

Two programs are built here:

* the Kendall/Kemeny relaxation over pairwise orders in [0, 1] with one
  column per pair (Grötschel, Jünger & Reinelt, Operations Research 1984)
  and triangle constraints, minimizing the epigraph variable q of the
  weighted class costs (tied pairs inside a class contribute the constant
  weight*T_k/2).  Pair {a, b} keeps u[b][a] = 1 - u[a][b], a first in sigma
  (descending pooled weighted wins): HiGHS leaves nonbasic columns at their
  lower bound, sigma's side, which steers the vertex it ends on and so the
  rounding.  A strictly unanimous pair, one that every member of every
  class ranks a above b, gets no column: every optimal ranking agrees with
  it, so it is fixed at sigma's order (``build_kendall_lp`` holds the
  proof).  On Mallows input (C=3, m=10, phi=0.7) that leaves 5,085 of the
  44,851 columns at n=300 and 17,006 of 499,501 at n=1,000.  ``solve``
  adds a ranged row per triple whose triangle its optima violate as a cut,
  re-solving from the last basis.  Separation checks only the triples
  through pairs that u leaves unsettled, pairs not within 1e-9/4 of one
  transitive order, since no other triple can be violated;
* the footrule program over free positions u(1..n), written exactly as an
  LP in segment form with one row per class: each element's weighted
  absolute deviations from the member positions are convex and piecewise
  linear, so each gap between consecutive breakpoints of an element gets
  one bounded column that moves it away from its anchor, the midpoint of
  its pooled weighted median, at each class's slope on that gap.

``solve`` loads either program into one HiGHS model the same way, through
scipy's private binding (scipy >= 1.15), which ``_scipy_ext`` loads from
its extension file without running ``scipy.optimize``'s package init, and
raises ``SolverError`` with HiGHS's model-status text for any status other
than optimal.  It turns presolve off for both: the Kendall program's solves
are small and start warm after the first, the footrule program has only C
rows, and HiGHS then starts from every column at its lower bound, sigma's
order of every pair and the anchor of every position.  The Kendall model
also switches from HiGHS's default dual steepest-edge pricing (Forrest &
Goldfarb, Math. Programming 1992) to Devex (Harris, Math. Programming 1973)
at the first cut round that adds at most 1/40 of the rows it holds, and
keeps Devex: the few iterations of such a round do not earn back steepest
edge's start-up cost on every row held.  The Kendall class weights, which
``pairwise_weights`` reads at the pairs a caller asks for, and the tie
mass read the instance's pairwise-count view ``Instance.above_counts``;
members' pairwise orders are counted nowhere else, and no program keeps a
copy of the counts.  Both programs keep their C class rows as one dense
(C, columns) ``A_ub``, the array each builder fills, and ``solve`` loads
each row's nonzeros into HiGHS.  Fractional solutions keep u (the pair
orders, or the positions read back through ``LinearProgram.positions``,
one signed element id per column) and the solve counts.  Both read their
optimum the same way: each ``A_ub`` row plus q less its bound is q less
the row's slack, a class row's is its class's cost, and the largest is
the worst class cost at the solution.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from ._scipy_ext import highspy
from .rankings import BLOCK_ELEMENTS, Instance


class SolverError(RuntimeError):
    """HiGHS rejected a program or ended with a status other than optimal."""


@dataclass(frozen=True, eq=False)
class LinearProgram:
    """A minimization LP plus what reads its solution back.

    The arrays keep the argument form of scipy's LP front end (``A_ub``,
    ``b_ub``, ``bounds``) only so that tests can hand a program to it as an
    independent reference; ``solve`` loads them into its own HiGHS model.

    Column 0 is the epigraph variable q, the one column with a cost, which
    ``solve`` sets.  A pairwise program, one that carries sigma, keeps
    u[b][a] of pair {a, b} at column ``pair_col[a, b] == pair_col[b, a]``,
    where ``rank``, each element's place in sigma, puts a first; it holds
    no class weights, which ``pairwise_weights`` reads at the pairs a
    reader needs.  A strictly unanimous pair has no column: ``pair_col``
    maps it to 0, and it reads as u[b][a] = 0, sigma's order.  Its rows are
    the C class rows, whose ``-b_ub`` are the classes' tie shifts plus their
    costs at sigma, and ``solve`` adds triangles.  A positional program
    reads the positions back as u(h) = the sum of sign(p_j) x_j over the
    columns j with |p_j| = h + 1, p = ``positions``; its rows are the C
    class rows.
    """

    A_ub: np.ndarray  # (rows, columns), dense
    b_ub: np.ndarray
    bounds: np.ndarray  # (columns, 2), +-inf where unbounded
    rank: np.ndarray | None = None  # place in sigma; a program with sigma is pairwise
    pair_col: np.ndarray | None = None  # (n, n): the column of each pair, 0 if fixed
    positions: np.ndarray | None = None  # (columns,) ints: +-(h + 1) moves element h, 0 none


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

#: a pooled footrule slope within this share of the total weight counts as flat
_FLAT_SLOPE = 1e-12

#: the cut loop switches to Devex pricing at the first round that adds at most
#: 1/_DEVEX_SHARE of the rows the model holds; a looser share also switches
#: mid-size rounds, which then take more iterations
_DEVEX_SHARE = 40


def _triangle_rows(triples: np.ndarray, col: np.ndarray,
                   later: np.ndarray) -> tuple[np.ndarray, ...]:
    """Rows 1 <= u[x][y] + u[y][z] + u[z][x] <= 2 of triples (x * n + y) * n + z.

    Both cycles of x < y < z sum to 3, so the row holds both.  u[s][t] is v,
    the column ``col[s, t]`` of {s, t}, where ``later[s, t]`` and 1 - v
    elsewhere; a fixed pair, mapped to column 0, has v = 0.  The constant of
    each term written 1 - v, and a fixed pair's whole term, go into the
    row's bounds.  Returns (lower, upper, indptr, indices, data) as
    ``addRows`` takes them.
    """
    n = len(col)
    xy, z = np.divmod(triples, n)
    x, y = np.divmod(xy, n)
    s, t = np.stack([x, y, z], axis=1), np.stack([y, z, x], axis=1)
    cols = col[s, t]
    sign = np.where(later[s, t], 1.0, -1.0)
    j = (sign < 0).sum(axis=1)  # terms written 1 - v
    kept = cols != 0
    indptr = np.zeros(len(j) + 1, dtype=np.intp)
    np.cumsum(kept.sum(axis=1), out=indptr[1:])
    return 1.0 - j, 2.0 - j, indptr, cols[kept], sign[kept]


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


@lru_cache(maxsize=256)
def _quotients(m: int, num: int, den: int) -> np.ndarray:
    """The read-only table c * (num / den) / m for c = 0..m.  Python's int
    true division rounds each exact quotient correctly, like float(Fraction),
    whatever the operand sizes; the key is ints, which hash faster than a
    Fraction."""
    table = np.array([c * num / (den * m) for c in range(m + 1)])
    table.flags.writeable = False
    return table


def pairwise_weights(inst: Instance, cells: np.ndarray) -> np.ndarray:
    """w[k][x][y] = count * weight / m at the flat cells x * n + y, (C, *cells.shape).

    Each class looks its counts up in its cached table of the m + 1 possible
    quotients.
    """
    return np.stack([
        _quotients(cls.m, cls.weight.numerator, cls.weight.denominator)[counts.take(cells)]
        for cls, counts in zip(inst.classes, inst.above_counts)
    ])


def sigma_rank(inst: Instance) -> np.ndarray:
    """Each element's place in sigma: descending pooled weighted wins
    sum_k sum_y (w[k][x][y] - w[k][y][x]), ties by id; summed from integer
    net wins, so that equal ones stay equal."""
    net = inst.above_counts.sum(axis=2) - inst.above_counts.sum(axis=1)
    wins = sum(k_net * (cls.weight.numerator / (cls.weight.denominator * cls.m))
               for k_net, cls in zip(net, inst.classes))
    return np.argsort(np.argsort(-wins, kind="stable"))


def build_kendall_lp(inst: Instance) -> LinearProgram:
    """The pairwise-order relaxation of minmax Kendall/Kemeny aggregation.

    It holds the class rows only; ``solve`` adds the triangles.  Pair {a, b},
    a first in sigma, has the column v = u[b][a], except when it is strictly
    unanimous: every member of every class ranks a strictly above b
    (``above_counts[k][a][b] == m_k`` for all k).  Such a pair is fixed at
    v = 0 and has no column, and ``pair_col`` maps it to column 0.  Its
    class-row terms are 0, since w[k][b][a] = 0, so ``b_ub`` is unchanged.
    Every member gives a at least 2 more net wins than b (the pair itself,
    and a beats every z that b beats and loses to no z that b does not lose
    to), so sigma puts a first.  The counts are read in sigma's orientation,
    so a rounding of the float wins could at worst leave such a pair its
    column.

    Fixing the pair is sound: every optimal ranking puts a above b (the
    Pareto property of Kemeny's rule, Young & Levenglick, SIAM J. Appl.
    Math. 1978, also the base of the data reduction for exact Kemeny
    aggregation of Betzler, Bredereck & Niedermeier, JAAMAS 2014).  Let a
    ranking pi put b above a, and swap a and b in it.  For each member g,
    where a is above b, only {a, b} and the pairs {a, z} and {b, z} of each
    z between them in pi change.  {a, b} goes from disagree (1) to agree
    (0).  For each z, the two pairs cost 1 before and 1 after if z is above
    a in g or below b; 3/2 before and 1/2 after if z is tied with a or b
    (a tied pair costs 1/2 however pi orders it); 2 before and 0 after if z
    is between them.  So every member's distance falls by at least 1, and so
    does every class cost, under the median and the minimum set distance
    alike, and the worst class cost falls.  The program with the pair fixed
    is therefore still a relaxation: its optimum lies between the full
    program's optimum and the true optimum.  Pivot rounding's factor 2 holds for
    its u unchanged, since ``solve`` checks every triangle of the full u, so
    u is a feasible point of the full program at the same cost.
    """
    n, num_classes = inst.n, inst.num_classes
    ties = tie_mass(inst)
    shifts = np.array(
        [float(cls.weight * t / 2) for t, cls in zip(ties, inst.classes)]
    )
    rank = sigma_rank(inst)
    # fixed[a, b]: a first in sigma and every member ranks a strictly above b
    m = np.array([cls.m for cls in inst.classes])[:, None, None]
    fixed = (inst.above_counts == m).all(axis=0) & (rank[:, None] < rank)
    lo, hi = np.nonzero(np.triu(~(fixed | fixed.T), 1))  # free pairs, combinations order
    swap = rank[lo] > rank[hi]
    fa, fb = np.where(swap, hi, lo), np.where(swap, lo, hi)
    w_ab, w_ba = pairwise_weights(inst, np.stack([fa * n + fb, fb * n + fa])).swapaxes(0, 1)

    # class cost epigraph, column v = u[b][a] of each pair that is not fixed:
    # sum_pairs (w[a][b] - w[b][a]) v - q <= -shift_k - sum_pairs w[b][a] over
    # the free pairs (a fixed pair's w[b][a] is 0), added pair by pair per class
    ncols = 1 + len(fa)
    pair_col = np.zeros((n, n), dtype=np.intp)
    pair_col[fa, fb] = pair_col[fb, fa] = np.arange(1, ncols)
    A_ub = np.empty((num_classes, ncols))
    A_ub[:, 0] = -1.0
    np.subtract(w_ab, w_ba, out=A_ub[:, 1:])

    bounds = np.zeros((ncols, 2))
    bounds[0, 1] = np.inf
    bounds[1:, 1] = 1.0
    return LinearProgram(A_ub, -shifts - np.ascontiguousarray(w_ba.T).sum(axis=0), bounds,
                         rank=rank, pair_col=pair_col)


def build_footrule_program(inst: Instance) -> LinearProgram:
    """Minmax weighted L1 distance to the member positions, as an exact LP.

    Class k costs sum_h f_kh(u(h)), f_kh(v) = (lambda_k / m_k) sum_g |v - p_gh|
    over its members g, convex and piecewise linear in v.  The program
    writes it in segment form (Fourer, Math. Programming 1985), with one row
    per class and no row per piece.  Element h has an anchor a_h, the
    midpoint of the interval that minimizes its pooled cost sum_k f_kh, and
    its breakpoints are a_h and its distinct member positions over all
    classes.  Each gap between consecutive breakpoints gets a column,
    bounded by the gap's length, that moves u(h) away from a_h:

        u(h) = a_h + (h's gap columns right of a_h) - (those left of it),

    with a_h in a fixed base column 1 + h.  ``positions`` names, per column,
    the element it moves and the sign: +(h + 1) for h's base column and its
    gap columns right of a_h, -(h + 1) for those left of it, 0 for q.
    Class row k is sum_j s_kj x_j - q <= -cost_k(a), s_kj being class k's
    slope on gap j in the direction away from a_h.  u(h) stays within h's
    member positions, since every class cost falls as u(h) moves towards
    them.

    It is exact.  f_kh is convex, so its slopes away from a_h grow outwards
    on either side.  Filling h's gaps outwards on one side only puts
    f_kh(u(h)) itself in row k.  Any other filling that reaches the same
    u(h) takes a flatter gap's length at a steeper slope, or goes out on one
    side and back on the other, and by convexity costs every class at least
    as much.  So each row is at least its class's cost at the u read back,
    and equal to it for some filling of each u: the program's optimum is the
    free-position optimum, and the u read back attains it.  HiGHS starts
    from every gap column at its lower bound, u = a, which steers the vertex
    it ends on.
    """
    n, num_classes = inst.n, inst.num_classes
    m = np.array([cls.m for cls in inst.classes])
    lam = np.array([float(cls.weight) / cls.m for cls in inst.classes])
    starts = np.asarray(inst.class_starts)
    quad = 2 * inst.member_tw  # positions times 4, so anchors are integers too
    idx = np.arange(n)

    # a_h: the pooled cost's slope right of a member position is the weight
    # at or left of it less the weight right of it; the minimizers run from
    # the first position where it is not negative to the first where it is
    # positive, slopes within _FLAT_SLOPE of the total weight counting as 0
    weight = np.repeat(lam, m)
    order = np.argsort(quad, axis=0)
    ascending = np.take_along_axis(quad, order, axis=0)
    slope = 2 * np.cumsum(weight[order], axis=0) - weight.sum()
    flat = _FLAT_SLOPE * weight.sum()
    anchor = (ascending[(slope >= -flat).argmax(axis=0), idx]
              + ascending[(slope > flat).argmax(axis=0), idx]) // 2

    # breakpoints as ascending keys h * span + 4 * position; a gap joins two
    # consecutive distinct keys of one element
    span = 4 * n + 4
    keys = np.sort(np.concatenate([(ascending + idx * span).ravel(), idx * span + anchor]))
    h, left = np.divmod(keys[:-1], span)
    length = np.diff(keys)
    gap = np.flatnonzero((length > 0) & (h == keys[1:] // span))
    h, left, length = h[gap], left[gap], length[gap] / 4
    away = np.where(left >= anchor[h], 1.0, -1.0)

    # members of class k at or left of each gap, counted in the sorted keys
    # (k * n + h) * span + 4 * position, of which the starts[k] * n + h * m_k
    # before class k's element h are left out
    member_keys = (np.repeat(np.arange(num_classes), m)[:, None] * n + idx) * span + quad
    at_left = np.searchsorted(np.sort(member_keys, axis=None),
                              (np.arange(num_classes)[:, None] * n + h) * span + left,
                              side="right") - (starts[:, None] * n + h * m[:, None])
    ncols = 1 + n + len(h)
    A_ub = np.zeros((num_classes, ncols))
    A_ub[:, 0] = -1.0
    np.multiply(away * lam[:, None], 2 * at_left - m[:, None], out=A_ub[:, 1 + n:])
    cost_at_anchor = np.add.reduceat(np.abs(quad - anchor).sum(axis=1), starts) * lam / 4

    positions = np.r_[0, idx + 1, np.where(away > 0, h + 1, -(h + 1))]
    bounds = np.zeros((ncols, 2))
    bounds[0, 1] = np.inf
    bounds[1:1 + n] = anchor[:, None] / 4
    bounds[1 + n:, 1] = length
    return LinearProgram(A_ub, -cost_at_anchor, bounds, positions=positions)


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

    The model holds the columns with their bounds, q alone at unit cost, and
    the nonzeros of the dense ``A_ub`` rows as (-inf, b_ub].  A pairwise
    program (``rank`` is set) reads u through ``pair_col``, its fixed pairs
    at sigma's order, then appends a ranged row for each triple one of whose
    triangles that full u violates and is solved again, warm from its last
    basis, until no triangle is violated; a positional program separates
    nothing.  The rows
    come from a finite set, so this ends, and the returned optimum is the
    optimum of the program with every triangle.  Either model is solved
    without presolve: it only slowed the first, cold Kendall solve and a
    footrule solve of C rows, and without it HiGHS starts from every column
    at its lower bound, sigma's order of every pair or each position's anchor.

    The pairwise model switches to Devex pricing, once, before the first
    round whose new rows are at most 1/``_DEVEX_SHARE`` of the rows it
    holds.  Such tail rounds take a few dozen iterations, and under the
    default steepest-edge pricing each warm run that iterates pays a
    start-up cost per row held: on the gene sample's model with every
    pair's column, the last two rounds
    (16 and 7 rows added to models of 1,419 and 1,435 rows, 13-20
    iterations) took 11-13 ms each under it and about 3 ms under Devex,
    on a shared 2-core machine.  Earlier rounds add many rows and keep steepest edge, which
    takes fewer iterations there.
    """
    pairwise = lp.rank is not None
    highs = highspy._Highs()
    highs.setOptionValue("output_flag", False)
    _loaded(highs, highs.setOptionValue("presolve", "off"))
    if pairwise:
        later = lp.rank[:, None] > lp.rank  # u[s][t] is v, the column of {s, t}
    lower, upper = lp.bounds.T  # np.inf is kHighsInf
    cost = np.zeros(len(lp.bounds))
    cost[0] = 1.0
    _loaded(highs, highs.addCols(len(cost), cost, lower, upper, 0, [], [], []))
    nonzero = lp.A_ub != 0  # HiGHS takes each row's nonzeros, by ascending column
    indptr = np.zeros(len(lp.A_ub) + 1, dtype=np.intp)
    np.cumsum(nonzero.sum(axis=1), out=indptr[1:])
    _add_rows(highs, np.full(len(lp.b_ub), -highspy.kHighsInf), lp.b_ub,
              indptr, np.nonzero(nonzero)[1], lp.A_ub[nonzero])
    present = np.empty(0, dtype=np.int64)  # ascending ids of the triples added
    runs = iterations = 0
    devex = False
    while True:
        highs.run()
        status = highs.getModelStatus()
        if status != highspy.HighsModelStatus.kOptimal:
            raise SolverError(highs.modelStatusToString(status))
        runs += 1
        iterations += highs.getInfo().simplex_iteration_count
        x = np.array(highs.getSolution().col_value)
        if pairwise:
            v = x.copy()
            v[0] = 0.0  # a fixed pair, mapped to q's column, reads v = 0
            v = v[lp.pair_col]
            u = np.where(later, v, 1.0 - v)
            np.fill_diagonal(u, 0.0)
            new = _violated_triangles(u, present)
        else:
            # a positional program separates nothing; bincount adds element
            # h's terms from 0.0 in column order, its base and then its gaps
            u, new = np.bincount(np.abs(lp.positions), np.sign(lp.positions) * x)[1:], []
        if not len(new):
            break
        if not devex and len(new) * _DEVEX_SHARE <= highs.getNumRow():
            _loaded(highs, highs.setOptionValue("simplex_dual_edge_weight_strategy", 1))
            devex = True
        _add_rows(highs, *_triangle_rows(new, lp.pair_col, later))
        present = np.sort(np.concatenate([present, new]))
    # a row plus q less its bound is q less its slack; a class row holds -q,
    # so there it is the class's cost.  Each row is summed left to right, so
    # the optimum does not hang on the summation order of a BLAS product
    costs = np.cumsum(lp.A_ub * x, axis=1)[:, -1] + x[0] - lp.b_ub
    return FractionalSolution(float(costs.max()), u, runs, highs.getNumRow(), iterations)
