"""Linear/convex program construction and solving for the minmax relaxations.

Two programs are built here:

* the Kendall/Kemeny relaxation over pairwise order variables u[x][y] in
  [0,1] with pairing equalities u[x][y] + u[y][x] = 1 and triangle
  constraints, minimizing the epigraph variable q of the weighted class
  costs (tied pairs inside a class contribute the constant weight*T_k/2).
  It starts from the triangles of triples the classes dispute; ``solve``
  appends every other triangle its optimum violates and solves again, so
  the optimum it returns satisfies all of them;
* the footrule program over free positions u(1..n), reformulated exactly
  as an LP by splitting the absolute deviations into nonnegative slacks.

The Kendall program's class weights, the tie mass, ``pairwise_weights``
and ``kendall_class_costs`` all read the instance's pairwise-count view
``Instance.above_counts``; members' pairwise orders are counted nowhere
else.  Both programs are assembled directly as the sparse arrays scipy's
HiGHS backend takes.  Fractional solutions keep the raw variable values;
the reported objective is recomputed from the variables so it always
equals the worst class cost implied by them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csr_matrix, vstack

from .distances import BLOCK_ELEMENTS
from .rankings import Instance, twice_positions


class SolverError(RuntimeError):
    pass


class Infeasible(SolverError):
    pass


class Unbounded(SolverError):
    pass


class IterationLimit(SolverError):
    pass


@dataclass(frozen=True, eq=False)
class LinearProgram:
    """A minimization LP in ``linprog`` form plus what reads its solution back.

    Column 0 is the epigraph variable q.  A pairwise program (``kind`` is
    "pairwise") keeps u[x][y] at column ``1 + x(n-1) + y - [y > x]``, the
    float class weights ``wf`` (C, n, n) and tie shifts (C,), and the ids
    of its triangle rows (see ``_triangle_ids``) in row order after the C
    class rows.  A positional program keeps the positions u(h) at columns
    1..n and, per class, the member positions (m, n) and lambda/m.
    """

    c: np.ndarray
    A_ub: csr_matrix | None
    b_ub: np.ndarray | None
    A_eq: csr_matrix | None
    b_eq: np.ndarray | None
    bounds: np.ndarray  # (columns, 2), +-inf where unbounded
    kind: str  # "pairwise" or "positional"
    n: int
    wf: np.ndarray | None = None
    shifts: np.ndarray | None = None
    triangles: np.ndarray | None = None
    class_pos: tuple[np.ndarray, ...] = ()
    lam_over_m: tuple[float, ...] = ()


@dataclass(frozen=True)
class PairwiseWeights:
    """Per-class weighted pairwise preference counts.

    ``w[k][x][y]`` (0-based indices, elements x+1 and y+1) is the class
    weight over class size times the number of members ranking x+1 strictly
    above y+1, as an exact Fraction.  Ties contribute to neither direction.
    """

    w: tuple[tuple[tuple[Fraction, ...], ...], ...]


@dataclass(frozen=True)
class TieMass:
    """Per-class average number of tied pairs; zero for permutation classes."""

    t: tuple[Fraction, ...]


@dataclass(frozen=True)
class FractionalSolution:
    kind: str  # "pairwise" or "positional"
    objective: float
    u_pair: np.ndarray | None = None  # (n, n) in [0, 1], diagonal 0
    u_pos: np.ndarray | None = None  # (n,) real positions


def pairwise_weights(inst: Instance) -> PairwiseWeights:
    """Weighted fraction of each class ranking x strictly above y."""
    out = []
    for cls, counts in zip(inst.classes, inst.above_counts.tolist()):
        unit = cls.weight / cls.m
        out.append(tuple(tuple(unit * c for c in row) for row in counts))
    return PairwiseWeights(tuple(out))


def tie_mass(inst: Instance) -> TieMass:
    """Average tied-pair count per class (the constant part of its cost).

    A member orders each of the C(n, 2) pairs one way or ties it, so a
    class's tied pairs are m C(n, 2) less its ordered ones.
    """
    pairs = inst.n * (inst.n - 1) // 2
    ordered = inst.above_counts.sum(axis=(1, 2)).tolist()
    return TieMass(tuple(
        Fraction(cls.m * pairs - o, cls.m) for o, cls in zip(ordered, inst.classes)
    ))


def kendall_class_costs(inst: Instance, perm) -> list[Fraction]:
    """Exact per-class cost of the Kendall program at an integral solution.

    For a permutation pi this equals weight * median Kemeny distance to the
    class (weight * median Kendall tau when the class has no ties).
    """
    ties = tie_mass(inst)
    tw = twice_positions([perm])[0]
    # below[x][y]: pi ranks y + 1 above x + 1, i.e. u[y][x] = 1
    below = tw[None, :] < tw[:, None]
    sums = (inst.above_counts * below).sum(axis=(1, 2)).tolist()
    return [
        cls.weight * ties.t[k] / 2 + cls.weight * s / cls.m
        for k, (cls, s) in enumerate(zip(inst.classes, sums))
    ]


def _sparse(rows, cols, data, shape) -> csr_matrix | None:
    """CSR matrix from COO parts, or None when it has no rows."""
    if shape[0] == 0:
        return None
    return csr_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=shape,
    )


#: a triangle row counts as violated when its sum is below 1 by more than this
_VIOLATION = 1e-9


def _pair_columns(n: int) -> np.ndarray:
    """(n, n) array: the column of u[x][y] (the diagonal is unused)."""
    x = np.arange(n)[:, None]
    y = np.arange(n)[None, :]
    return 1 + x * (n - 1) + y - (y > x)


def _triple_blocks(n: int):
    """Blocks of x, each with the mask of its triples x < y < z.

    Yields a slice ``xs`` of x values and a (len(xs), n, n) bool mask over
    (x, y, z).  A block takes as many x as keep it within BLOCK_ELEMENTS
    values (at least one), so no array of all C(n, 3) triples is built.
    """
    step = max(1, BLOCK_ELEMENTS // (n * n))
    idx = np.arange(n)
    upper = idx[:, None] < idx  # y < z
    for x0 in range(0, n - 2, step):
        xs = slice(x0, min(x0 + step, n - 2))
        yield xs, upper & (idx[xs, None, None] < idx[:, None])


def _triangle_ids(n: int, xs: slice, keep: np.ndarray) -> np.ndarray:
    """Ids of the triangles a (len(xs), n, n, 2) mask ``keep`` marks.

    The last axis is the orientation o.  Orientation o of triple (x, y, z)
    has id 2 * ((x * n + y) * n + z) + o: the flat index into ``keep``
    plus 2 n^2 xs.start.  So ids ascend in (triple, orientation) order.
    """
    return np.flatnonzero(keep) + 2 * n * n * xs.start


def _triangle_rows(ids: np.ndarray, col: np.ndarray, row0: int):
    """COO rows, columns and values of the triangle rows ``ids`` from row0.

    ``col`` is ``_pair_columns(n)``.  Orientation 0 of (x, y, z) is
    -(u[x][y] + u[y][z] + u[z][x]) <= -1 and orientation 1 the reverse
    cycle -(u[y][x] + u[z][y] + u[x][z]) <= -1.
    """
    n = len(col)
    t, o = np.divmod(ids, 2)
    xy, z = np.divmod(t, n)
    x, y = np.divmod(xy, n)
    cycle = np.stack([x, y, z, x], axis=1)
    a, b = cycle[:, :3], cycle[:, 1:]
    cols = np.where(o[:, None] == 0, col[a, b], col[b, a])
    return (row0 + np.repeat(np.arange(len(ids)), 3), cols.ravel(),
            np.full(cols.size, -1.0))


def _seed_triangles(wf: np.ndarray) -> np.ndarray:
    """Both triangles of every triple with at least two disputed pairs.

    A pair is undisputed when every class strictly prefers the same one of
    its two orders.  When every pair is disputed this is every triangle.
    """
    n = wf.shape[1]
    unanimous = (wf > wf.transpose(0, 2, 1)).all(axis=0)
    disputed = (~(unanimous | unanimous.T)).astype(np.int8)
    ids = [np.empty(0, dtype=np.int64)]
    for xs, triples in _triple_blocks(n):
        # disputed pairs among (x, y), (y, z) and (x, z)
        count = disputed[xs][:, :, None] + disputed + disputed[xs][:, None, :]
        seed = triples & (count >= 2)
        ids.append(_triangle_ids(n, xs, np.stack([seed, seed], axis=-1)))
    return np.concatenate(ids)


def _violated_triangles(u: np.ndarray, present: np.ndarray) -> np.ndarray:
    """Ids of the triangles u violates that are not among ``present``.

    The ids are unique, and so are those of ``present``, since a program
    never holds a row twice.
    """
    n = len(u)
    ut = u.T
    below = 1.0 - _VIOLATION
    ids = [np.empty(0, dtype=np.int64)]
    for xs, triples in _triple_blocks(n):
        fwd = u[xs][:, :, None] + u + ut[xs][:, None, :]  # u[x][y] + u[y][z] + u[z][x]
        rev = ut[xs][:, :, None] + ut + u[xs][:, None, :]  # u[y][x] + u[z][y] + u[x][z]
        low = np.stack([triples & (fwd < below), triples & (rev < below)], axis=-1)
        ids.append(_triangle_ids(n, xs, low))
    ids = np.concatenate(ids)
    return np.setdiff1d(ids, present, assume_unique=True)


def build_kendall_lp(inst: Instance) -> LinearProgram:
    """The pairwise-order relaxation of minmax Kendall/Kemeny aggregation.

    Only the seed triangles (``_seed_triangles``) are rows; ``solve`` adds
    the violated rest.
    """
    n, num_classes = inst.n, inst.num_classes
    ncols = 1 + n * (n - 1)
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
        [float(cls.weight * ties.t[k] / 2) for k, cls in enumerate(inst.classes)]
    )
    col = _pair_columns(n)
    off = ~np.eye(n, dtype=bool)

    # class cost epigraph: sum_{x!=y} w^k[x][y] u[y][x] - q <= -shift_k
    coef = wf.transpose(0, 2, 1)[:, off]  # coefficient of u[a][b] is w[b][a]
    k_idx, j_idx = np.nonzero(coef)
    triangles = _seed_triangles(wf)
    tri_rows, tri_cols, tri_data = _triangle_rows(triangles, col, num_classes)
    rows = [np.arange(num_classes), k_idx, tri_rows]
    cols = [np.zeros(num_classes, dtype=np.intp), col[off][j_idx], tri_cols]
    data = [np.full(num_classes, -1.0), coef[k_idx, j_idx], tri_data]
    n_ub = num_classes + len(triangles)
    b_ub = np.concatenate([-shifts, np.full(len(triangles), -1.0)])

    # pairing: u[x][y] + u[y][x] = 1
    lo, hi = np.triu_indices(n, 1)  # pairs in combinations order
    A_eq = _sparse(
        [np.repeat(np.arange(len(lo)), 2)],
        [np.stack([col[lo, hi], col[hi, lo]], axis=1).ravel()],
        [np.ones(2 * len(lo))],
        (len(lo), ncols),
    )

    c_vec = np.zeros(ncols)
    c_vec[0] = 1.0
    bounds = np.zeros((ncols, 2))
    bounds[0, 1] = np.inf
    bounds[1:, 1] = 1.0
    return LinearProgram(
        c_vec,
        _sparse(rows, cols, data, (n_ub, ncols)),
        b_ub,
        A_eq,
        np.ones(len(lo)) if len(lo) else None,
        bounds,
        "pairwise",
        n,
        wf=wf,
        shifts=shifts,
        triangles=triangles,
    )


def build_footrule_program(inst: Instance) -> LinearProgram:
    """Minmax weighted L1 distance to the member positions, split into an LP."""
    n = inst.n
    rows, cols, data, b_ub = [], [], [], []
    class_pos, lam_over_m = [], []
    row0, col0 = 0, 1 + n
    for cls, tw in zip(inst.classes, np.split(inst.member_tw, inst.class_starts[1:])):
        lam = float(cls.weight) / cls.m
        pos = tw / 2
        lam_over_m.append(lam)
        class_pos.append(pos)
        size = pos.size
        # slack e_{g,h} per member g and element h, in (g, h) order:
        # e >= u(h) - target and e >= target - u(h)
        u_cols = 1 + np.tile(np.arange(n), cls.m)
        e_cols = col0 + np.arange(size)
        rows.append(row0 + np.repeat(np.arange(2 * size), 2))
        cols.append(np.tile(np.stack([u_cols, e_cols], axis=1), 2).ravel())
        data.append(np.tile([1.0, -1.0, -1.0, -1.0], size))
        target = pos.ravel()
        b_ub.append(np.stack([target, -target], axis=1).ravel())
        # class cost: lambda/m * sum e - q <= 0
        rows.append(np.full(size + 1, row0 + 2 * size))
        cols.append(np.concatenate([[0], e_cols]))
        data.append(np.concatenate([[-1.0], np.full(size, lam)]))
        b_ub.append([0.0])
        row0 += 2 * size + 1
        col0 += size

    c_vec = np.zeros(col0)
    c_vec[0] = 1.0
    bounds = np.zeros((col0, 2))
    bounds[:, 1] = np.inf
    bounds[1:1 + n, 0] = -np.inf
    return LinearProgram(
        c_vec,
        _sparse(rows, cols, data, (row0, col0)),
        np.concatenate(b_ub),
        None,
        None,
        bounds,
        "positional",
        n,
        class_pos=tuple(class_pos),
        lam_over_m=tuple(lam_over_m),
    )


def _pairwise_objective(u: np.ndarray, wf: np.ndarray, shifts: np.ndarray) -> float:
    costs = shifts + (wf * u.T[None, :, :]).sum(axis=(1, 2))
    return float(costs.max())


def _positional_objective(u: np.ndarray, lp: LinearProgram) -> float:
    costs = [
        lam * np.abs(u[None, :] - pos).sum()
        for lam, pos in zip(lp.lam_over_m, lp.class_pos)
    ]
    return float(max(costs))


def _highs(lp: LinearProgram, A_ub, b_ub) -> np.ndarray:
    """HiGHS's optimum of ``lp`` with the given inequality rows."""
    res = linprog(
        lp.c,
        A_ub=A_ub,
        b_ub=b_ub,
        A_eq=lp.A_eq,
        b_eq=lp.b_eq,
        bounds=lp.bounds,
        method="highs",
    )
    # status 2 is also HiGHS's "Model error", a program it rejects outright;
    # only its infeasibility verdict carries this message
    if res.status == 2 and res.message.startswith("The problem is infeasible"):
        raise Infeasible(res.message)
    if res.status == 3:
        raise Unbounded(res.message)
    if res.status == 1:
        raise IterationLimit(res.message)
    if res.status != 0:
        raise SolverError(res.message)
    return res.x


def solve(lp: LinearProgram) -> FractionalSolution:
    """Solve with HiGHS and read the structured solution back out.

    A pairwise program is solved again with every triangle row its optimum
    violates appended, until it violates none that the program lacks.  The
    rows come from a finite set, so this ends, and the returned optimum is
    the optimum of the program with every triangle.
    """
    if lp.kind == "pairwise":
        n = lp.n
        A_ub, b_ub, present = lp.A_ub, lp.b_ub, lp.triangles
        while True:
            x = _highs(lp, A_ub, b_ub)
            u = np.zeros((n, n))
            u[~np.eye(n, dtype=bool)] = x[1:]
            new = _violated_triangles(u, present)
            if not len(new):
                break
            rows, cols, data = _triangle_rows(new, _pair_columns(n), 0)
            extra = _sparse([rows], [cols], [data], (len(new), len(lp.c)))
            A_ub = vstack([A_ub, extra], format="csr")
            b_ub = np.concatenate([b_ub, np.full(len(new), -1.0)])
            present = np.concatenate([present, new])
        objective = _pairwise_objective(u, lp.wf, lp.shifts)
        return FractionalSolution("pairwise", objective, u_pair=u)
    if lp.kind == "positional":
        u = _highs(lp, lp.A_ub, lp.b_ub)[1:1 + lp.n]
        objective = _positional_objective(u, lp)
        return FractionalSolution("positional", objective, u_pos=u)
    raise SolverError(f"unknown program kind {lp.kind!r}")
