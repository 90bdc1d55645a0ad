"""Finite-horizon evaluators for the block convergence notions.

Every "limit as r -> infinity" becomes a per-block trajectory v_1..v_R plus
a classification rule over its tail.  The central statistic is

    v_r(m) = (1 / h_r**alpha) * sum_{k in I_r}
             ( M_k( |t_{km}(A(x) - L)| / rho_k ) )**s_k

where t_{km} is the window mean of length m+1 starting at k of the
A-transformed, L-shifted sequence.  "Uniformly in m" is realized as the
per-block sup over m = 0..m_max.

Membership flags come in two modes.  `modular` applies the threshold to the
per-index term above (the per-term reading of the defining statistic);
`raw` applies it to |t_{km}(A(x) - L)| itself, the set the first inclusion
bound counts.  Reports must name the mode in use.

`BlockEngine` computes the strong statistic and both exception densities
for every m = 0..m_max in one pass per sequence, from one transform, for a
group of spaces that differ only in family, rho, exponents and alpha, and
of each space only the bundles (STRONG, MODULAR_FLAGS, RAW_FLAGS) its
caller reads.  It streams: each tile of whole blocks, or of nodes of a long
block's pairwise-sum tree, reads its slice of A(x), takes y = A(x) - L, its
cumulative sum and every window while it is in cache, so the engine holds no
array of the prefix's length, and for Identity reads x only tile by tile.
Numerical contract: window sums come from a sequential cumulative sum
(`np.cumsum`), block sums are the pairwise `np.add.reduce` of each block,
and exception counts are exact integers.  Every per-m trajectory is
therefore bitwise equal to the slow per-statistic reference in
`tests/reference.py` (`strong_block_statistic`, `lacunary_density` of
`shat_flags`), whatever the tile size, the other spaces of the engine or
the bundles they read.  NaN is never a result: a NaN strong block sum
raises `NonFiniteStatistic`.  No statistic is negative: every buildable
family member is >= 0 on u >= 0 (see `OrliczFunction`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .errors import NonFiniteStatistic
from .orlicz import (
    ConstantFamily,
    ExponentSequence,
    LinearSlope,
    MusielakOrliczFamily,
    RhoSequence,
    power_in_place,
)
from .sequences import (
    Identity,
    LacunarySchedule,
    MatrixOperator,
    Sequence,
    transform_sequence,
)

STRONG = "strong"
SHAT_DENSITY = "shat_density"

MODULAR_FLAGS = "modular"
RAW_FLAGS = "raw"
BUNDLES = (STRONG, MODULAR_FLAGS, RAW_FLAGS)  # what a `BlockEngine` can compute, in result order

_TILE = 2**15  # indices per tile of the block-statistics m-loop


@dataclass(frozen=True)
class SpaceParams:
    """Everything that pins down one sequence space instance.

    alpha is the density order, epsilon the exception threshold, L the
    candidate limit, m_max the window range realizing "uniformly in m",
    and the remaining fields the family/matrix/schedule data.
    """

    family: MusielakOrliczFamily
    schedule: LacunarySchedule
    alpha: float = 1.0
    epsilon: float = 1e-3
    L: float = 0.0
    m_max: int = 32
    rho: RhoSequence = field(default_factory=RhoSequence)
    exponents: ExponentSequence = field(default_factory=ExponentSequence)
    matrix: MatrixOperator = field(default_factory=Identity)
    matrix_tol: float = 1e-12

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be > 0")
        if self.m_max < 0:
            raise ValueError("m_max must be >= 0")
        per_index = self.rho.per_index
        if per_index is not None and len(per_index) < self.schedule.last_index:
            raise ValueError(
                f"rho defined up to index {len(per_index)}, "
                f"the schedule needs {self.schedule.last_index}"
            )


CONVERGES = "ConvergesToZero"
DIVERGES = "DoesNotConverge"
INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class Verdict:
    """Finite-horizon convergence decision for one trajectory.

    Plumbing, not mathematics: ConvergesToZero needs the tail mean at or
    below `tol` with a nonincreasing least-squares tail slope (slope at
    most `slope_slack`).  DoesNotConverge needs tail mean >= 10 * tol
    with a slope that is nonnegative up to slack, where the slack also
    admits downward drift of up to 5% of the tail mean per block (a level
    trajectory relaxing toward a positive limit is not converging to
    zero).  Anything else is Inconclusive.

    The slope is the least-squares slope of the tail t_0..t_{w-1} against
    r, in closed form on the centred index d_r = r - (w - 1) / 2:

        tail_slope = sum_r d_r (t_r - mean) / sum_r d_r**2,

    0.0 for a one-block tail, and exactly 0.0 on a constant tail.  It is
    within 5 eps (D / S) (max t - min t + 3 eps max |t|) + 2**-1074 of the
    exact slope of the float tail, where eps = 2**-53, D = sum |d_r| and
    S = sum d_r**2 (the bound is derived in `tests/oracle.py`, which holds
    the slope to it).  A finite tail whose sum overflows float64 has its
    mean taken on the tail divided by its largest |value|, then scaled
    back, so the mean is finite.  A tail past float64 has tail mean +inf,
    an honest "too large", and classifies as DoesNotConverge; its slope
    is None when the fit is undefined (the tail holds a value that is not
    finite) or past float64.
    """

    decision: str
    tail_mean: float
    tail_window: int
    tol: float
    tail_slope: float | None
    slope_slack: float


def _tail_slope(tail: list[float]) -> float | None:
    """The least-squares slope of a finite tail t_0..t_{w-1} against r, w >= 2; None past float64.

    The closed form on the centred index d_r = r - (w - 1) / 2, whose sum
    is 0: sum_r d_r (t_r - mean) / S, with S = sum_r d_r**2 = w (w**2 - 1) / 12
    exact.  It is taken on u = t * 2**-e with 2**(e - 1) <= max |t_r| < 2**e,
    so |u_r| < 1, no intermediate overflows and the scaling is exact, and
    scaled back by 2**e.  The mean and the sum are `math.fsum`, correctly
    rounded.  On a constant tail every u_r - mean is one value and the
    products of the symmetric d_r cancel, so the slope is exactly 0.
    """
    w = len(tail)
    _, e = math.frexp(max(map(abs, tail)))
    u = [math.ldexp(t, -e) for t in tail]
    mean, centre = math.fsum(u) / w, (w - 1) / 2
    try:
        return math.ldexp(math.fsum((r - centre) * (t - mean) for r, t in enumerate(u))
                          / (w * (w * w - 1) / 12), e)
    except OverflowError:  # the slope is past float64
        return None


def classify_trajectory(
    values: np.ndarray,
    tol: float = 1e-3,
    tail_window: int | None = None,
    slope_slack: float | None = None,
) -> Verdict:
    """Classify a per-block trajectory from its tail mean and slope (see `Verdict`).

    The tail is the last `tail_window` blocks (default ceil(R / 3)).  Its
    mean is `np.mean`; its slope is `_tail_slope`, the closed form
    sum_r d_r (t_r - mean) / sum_r d_r**2 on the centred index, with no
    linear-algebra solve, within the bound `Verdict` states.
    """
    v = np.asarray(values, dtype=np.float64)
    if v.size == 0:
        raise ValueError("cannot classify an empty trajectory")
    if tol <= 0:
        raise ValueError("tol must be > 0")
    R = v.size
    win = math.ceil(R / 3) if tail_window is None else int(tail_window)
    win = max(1, min(win, R))
    slack = tol if slope_slack is None else float(slope_slack)

    tail = v[-win:]
    with np.errstate(over="ignore", invalid="ignore"):  # sums past float64 are +inf
        finite = bool(np.all(np.isfinite(tail)))
        tail_mean = float(np.mean(tail))
        if finite and not math.isfinite(tail_mean):  # only the sum overflowed
            s = float(np.max(np.abs(tail)))
            tail_mean = s * float(np.mean(tail / s))
    slope = 0.0 if win == 1 else _tail_slope(tail.tolist()) if finite else None

    if tail_mean <= tol and slope is not None and slope <= slack:
        decision = CONVERGES
    elif tail_mean >= 10.0 * tol and (slope is None or slope >= -(slack + 0.05 * tail_mean)):
        decision = DIVERGES
    else:
        decision = INCONCLUSIVE
    return Verdict(decision, tail_mean, win, tol, slope, slack)


# ---------------------------------------------------------------------------
# sup over m and verdicts
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class UniformTrajectories:
    """One bundle's per-m trajectories, read-only float64 of shape (m_max + 1, R), plus their
    read-only per-block sup, `per_m.max(axis=0)` (the uniform-in-m surrogate)."""

    per_m: np.ndarray
    sup: np.ndarray


def _uniform(per_m: np.ndarray) -> UniformTrajectories:
    """The trajectories of `per_m`, a fresh array it takes over."""
    sup = per_m.max(axis=0)
    per_m.flags.writeable = sup.flags.writeable = False
    return UniformTrajectories(per_m, sup)


_PAIRWISE_LEAF = 128  # numpy's PW_BLOCKSIZE: its pairwise sum never splits a run this short


class _TilePlan:
    """The tiles of a schedule's indices, each a run of leaves whose sums add up to the block sums.

    A leaf is a whole block, or, for a block longer than the node width
    max(tile, 128), one node of numpy's pairwise-sum tree over the block:
    numpy sums a run of n > 128 elements as the sum of its first
    n2 = n//2 - (n//2) % 8 and the sum of the rest, and a run of at most
    128 in one loop.  So `np.add.reduce` of each leaf, added up the tree in
    float64, is `np.add.reduce` of the whole block bit for bit (the test
    of the plan pins this to the installed numpy).  Consecutive leaves are
    packed into one tile of at most `tile` indices; a longer leaf is a
    tile of its own.
    """

    def __init__(self, cuts: tuple[int, ...], tile: int) -> None:
        width = max(tile, _PAIRWISE_LEAF)
        leaves: list[tuple[int, int]] = []

        def split(lo: int, hi: int):
            """The tree over [lo, hi): a leaf's number, or a pair (left, right) of trees."""
            n = hi - lo
            if n <= width:
                leaves.append((lo, hi))
                return len(leaves) - 1
            half = n // 2 - (n // 2) % 8
            return split(lo, lo + half), split(lo + half, hi)

        self.first_leaf = []  # per block, the number of its first leaf
        self.trees = []  # per block, its tree of leaves
        for a, b in zip(cuts, cuts[1:]):
            self.first_leaf.append(len(leaves))
            self.trees.append(split(a, b))
        self.leaves = len(leaves)
        # per tile: its index range [a, b), the numbers of its leaves and their slices in the tile
        self.tiles: list[tuple[int, int, slice, list[slice]]] = []
        first = 0
        for j in range(1, len(leaves) + 1):
            if j == len(leaves) or leaves[j][1] - leaves[first][0] > tile:
                a, b = leaves[first][0], leaves[j - 1][1]
                pieces = [slice(lo - a, hi - a) for lo, hi in leaves[first:j]]
                self.tiles.append((a, b, slice(first, j), pieces))
                first = j
        self.width = max(b - a for a, b, _, _ in self.tiles)

    def block_sums(self, leaf_sums: np.ndarray) -> np.ndarray:
        """The block sums, per row, from the leaf sums of shape (rows, leaves), up each tree."""

        def up(tree):
            return leaf_sums[:, tree] if isinstance(tree, int) else up(tree[0]) + up(tree[1])

        return np.stack([up(tree) for tree in self.trees], axis=1)

    def block_counts(self, leaf_counts: np.ndarray) -> np.ndarray:
        """The block counts, per row, from the exact leaf counts of shape (rows, leaves), as float64."""
        return np.add.reduceat(leaf_counts, self.first_leaf, axis=1).astype(np.float64)


_PLAIN = ConstantFamily(LinearSlope(1.0))  # M(u) = u, the family of the plain-average space


class _TermGroup:
    """Spaces of an engine sharing (family, rho, exponents), hence terms and modular flags.

    `strong` and `modular` say whether some space of the group reads STRONG
    or MODULAR_FLAGS.  A plain group (M(u) = u, rho 1, exponents 1) has no
    formula: its terms are the deviations, as 1.0 * u is u bit for bit.
    A constant family's formula reads no indices and is bound here, once;
    any other family's is bound to each tile in `gather`, which also reads
    a per-index rho and exponents.  `gathers` says whether `gather` has
    anything to do.
    """

    def __init__(self, p: SpaceParams, width: int, strong: bool, modular: bool) -> None:
        self.strong = strong
        self.plain = p.family == _PLAIN and p.rho.constant == 1.0 and p.exponents.is_identically_one
        self.family = p.family
        self.indexed = not self.plain and not isinstance(p.family, ConstantFamily)
        self.formula = None  # the constant family's formula, or the one of the tile `gather` last bound
        if not (self.plain or self.indexed):
            self.formula = p.family._bind(np.empty(0, dtype=np.int64))
        # rho_k and s_k, None where x / 1.0 == x and x**1 == x: a constant is set here once,
        # a per-index sequence (`_rho`, `_exps`) is read by `gather` for each tile
        self.rho = self.exps = self._rho = self._exps = None
        if not self.plain:
            rho, exps = p.rho, p.exponents
            if rho.constant is None:
                self._rho = rho
            elif rho.constant != 1.0:
                self.rho = rho.constant
            if exps.constant is None:
                self._exps = None if exps.is_identically_one else exps
            elif exps.constant != 1.0:
                # contiguous: as an exponent, a stride-0 broadcast would make numpy's power
                # take its scalar shortcuts (square for 2, sqrt for 0.5), which change the bits
                self.exps = np.full(width, exps.constant)
        self.gathers = self.indexed or self._rho is not None or self._exps is not None
        self.terms = None  # the deviations' storage, unless the engine gives a workspace
        self.flags = np.empty(width, dtype=bool) if modular else None

    def gather(self, a: int, b: int, ks: np.ndarray | None) -> None:
        """Bind the formula to the tile's indices ks = a+1..b if it reads them, and read the
        per-index rho_k and s_k."""
        if self.indexed:
            self.formula = self.family._bind(ks)
        if self._rho is not None:
            self.rho = self._rho.array(a + 1, b)
        if self._exps is not None:
            self.exps = self._exps.array(a + 1, b)

    def tile(self, dev: np.ndarray, epsilon: float) -> tuple[np.ndarray, np.ndarray | None]:
        """The terms, and the modular flags if read, of the bound tile from its deviations `dev`.

        A plain group's terms are `dev` itself.  Otherwise the formula runs in
        place on the tile's terms, which first hold the quotient dev / rho, or
        else `dev`: without a workspace the terms are dev's storage, with one
        they take one copy of it.
        """
        n = dev.size
        terms = dev if self.terms is None else self.terms[:n]
        if not self.plain:
            if self.rho is not None:
                np.divide(dev, self.rho, out=terms)
            elif terms is not dev:
                np.copyto(terms, dev)
            self.formula(terms)
            if self.exps is not None:
                power_in_place(terms, self.exps[:n])
        if self.flags is None:
            return terms, None
        flags = self.flags[:n]
        np.greater_equal(terms, epsilon, out=flags)
        return terms, flags


def _cache_aligned(n: int) -> np.ndarray:
    """An uninitialized float64 array of n items that starts on a 64-byte cache line.

    The m-loop's passes write the deviations and read them back; numpy's
    SIMD loops take about 15% longer per pass on an array that starts
    elsewhere, as a heap block may.
    """
    raw = np.empty(8 * n + 64, dtype=np.uint8)
    start = -raw.ctypes.data % 64
    return raw[start : start + 8 * n].view(np.float64)


class BlockEngine:
    """The block statistics for m = 0..m_max, of one sequence at a time, for a group of spaces.

    `reads` lists (space, bundles) pairs: a space and what its caller reads
    of it, any nonempty subset of BUNDLES, that is the strong bundle STRONG
    and the exception-density bundles of the flag modes MODULAR_FLAGS and
    RAW_FLAGS.  The spaces must agree on (schedule, m_max, matrix,
    matrix_tol, L, epsilon); they may differ in family, rho, exponents and
    alpha.  Calling the engine on x returns one dict per pair, in order,
    holding each bundle the pair reads under its name, and no other.

    One call transforms x once, to z = A(x) for the largest lookahead, and
    then streams over the tiles of a `_TilePlan` built from the schedule:
    whole blocks packed up to `_TILE` indices, and the blocks longer than
    that split into nodes of numpy's pairwise-sum tree.  Each tile reads z
    for its indices and the m_max after them with `z.read` into the
    cumulative-sum workspace, writes y = z - L there, takes |y| (the
    deviations at m = 0), and then the cumulative sum of y after the carry
    c_a = y_1 + ... + y_a of the tiles before it, in place, so its window
    sums are those of one sequential cumulative sum over the prefix, as in
    the reference's `_window_deviations` (`tests/reference.py`), bit for
    bit.  Then, while the tile is in cache, for each m it computes its
    deviations, dividing by m + 1, or multiplying by 2**-k when
    m + 1 = 2**k, which is the same correctly rounded quotient, and, if a
    space reads RAW_FLAGS, its raw flags once; each
    group of spaces sharing (family, rho, exponents) gets its terms if one
    of them reads STRONG or MODULAR_FLAGS, and its modular flags if one
    reads MODULAR_FLAGS; and each leaf of the tile is reduced, to an
    `np.add.reduce` sum per group read for STRONG and an exact count per
    flag array.  After the last tile the leaf sums are added up each
    block's tree, which gives `np.add.reduce` of the whole block, and the
    counts are summed per block; both are divided by h_r**alpha per space.
    So each per-m trajectory is bitwise identical to that reference,
    whatever the tile size and whatever the other pairs read.

    The terms are the family's in-place formula, bound by `family._bind`
    once when the engine is made for a constant family, whose formula reads
    no indices, and to each tile's indices when the call reaches the tile
    for any other family, and run on the
    terms workspace without `bind`'s argument check: the argument is
    u = |t_{km}| / rho_k, and rho_k > 0 is finite (`RhoSequence`), so
    u >= 0 or NaN, and the check passes NaN.  The formula runs inside the
    engine's own errstate, which ignores overflow as `bind` does.  The
    plain-average space, M(u) = u with rho 1 and exponents 1, reads the
    deviations in place: no formula, no copy.  Its group runs first, and
    the last group to run writes its terms over the deviations.

    Memory: the engine holds no array of the prefix's length, and for
    Identity it reads x one tile at a time: a drawn prefix
    (`random_bounded_sequence`) is drawn tile by tile into the workspace and
    never as a whole, so the call holds O(tile) memory at any k_R.  Its first
    call, once the transform has succeeded, builds the tile plan and makes
    the tile workspaces: the cumulative sum of y, of the widest tile plus
    m_max + 1, the deviations, the raw flags if a space reads RAW_FLAGS,
    the tile's indices k if a group's formula reads them (a family other
    than `constant`), a terms workspace for
    each group with a formula but the last to run, a modular-flag
    workspace for each group read for MODULAR_FLAGS, and the exponents of
    a constant exponent sequence other than 1, all a tile wide.  Each call
    then gathers, before a tile's m-loop and for each group with a
    formula, the tile's per-index data: the formula's (the exponents of
    `index_power`, the slopes of `spike`, the member positions of
    `custom`, the indices of `index_scaled`; none for a constant family),
    and a per-index rho_k and s_k, each a view of the sequence's array; a
    constant rho stays a scalar.  So the
    per-index data is a tile wide at any k_R, and a constant-family engine
    allocates none of it per call (bar the exponents of indices past a
    per-index list).  Each
    call fills (m_max + 1) x leaves sums and counts, and returns each
    bundle as one (m_max + 1) x R array and its sup, read-only, which never
    alias the workspaces.  It allocates nothing of prefix size beyond the
    transform's output (for Identity a prefix of x that nothing reads
    whole), and the formulas run in place, so the m-loop makes no
    temporaries, except a drawn tile's exception flags and positions, and
    the tile-sized ones the formulas of the `table` and `custom` kinds
    build.  Because the workspaces are shared, an engine serves one caller
    at a time.

    Overflow is an honest +inf.  A NaN block sum of a group read for STRONG
    (a window sum inf - inf, for one) raises NonFiniteStatistic naming the
    first (m, block); flags are exact counts, never NaN.
    """

    def __init__(self, reads: Iterable[tuple[SpaceParams, Iterable[str]]]) -> None:
        self.reads: list[tuple[SpaceParams, tuple[str, ...]]] = []
        groups: dict[tuple, tuple[SpaceParams, set[str]]] = {}  # per group: first space, reads
        for q, bundles in reads:
            asked = set(bundles)
            if not asked or not asked <= set(BUNDLES):
                raise ValueError(f"bundles must be a nonempty subset of {BUNDLES}, got {sorted(asked)}")
            self.reads.append((q, tuple(b for b in BUNDLES if b in asked)))
            if asked & {STRONG, MODULAR_FLAGS}:
                groups.setdefault((q.family, q.rho, q.exponents), (q, set()))[1].update(asked)
        if not self.reads:
            raise ValueError("an engine needs at least one space")
        p = self.reads[0][0]
        shared = (p.schedule, p.m_max, p.matrix, p.matrix_tol, p.L, p.epsilon)
        if any((q.schedule, q.m_max, q.matrix, q.matrix_tol, q.L, q.epsilon) != shared
               for q, _ in self.reads[1:]):
            raise ValueError(
                "the spaces of one engine must agree on schedule, m_max, matrix, "
                "matrix_tol, L and epsilon"
            )
        number = {key: g for g, key in enumerate(groups)}
        self._group_of = [number.get((q.family, q.rho, q.exponents)) for q, _ in self.reads]
        self._leaders = list(groups.values())
        self._raw = any(RAW_FLAGS in bundles for _, bundles in self.reads)
        lengths = p.schedule.block_lengths.astype(np.float64)
        self._h_alpha = {q.alpha: lengths**q.alpha for q, _ in self.reads}
        self._plan: _TilePlan | None = None  # the plan and the workspaces, made by the first call

    def _allocate(self) -> None:
        """Plan the tiles and make the workspaces, once for the engine.

        The first call does this after its transform has succeeded, so a
        prefix shorter than the schedule fails as it would without the
        engine.
        """
        p = self.reads[0][0]
        plan = _TilePlan(p.schedule.cut_points, _TILE)
        self._c = np.empty(plan.width + p.m_max + 1)  # c[1:] is y, then c its cumulative sum
        self._dev = _cache_aligned(plan.width)
        self._raw_flags = np.empty(plan.width, dtype=bool) if self._raw else None
        groups = [_TermGroup(q, plan.width, STRONG in read, MODULAR_FLAGS in read)
                  for q, read in self._leaders]
        # the plain groups read the deviations, so they run first; the last group overwrites them
        self._order = sorted(range(len(groups)), key=lambda g: not groups[g].plain)
        for g in self._order[:-1]:
            if not groups[g].plain:
                groups[g].terms = np.empty(plan.width)
        self._gathering = [group for group in groups if group.gathers]
        # the indices k = a+1..a+width of the tile at a, if a formula reads them; shifted in
        # place from tile to tile
        self._ks = np.arange(1, plan.width + 1) if any(g.indexed for g in groups) else None
        self._groups, self._plan = groups, plan

    def __call__(self, x: Sequence) -> list[dict[str, UniformTrajectories]]:
        p = self.reads[0][0]
        m_max, epsilon = p.m_max, p.epsilon
        z = transform_sequence(p.matrix, x, p.schedule.last_index + m_max, p.matrix_tol)
        if self._plan is None:
            self._allocate()
        plan, raw_flags, groups, order = self._plan, self._raw_flags, self._groups, self._order
        shape = (m_max + 1, plan.leaves)
        raw_counts = np.empty(shape, dtype=np.int64) if raw_flags is not None else None
        sums = [np.empty(shape) if group.strong else None for group in groups]
        counts = [None if group.flags is None else np.empty(shape, dtype=np.int64)
                  for group in groups]
        carry = 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            for a, b, leaves, pieces in plan.tiles:
                n = b - a
                c, dev = self._c[: n + m_max + 1], self._dev[:n]
                np.subtract(z.read(a, b + m_max, out=c[1:]), p.L, out=c[1:])
                np.abs(c[1 : n + 1], out=dev)
                if m_max:  # the cumulative sum of y after the carry, in place
                    if a:
                        c[0] = carry
                        np.cumsum(c, out=c)
                    else:  # c_1 = y_1, not 0.0 + y_1, which would turn -0.0 into +0.0
                        np.cumsum(c[1:], out=c[1:])
                        c[0] = 0.0
                    carry = c[n]
                ks = self._ks
                if ks is not None:
                    ks += a + 1 - ks[0]
                    ks = ks[:n]
                for group in self._gathering:
                    group.gather(a, b, ks)
                for m in range(m_max + 1):
                    if m:
                        np.subtract(c[m + 1 : n + m + 1], c[:n], out=dev)
                        if m & (m + 1):
                            dev /= m + 1
                        else:  # m + 1 = 2**k: times 2**-k is the same correctly rounded quotient
                            dev *= 1.0 / (m + 1)
                        np.abs(dev, out=dev)
                    if raw_flags is not None:
                        flags = raw_flags[:n]
                        np.greater_equal(dev, epsilon, out=flags)
                        raw_counts[m, leaves] = [np.count_nonzero(flags[s]) for s in pieces]
                    for g in order:
                        terms, flags = groups[g].tile(dev, epsilon)
                        if sums[g] is not None:
                            sums[g][m, leaves] = [np.add.reduce(terms[s]) for s in pieces]
                        if flags is not None:
                            counts[g][m, leaves] = [np.count_nonzero(flags[s]) for s in pieces]
            sums = [None if s is None else plan.block_sums(s) for s in sums]
        read = [s for s in sums if s is not None]
        if read:
            nan = np.argwhere(np.isnan(np.stack(read, axis=1)))  # rows (m, group, block), in order
            if nan.size:
                m, _, r = nan[0]
                raise NonFiniteStatistic(
                    f"the strong statistic is NaN at m={m}, block r={r + 1}: "
                    "a window sum or a family term is not a number (for instance a "
                    "window sum inf - inf after the prefix sum overflowed)"
                )
        raw = None if raw_counts is None else plan.block_counts(raw_counts)
        counts = [None if n is None else plan.block_counts(n) for n in counts]
        results = []
        for (q, bundles), g in zip(self.reads, self._group_of):
            h = self._h_alpha[q.alpha]
            per_block = {RAW_FLAGS: raw}
            if g is not None:
                per_block.update({STRONG: sums[g], MODULAR_FLAGS: counts[g]})
            results.append({bundle: _uniform(per_block[bundle] / h) for bundle in bundles})
        return results
