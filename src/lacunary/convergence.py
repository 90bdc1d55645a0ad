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
for every m = 0..m_max in one pass per sequence, from one transform and
one cumulative sum, for a group of spaces that differ only in family, rho,
exponents and alpha.  It is built once per group and then called once per
sequence; it owns its buffers (y = A(x) - L, its cumulative sum, and the
terms and flag workspaces) and reuses them for every call, so after the
first call it allocates nothing of prefix size but the transform's output,
and it serves one caller at a time.  Its m-loop runs over tiles of `_TILE`
indices, computing each tile's deviations and raw flags once and then the
terms and modular flags of each space.  Numerical contract: window sums
come from a sequential cumulative sum (`np.cumsum`), block sums are a
pairwise `np.sum` over each block's slice, and exception counts are exact
integers.  Every per-m trajectory is therefore bitwise equal to the slow
per-statistic reference in `tests/reference.py` (`strong_block_statistic`,
`lacunary_density` of `shat_flags`), whatever the tile size or the other
spaces of the engine, and results are deterministic.  NaN is never a
result: a NaN block sum raises `NonFiniteStatistic`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .errors import NonFiniteStatistic
from .orlicz import ExponentSequence, MusielakOrliczFamily, RhoSequence
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


@dataclass(frozen=True, eq=False)
class BlockTrajectory:
    """One value per schedule block; `m` records the window if per-m."""

    values: np.ndarray
    kind: str
    m: int | None = None

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=np.float64)
        if np.any(arr < 0):
            raise ValueError("block statistics are nonnegative by construction")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return int(self.values.size)


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

    A finite tail whose sum overflows float64 has its mean taken on the
    tail divided by its largest |value|, then scaled back, so the mean is
    finite.  A tail past float64 has tail mean +inf, an honest "too
    large", and classifies as DoesNotConverge; its slope is None when the
    least-squares fit is undefined (the tail holds +inf, or the fit
    overflows).
    """

    decision: str
    tail_mean: float
    tail_window: int
    tol: float
    tail_slope: float | None
    slope_slack: float


def classify_trajectory(
    values: np.ndarray,
    tol: float = 1e-3,
    tail_window: int | None = None,
    slope_slack: float | None = None,
) -> Verdict:
    """Classify a per-block trajectory from its tail mean and slope."""
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
    slope: float | None = 0.0
    with np.errstate(over="ignore", invalid="ignore"):  # sums past float64 are +inf
        finite = bool(np.all(np.isfinite(tail)))
        tail_mean = float(np.mean(tail))
        if finite and not math.isfinite(tail_mean):  # only the sum overflowed
            s = float(np.max(np.abs(tail)))
            tail_mean = s * float(np.mean(tail / s))
        if win >= 2:
            r_idx = np.arange(win, dtype=np.float64)
            fit = float(np.polyfit(r_idx, tail, 1)[0]) if finite else math.nan
            slope = None if math.isnan(fit) else fit

    if tail_mean <= tol and slope is not None and slope <= slack:
        decision = CONVERGES
    elif tail_mean >= 10.0 * tol and (slope is None or slope >= -(slack + 0.05 * tail_mean)):
        decision = DIVERGES
    else:
        decision = INCONCLUSIVE
    return Verdict(decision, tail_mean, win, tol, slope, slack)


# ---------------------------------------------------------------------------
# per-block reductions
# ---------------------------------------------------------------------------


def _block_counts(flags: np.ndarray, sched: LacunarySchedule) -> np.ndarray:
    """|{k in I_r : flags_k}| for r = 1..R, exact, as float64."""
    cuts = sched.cut_points
    counts = [np.count_nonzero(flags[a:b]) for a, b in zip(cuts, cuts[1:])]
    return np.array(counts, dtype=np.float64)


def _block_sums(values: np.ndarray, sched: LacunarySchedule) -> np.ndarray:
    """sum_{k in I_r} values_k for r = 1..R, each block a pairwise np.sum."""
    cuts = sched.cut_points
    return np.array([np.sum(values[a:b]) for a, b in zip(cuts, cuts[1:])])


def _block_average(values: np.ndarray, sched: LacunarySchedule, alpha: float) -> np.ndarray:
    """(1 / h_r**alpha) * sum_{k in I_r} values_k, each block a pairwise np.sum."""
    return _block_sums(values, sched) / sched.block_lengths.astype(np.float64) ** alpha


# ---------------------------------------------------------------------------
# sup over m and verdicts
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class UniformTrajectories:
    """Per-m trajectories plus their per-block sup (the uniform-in-m surrogate)."""

    per_m: tuple[BlockTrajectory, ...]
    sup: BlockTrajectory
    statistic: str
    flag_mode: str | None


def _uniform(
    per_m: list[np.ndarray], statistic: str, flag_mode: str | None
) -> UniformTrajectories:
    sup = BlockTrajectory(np.max(np.stack(per_m), axis=0), kind=f"{statistic}_sup")
    return UniformTrajectories(
        per_m=tuple(BlockTrajectory(v, kind=statistic, m=m) for m, v in enumerate(per_m)),
        sup=sup,
        statistic=statistic,
        flag_mode=flag_mode,
    )


class _TermGroup:
    """Spaces of an engine sharing (family, rho, exponents), hence terms and modular flags."""

    def __init__(self, p: SpaceParams, terms: np.ndarray, bounds: list[tuple[int, int]]) -> None:
        k_end = p.schedule.last_index
        if p.rho.constant is None:
            self.rho = p.rho.array(1, k_end)
        elif p.rho.constant != 1.0:
            self.rho = np.broadcast_to(p.rho.constant, (k_end,))
        else:
            self.rho = None  # x / 1.0 == x for every float64
        self.exps = None if p.exponents.is_identically_one else p.exponents.array(1, k_end)
        self.kernels = [p.family.bind(np.arange(a + 1, b + 1)) for a, b in bounds]
        self.terms = terms
        self.flags = np.empty(k_end, dtype=bool)

    def tile(self, t: int, a: int, b: int, dev: np.ndarray, epsilon: float) -> None:
        """Terms and modular flags of tile t = [a, b) from its deviations `dev`.

        `dev` may be the terms' own storage: it is read before it is written.
        """
        u = dev if self.rho is None else np.divide(dev, self.rho[a:b], out=self.terms[a:b])
        if self.exps is None:
            self.terms[a:b] = self.kernels[t](u)
        else:  # not in place: numpy's pow loop may change with in-place aliasing
            np.power(self.kernels[t](u), self.exps[a:b], out=self.terms[a:b])
        np.greater_equal(self.terms[a:b], epsilon, out=self.flags[a:b])


class BlockEngine:
    """Every block statistic for m = 0..m_max, of one sequence at a time, for a group of spaces.

    The spaces must agree on (schedule, m_max, matrix, matrix_tol, L,
    epsilon); they may differ in family, rho, exponents and alpha.  Calling
    the engine on x returns one dict per space, in order, holding the strong
    bundle under STRONG and the exception-density bundles under their flag
    modes, MODULAR_FLAGS and RAW_FLAGS.

    One call computes y = A(x) - L for the largest lookahead and one
    cumulative sum of y_1..y_{k_R + m_max}; its prefixes are the per-m
    cumulative sums of the reference's `_window_deviations`
    (`tests/reference.py`), bit for bit.  The indices are
    split into tiles of `_TILE`.  For each m, every tile computes its
    deviations and raw flags once; then each group of spaces sharing
    (family, rho, exponents) gets its terms and modular flags.  Block sums
    and exact exception counts come from the unchanged block reductions
    over whole workspaces, once per group (the raw counts once per call),
    and are divided by h_r**alpha per space, so tiles need not line up with
    blocks and each per-m trajectory is bitwise identical to that reference.

    Memory: the engine owns its buffers and reuses them for every call.
    Its first call, once the transform has succeeded, binds each family to
    each tile and allocates y and its cumulative sum, the raw-flag
    workspace and, per group, a modular-flag workspace and a terms
    workspace; the first group's terms are y's own storage (a tile reads y
    at m = 0 before it writes its terms, and its deviations are computed in
    place there).  Every later call allocates nothing of prefix size beyond
    the transform's output (for Identity a view of x) and tile-sized
    temporaries, so it touches no fresh prefix-sized pages.  Results never
    alias the buffers.  Because the buffers are shared, an engine serves
    one caller at a time.

    Overflow is an honest +inf.  A NaN strong block sum (a window sum
    inf - inf, for one) raises NonFiniteStatistic naming the first (m, block).
    """

    def __init__(self, spaces: Iterable[SpaceParams]) -> None:
        self.spaces = tuple(spaces)
        if not self.spaces:
            raise ValueError("an engine needs at least one space")
        p = self.spaces[0]
        shared = (p.schedule, p.m_max, p.matrix, p.matrix_tol, p.L, p.epsilon)
        if any((q.schedule, q.m_max, q.matrix, q.matrix_tol, q.L, q.epsilon) != shared
               for q in self.spaces[1:]):
            raise ValueError(
                "the spaces of one engine must agree on schedule, m_max, matrix, "
                "matrix_tol, L and epsilon"
            )
        leaders: dict[tuple, SpaceParams] = {}  # the first space of each group sharing terms
        for q in self.spaces:
            leaders.setdefault((q.family, q.rho, q.exponents), q)
        keys = list(leaders)
        self._leaders = list(leaders.values())
        self._group_of = [keys.index((q.family, q.rho, q.exponents)) for q in self.spaces]
        lengths = p.schedule.block_lengths.astype(np.float64)
        self._h_alpha = {q.alpha: lengths**q.alpha for q in self.spaces}
        self._groups: list[_TermGroup] = []  # made by the first call

    def _allocate(self) -> None:
        """Bind the families to the tiles and make the buffers, once for the engine.

        The first call does this after its transform has succeeded, so a
        prefix shorter than the schedule fails as it would without the
        engine, before anything of the schedule's size is allocated.
        """
        p = self.spaces[0]
        k_end = p.schedule.last_index
        self._y = np.empty(k_end + p.m_max)
        self._raw_flags = np.empty(k_end, dtype=bool)
        self._bounds = [(a, min(a + _TILE, k_end)) for a in range(0, k_end, _TILE)]
        self._groups = [
            _TermGroup(q, self._y[:k_end] if g == 0 else np.empty(k_end), self._bounds)
            for g, q in enumerate(self._leaders)
        ]
        self._c = np.empty(k_end + p.m_max + 1) if p.m_max else None
        if p.m_max:
            self._c[0] = 0.0

    def __call__(self, x: Sequence) -> list[dict[str, UniformTrajectories]]:
        p = self.spaces[0]
        sched = p.schedule
        k_end = sched.last_index
        z = transform_sequence(p.matrix, x, k_end + p.m_max, p.matrix_tol)
        if not self._groups:
            self._allocate()
        y, c, raw_flags = self._y, self._c, self._raw_flags
        first, *rest = self._groups
        raw_counts: list[np.ndarray] = []
        sums: list[list[np.ndarray]] = [[] for _ in self._groups]
        counts: list[list[np.ndarray]] = [[] for _ in self._groups]
        with np.errstate(over="ignore", invalid="ignore"):
            np.subtract(z.values, p.L, out=y)
            if p.m_max:
                np.cumsum(y[: k_end + p.m_max], out=c[1:])
            for m in range(p.m_max + 1):
                for t, (a, b) in enumerate(self._bounds):
                    dev = y[a:b]  # the deviations, then the first group's terms, of this tile
                    if m == 0:
                        np.abs(dev, out=dev)
                    else:
                        np.subtract(c[a + m + 1 : b + m + 1], c[a:b], out=dev)
                        dev /= m + 1
                        np.abs(dev, out=dev)
                    np.greater_equal(dev, p.epsilon, out=raw_flags[a:b])
                    for group in rest:
                        group.tile(t, a, b, dev, p.epsilon)
                    first.tile(t, a, b, dev, p.epsilon)
                raw_counts.append(_block_counts(raw_flags, sched))
                for g, group in enumerate(self._groups):
                    block_sums = _block_sums(group.terms, sched)
                    nan_blocks = np.flatnonzero(np.isnan(block_sums))
                    if nan_blocks.size:
                        raise NonFiniteStatistic(
                            f"the strong statistic is NaN at m={m}, block r={nan_blocks[0] + 1}: "
                            "a window sum or a family term is not a number (for instance a "
                            "window sum inf - inf after the prefix sum overflowed)"
                        )
                    sums[g].append(block_sums)
                    counts[g].append(_block_counts(group.flags, sched))
        raw = {
            alpha: _uniform([n / h for n in raw_counts], SHAT_DENSITY, RAW_FLAGS)
            for alpha, h in self._h_alpha.items()
        }
        results = []
        for q, g in zip(self.spaces, self._group_of):
            h = self._h_alpha[q.alpha]
            results.append({
                STRONG: _uniform([s / h for s in sums[g]], STRONG, None),
                MODULAR_FLAGS: _uniform([n / h for n in counts[g]], SHAT_DENSITY, MODULAR_FLAGS),
                RAW_FLAGS: raw[q.alpha],
            })
        return results
