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

`block_statistics` computes the strong statistic and both exception
densities for every m = 0..m_max in one pass, from one transform and one
cumulative sum.  Numerical contract: window sums come from a sequential
cumulative sum (`np.cumsum`), block sums are a pairwise `np.sum` over each
block's slice, and exception counts are exact integers.  Every per-m
trajectory is therefore bitwise equal to its standalone counterpart
(`strong_block_statistic`, `lacunary_density` of `shat_flags`), and results
are deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import FlagsShorterThanSchedule, HorizonTooShort
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

    def with_alpha(self, alpha: float) -> "SpaceParams":
        return replace(self, alpha=alpha)


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
    """

    decision: str
    tail_mean: float
    tail_window: int
    tol: float
    tail_slope: float
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
    tail_mean = float(np.mean(tail))
    if win >= 2:
        r_idx = np.arange(win, dtype=np.float64)
        slope = float(np.polyfit(r_idx, tail, 1)[0])
    else:
        slope = 0.0

    if tail_mean <= tol and slope <= slack:
        decision = CONVERGES
    elif tail_mean >= 10.0 * tol and slope >= -(slack + 0.05 * tail_mean):
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


def _block_average(values: np.ndarray, sched: LacunarySchedule, alpha: float) -> np.ndarray:
    """(1 / h_r**alpha) * sum_{k in I_r} values_k, each block a pairwise np.sum."""
    cuts = sched.cut_points
    sums = np.array([np.sum(values[a:b]) for a, b in zip(cuts, cuts[1:])])
    return sums / sched.block_lengths.astype(np.float64) ** alpha


# ---------------------------------------------------------------------------
# densities
# ---------------------------------------------------------------------------


def density_order_alpha(flags: np.typing.ArrayLike, alpha: float) -> np.ndarray:
    """d(n) = |{k <= n : flag_k}| / n**alpha for n = 1..len(flags)."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    f = np.asarray(flags, dtype=np.float64)
    n = np.arange(1, f.size + 1, dtype=np.float64)
    return np.cumsum(f) / n**alpha


def lacunary_density(
    flags: np.typing.ArrayLike, schedule: LacunarySchedule, alpha: float
) -> BlockTrajectory:
    """v_r = |{k in I_r : flag_k}| / h_r**alpha."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    f = np.asarray(flags, dtype=bool)
    if f.size < schedule.last_index:
        raise FlagsShorterThanSchedule(
            f"flags cover {f.size} indices, schedule ends at {schedule.last_index}"
        )
    h_alpha = schedule.block_lengths.astype(np.float64) ** alpha
    return BlockTrajectory(_block_counts(f, schedule) / h_alpha, kind=SHAT_DENSITY)


# ---------------------------------------------------------------------------
# block averages
# ---------------------------------------------------------------------------


def ntheta_statistic(x: Sequence, schedule: LacunarySchedule, L: float = 0.0) -> BlockTrajectory:
    """Plain block averages v_r = (1/h_r) * sum_{k in I_r} |x_k - L|."""
    if x.horizon < schedule.last_index:
        raise HorizonTooShort(
            f"prefix length {x.horizon} < schedule end {schedule.last_index}"
        )
    dev = np.abs(x.values[: schedule.last_index] - L)
    return BlockTrajectory(_block_average(dev, schedule, 1.0), kind="ntheta")


def ntheta_norm(x: Sequence, schedule: LacunarySchedule) -> float:
    """sup_r (1/h_r) * sum_{k in I_r} |x_k|, the block-average norm."""
    return float(np.max(ntheta_statistic(x, schedule, L=0.0).values))


def _transformed_shifted(x: Sequence, p: SpaceParams, lookahead: int) -> np.ndarray:
    """(A(x))_n - L for n = 1..k_R + lookahead."""
    z = transform_sequence(p.matrix, x, p.schedule.last_index + lookahead, p.matrix_tol)
    return z.values - p.L


def _window_deviations(x: Sequence, p: SpaceParams, m: int) -> np.ndarray:
    """|t_{km}(A(x) - L)| for k = 1..k_R: transform, shift by L, window-mean."""
    if m < 0:
        raise ValueError("m must be >= 0")
    k_end = p.schedule.last_index
    y = _transformed_shifted(x, p, m)
    if m == 0:
        return np.abs(y[:k_end])
    c = np.concatenate(([0.0], np.cumsum(y[: k_end + m])))
    return np.abs((c[m + 1 :] - c[:k_end]) / (m + 1))


def _terms_from(devs: np.ndarray, p: SpaceParams) -> np.ndarray:
    """(M_k(devs_k / rho_k))**s_k for k = 1..k_R."""
    k_end = p.schedule.last_index
    us = devs / p.rho.array(1, k_end)
    ks = np.arange(1, k_end + 1)
    terms = p.family.bind(ks)(us)
    if not p.exponents.is_identically_one:
        terms = terms ** p.exponents.array(1, k_end)
    return terms


def strong_block_statistic(x: Sequence, p: SpaceParams, m: int = 0) -> BlockTrajectory:
    """The summed block statistic at window m (see module docstring)."""
    terms = _terms_from(_window_deviations(x, p, m), p)
    return BlockTrajectory(_block_average(terms, p.schedule, p.alpha), kind=STRONG, m=m)


def shat_flags(
    x: Sequence, p: SpaceParams, m: int = 0, mode: str = MODULAR_FLAGS
) -> np.ndarray:
    """Exception flags over k = 1..k_R at window m.

    mode "modular": flag_k = term_k >= epsilon (per-term membership reading);
    mode "raw":     flag_k = |t_{km}(A(x) - L)| >= epsilon.
    """
    if mode == MODULAR_FLAGS:
        return _terms_from(_window_deviations(x, p, m), p) >= p.epsilon
    if mode == RAW_FLAGS:
        return _window_deviations(x, p, m) >= p.epsilon
    raise ValueError(f"unknown flag mode {mode!r}")


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


def block_statistics(x: Sequence, p: SpaceParams) -> dict[str, UniformTrajectories]:
    """Every block statistic of x for m = 0..m_max, in one pass.

    Returns the strong bundle under STRONG and the exception-density
    bundles under their flag modes, MODULAR_FLAGS and RAW_FLAGS.

    y = A(x) - L is computed once for the largest lookahead, with one
    cumulative sum of y_1..y_{k_R + m_max}; its prefixes are the per-m
    cumulative sums of `_window_deviations`, bit for bit.  For each m one
    deviation array and one family evaluation give the strong block sums
    and the exact exception counts in both flag modes, so each per-m
    trajectory is bitwise identical to its standalone counterpart.

    Peak memory is a few arrays of k_R floats: the deviations are computed
    in place, the family is bound to the indices once, and the rho and
    exponent arrays are built once.
    """
    sched = p.schedule
    k_end = sched.last_index
    y = _transformed_shifted(x, p, p.m_max)
    devs = np.abs(y[:k_end])
    c = np.concatenate(([0.0], np.cumsum(y[: k_end + p.m_max]))) if p.m_max else None
    del y

    h_alpha = sched.block_lengths.astype(np.float64) ** p.alpha
    ks = np.arange(1, k_end + 1)
    kernel = p.family.bind(ks)
    rho = p.rho.constant if p.rho.constant is not None else p.rho.array(1, k_end)
    exps = None if p.exponents.is_identically_one else p.exponents.array(1, k_end)
    strong: list[np.ndarray] = []
    modular: list[np.ndarray] = []
    raw: list[np.ndarray] = []
    for m in range(p.m_max + 1):
        if m > 0:
            np.subtract(c[m + 1 : m + 1 + k_end], c[:k_end], out=devs)
            devs /= m + 1
            np.abs(devs, out=devs)
        raw.append(_block_counts(devs >= p.epsilon, sched) / h_alpha)
        devs /= rho
        terms = kernel(devs)
        if exps is not None:
            terms **= exps
        modular.append(_block_counts(terms >= p.epsilon, sched) / h_alpha)
        strong.append(_block_average(terms, sched, p.alpha))
    return {
        STRONG: _uniform(strong, STRONG, None),
        MODULAR_FLAGS: _uniform(modular, SHAT_DENSITY, MODULAR_FLAGS),
        RAW_FLAGS: _uniform(raw, SHAT_DENSITY, RAW_FLAGS),
    }


def uniform_trajectories(
    x: Sequence, p: SpaceParams, statistic: str, flag_mode: str = MODULAR_FLAGS
) -> UniformTrajectories:
    """The chosen statistic for every m in 0..m_max with its block sups."""
    if statistic not in (STRONG, SHAT_DENSITY):
        raise ValueError(f"unknown statistic {statistic!r}")
    if statistic == SHAT_DENSITY and flag_mode not in (MODULAR_FLAGS, RAW_FLAGS):
        raise ValueError(f"unknown flag mode {flag_mode!r}")
    return block_statistics(x, p)[STRONG if statistic == STRONG else flag_mode]


def uniform_verdict(
    x: Sequence,
    p: SpaceParams,
    statistic: str = STRONG,
    tol: float = 1e-3,
    tail_window: int | None = None,
    flag_mode: str = MODULAR_FLAGS,
    slope_slack: float | None = None,
) -> Verdict:
    """Classify the sup-over-m trajectory of the chosen statistic."""
    bundle = uniform_trajectories(x, p, statistic, flag_mode)
    return classify_trajectory(bundle.sup.values, tol, tail_window, slope_slack)
