"""The slow per-statistic reference for `BlockEngine`.

Each function computes one statistic of one space at one window m the
direct way: transform the prefix, shift by L, take the window means from a
fresh cumulative sum, evaluate the family terms and reduce per block.  The
engine's results must equal these bit for bit.
"""

import numpy as np

from lacunary import BlockTrajectory, LacunarySchedule, Sequence, SpaceParams, transform_sequence
from lacunary.convergence import (
    MODULAR_FLAGS,
    RAW_FLAGS,
    SHAT_DENSITY,
    STRONG,
    _block_average,
    _block_counts,
)
from lacunary.errors import FlagsShorterThanSchedule


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


def _window_deviations(x: Sequence, p: SpaceParams, m: int) -> np.ndarray:
    """|t_{km}(A(x) - L)| for k = 1..k_R: transform, shift by L, window-mean."""
    if m < 0:
        raise ValueError("m must be >= 0")
    k_end = p.schedule.last_index
    y = transform_sequence(p.matrix, x, k_end + m, p.matrix_tol).values - p.L
    if m == 0:
        return np.abs(y[:k_end])
    c = np.concatenate(([0.0], np.cumsum(y[: k_end + m])))
    return np.abs((c[m + 1 :] - c[:k_end]) / (m + 1))


def _terms_from(devs: np.ndarray, p: SpaceParams) -> np.ndarray:
    """(M_k(devs_k / rho_k))**s_k for k = 1..k_R; a term past float64 is +inf."""
    k_end = p.schedule.last_index
    us = devs / p.rho.array(1, k_end)
    ks = np.arange(1, k_end + 1)
    terms = p.family.bind(ks)(us)
    if not p.exponents.is_identically_one:
        with np.errstate(over="ignore"):
            terms = terms ** p.exponents.array(1, k_end)
    return terms


def strong_block_statistic(x: Sequence, p: SpaceParams, m: int = 0) -> BlockTrajectory:
    """The summed block statistic at window m."""
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
