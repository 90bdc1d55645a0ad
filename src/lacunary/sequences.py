"""Finite-prefix sequences, block schedules, window means, and matrix transforms.

An infinite real sequence is represented by its prefix (x_1..x_N); every
limit statement downstream becomes a finite trajectory.  Indexing is 1-based
throughout, matching the block convention I_r = (k_{r-1}, k_r].

All operations here are pure functions of immutable inputs and are safe to
call concurrently.  Sums over a block or a window always run in ascending
index order, so results are bitwise reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import (
    EmptySchedule,
    IndexOutOfHorizon,
    NotStrictlyIncreasing,
    PrefixExceedsBound,
    SupportExceedsHorizon,
    TailBoundUnsatisfiable,
)


@dataclass(frozen=True, eq=False)
class Sequence:
    """A finite real prefix x_1..x_N standing in for an infinite sequence."""

    values: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("a sequence needs a one-dimensional, nonempty prefix")
        if not np.all(np.isfinite(arr)):
            raise ValueError("sequence values must be finite (no NaN/inf)")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @property
    def horizon(self) -> int:
        return int(self.values.size)

    def at(self, k: int) -> float:
        """x_k, 1-based."""
        if not 1 <= k <= self.horizon:
            raise IndexOutOfHorizon(f"index {k} outside prefix of length {self.horizon}")
        return float(self.values[k - 1])

    def window(self, n: int, m: int) -> np.ndarray:
        """The values x_n..x_{n+m} as an array view."""
        if n < 1 or m < 0 or n + m > self.horizon:
            raise IndexOutOfHorizon(
                f"window [{n}, {n + m}] outside prefix of length {self.horizon}"
            )
        return self.values[n - 1 : n + m]

    def scaled(self, c: float) -> "Sequence":
        return Sequence(self.values * c)

    def __len__(self) -> int:
        return self.horizon


def window_mean(x: Sequence, m: int, n: int) -> float:
    """Mean of the window x_n..x_{n+m}; window_mean(x, 0, n) = x_n.

    Raises IndexOutOfHorizon when n + m exceeds the prefix: the caller must
    supply a longer prefix, never a silently padded one.
    """
    if m < 0:
        raise ValueError("window length parameter m must be >= 0")
    w = x.window(n, m)
    return float(np.sum(w) / (m + 1))


@dataclass(frozen=True)
class LacunarySchedule:
    """Increasing cut points k_0=0 < k_1 < ... < k_R and the blocks they induce.

    Block r (1-based) is the integer range I_r = (k_{r-1}, k_r] with length
    h_r = k_r - k_{r-1} and ratio phi_r = k_r / k_{r-1} for r >= 2.  Strict
    increase is enforced; growth conditions (nondecreasing h_r, a floor on
    the last block) are soft checks reported in `warnings` because finite
    data cannot witness h_r -> infinity.
    """

    cut_points: tuple[int, ...]
    warnings: tuple[str, ...] = field(default=(), compare=False)

    def __post_init__(self) -> None:
        cuts = tuple(int(c) for c in self.cut_points)
        object.__setattr__(self, "cut_points", cuts)
        if len(cuts) < 2:
            raise EmptySchedule("need k_0 = 0 plus at least one further cut point")
        if cuts[0] != 0:
            raise NotStrictlyIncreasing(f"k_0 must be 0, got {cuts[0]}")
        for a, b in zip(cuts, cuts[1:]):
            if b <= a:
                raise NotStrictlyIncreasing(f"cut points must strictly increase: {a} !< {b}")

    @property
    def num_blocks(self) -> int:
        return len(self.cut_points) - 1

    @cached_property
    def block_lengths(self) -> np.ndarray:
        """h_r = k_r - k_{r-1}, one entry per block."""
        cuts = np.asarray(self.cut_points, dtype=np.int64)
        h = np.diff(cuts)
        h.flags.writeable = False
        return h

    @cached_property
    def ratios(self) -> tuple[float, ...]:
        """phi_r = k_r / k_{r-1} for r = 2..R."""
        c = self.cut_points
        return tuple(c[r] / c[r - 1] for r in range(2, len(c)))

    @property
    def last_index(self) -> int:
        return self.cut_points[-1]

    def block(self, r: int) -> range:
        """Indices of I_r = (k_{r-1}, k_r], 1-based."""
        if not 1 <= r <= self.num_blocks:
            raise IndexError(f"block {r} outside 1..{self.num_blocks}")
        return range(self.cut_points[r - 1] + 1, self.cut_points[r] + 1)

    def block_slice(self, r: int) -> slice:
        """0-based slice selecting block r from an array aligned with x_1..x_N."""
        if not 1 <= r <= self.num_blocks:
            raise IndexError(f"block {r} outside 1..{self.num_blocks}")
        return slice(self.cut_points[r - 1], self.cut_points[r])


@dataclass(frozen=True)
class Explicit:
    """Schedule rule: use these cut points verbatim."""

    cut_points: tuple[int, ...]


@dataclass(frozen=True)
class Geometric:
    """Schedule rule: k_r = ceil(base * ratio**r), de-duplicated upward."""

    base: float = 1.0
    ratio: float = 2.0
    count: int = 10

    def __post_init__(self) -> None:
        if self.base < 1:
            raise ValueError("geometric base must be >= 1")
        if self.ratio <= 1:
            raise ValueError("geometric ratio must be > 1")
        if self.count < 1:
            raise ValueError("geometric count must be >= 1")


def build_lacunary(rule: Explicit | Geometric, h_floor: int = 2) -> LacunarySchedule:
    """Validate a schedule rule into a LacunarySchedule.

    Growth is reported, not enforced: the returned schedule carries warnings
    when block lengths are not nondecreasing or the last block is shorter
    than `h_floor`.
    """
    if isinstance(rule, Explicit):
        cuts = tuple(int(c) for c in rule.cut_points)
    elif isinstance(rule, Geometric):
        cuts_list = [0]
        for r in range(1, rule.count + 1):
            k_r = max(cuts_list[-1] + 1, math.ceil(rule.base * rule.ratio**r))
            cuts_list.append(k_r)
        cuts = tuple(cuts_list)
    else:
        raise TypeError(f"unknown schedule rule {rule!r}")

    warnings: list[str] = []
    sched = LacunarySchedule(cuts)
    h = sched.block_lengths
    if np.any(h[1:] < h[:-1]):
        warnings.append("block lengths are not nondecreasing")
    if h[-1] < h_floor:
        warnings.append(f"last block length {int(h[-1])} below floor {h_floor}")
    if warnings:
        sched = LacunarySchedule(cuts, warnings=tuple(warnings))
    return sched


class MatrixOperator:
    """Row-wise infinite matrix A = (a_nk) applied to finite prefixes.

    Subclasses either have finite row support (exact evaluation) or carry a
    certified tail bound so truncation error stays below the caller's tol.
    """

    kind = "abstract"

    def row_value(self, x: Sequence, n: int, tol: float) -> float:
        raise NotImplementedError


@dataclass(frozen=True)
class Identity(MatrixOperator):
    kind = "identity"

    def row_value(self, x: Sequence, n: int, tol: float) -> float:
        if n > x.horizon:
            raise SupportExceedsHorizon(f"row {n} needs x_{n}, horizon is {x.horizon}")
        return float(x.values[n - 1])


@dataclass(frozen=True)
class CesaroC1(MatrixOperator):
    """First Cesaro means: a_nk = 1/n for k <= n."""

    kind = "cesaro_c1"

    def row_value(self, x: Sequence, n: int, tol: float) -> float:
        if n > x.horizon:
            raise SupportExceedsHorizon(f"row {n} needs x_1..x_{n}, horizon is {x.horizon}")
        return float(np.sum(x.values[:n]) / n)


@dataclass(frozen=True)
class Shift(MatrixOperator):
    """Single off-diagonal: a_{n,n+d} = 1; rows pointing before index 1 are zero."""

    d: int = 1
    kind = "shift"

    def row_value(self, x: Sequence, n: int, tol: float) -> float:
        k = n + self.d
        if k < 1:
            return 0.0
        if k > x.horizon:
            raise SupportExceedsHorizon(f"row {n} needs x_{k}, horizon is {x.horizon}")
        return float(x.values[k - 1])


@dataclass(frozen=True)
class RowTable(MatrixOperator):
    """Explicit finite-support rows: rows[n-1] lists (k, a_nk) pairs."""

    rows: tuple[tuple[tuple[int, float], ...], ...]
    kind = "row_table"

    def __post_init__(self) -> None:
        rows = tuple(tuple((int(k), float(a)) for k, a in row) for row in self.rows)
        for i, row in enumerate(rows):
            for k, a in row:
                if k < 1:
                    raise ValueError(f"row {i + 1}: column index {k} < 1")
                if not math.isfinite(a):
                    raise ValueError(f"row {i + 1}: coefficient at k={k} not finite")
        object.__setattr__(self, "rows", rows)

    def row_value(self, x: Sequence, n: int, tol: float) -> float:
        if n > len(self.rows):
            raise SupportExceedsHorizon(f"row {n} not defined (table has {len(self.rows)} rows)")
        total = 0.0
        for k, a in sorted(self.rows[n - 1]):
            if k > x.horizon:
                raise SupportExceedsHorizon(
                    f"row {n} has support at k={k}, horizon is {x.horizon}"
                )
            total += a * x.values[k - 1]
        return total


@dataclass(frozen=True, eq=False)
class RowGenerator(MatrixOperator):
    """Infinite rows given by a rule plus a certified truncation bound.

    `tail_bound(n, j)` must dominate sum_{k>j} |a_nk| * x_bound, where
    `x_bound` is the declared bound on |x_k| for every sequence this
    operator is applied to.  Rows are truncated at the horizon and the
    bound certifies the dropped mass; no silent truncation.
    """

    name: str
    coeff: Callable[[int, int], float]
    tail_bound: Callable[[int, int], float]
    x_bound: float
    coeff_row: Callable[[int, np.ndarray], np.ndarray] | None = None
    kind = "row_generator"

    def row_value(self, x: Sequence, n: int, tol: float) -> float:
        observed = float(np.max(np.abs(x.values))) if x.horizon else 0.0
        if observed > self.x_bound * (1 + 1e-12):
            raise PrefixExceedsBound(
                f"prefix exceeds the declared bound |x_k| <= {self.x_bound} "
                f"(observed {observed})"
            )
        if self.tail_bound(n, x.horizon) >= tol:
            raise TailBoundUnsatisfiable(
                f"row {n}: tail bound {self.tail_bound(n, x.horizon):.3g} at horizon "
                f"{x.horizon} is not below tol={tol:.3g}"
            )
        ks = np.arange(1, x.horizon + 1)
        if self.coeff_row is not None:
            coeffs = np.asarray(self.coeff_row(n, ks), dtype=np.float64)
        else:
            coeffs = np.array([self.coeff(n, int(k)) for k in ks])
        return float(np.sum(coeffs * x.values))


def geometric_tail(decay: float, x_bound: float) -> RowGenerator:
    """Forward-weighted averaging rows a_nk = (1-decay) * decay**(k-n) for k >= n.

    Each row sums to 1; the tail past column j >= n has mass decay**(j-n+1),
    which gives the closed-form certified bound.
    """
    if not 0 < decay < 1:
        raise ValueError("decay must be in (0, 1)")

    def coeff(n: int, k: int) -> float:
        return (1 - decay) * decay ** (k - n) if k >= n else 0.0

    def tail_bound(n: int, j: int) -> float:
        return x_bound * decay ** (j - n + 1) if j >= n else x_bound

    def coeff_row(n: int, ks: np.ndarray) -> np.ndarray:
        out = np.where(ks >= n, (1 - decay) * decay ** (ks - n), 0.0)
        return out

    return RowGenerator(
        name=f"geometric_tail(decay={decay})",
        coeff=coeff,
        tail_bound=tail_bound,
        x_bound=x_bound,
        coeff_row=coeff_row,
    )


def apply_matrix(A: MatrixOperator, x: Sequence, n: int, tol: float = 1e-12) -> float:
    """A_n(x) = sum_k a_nk x_k, exact for finite-support rows.

    For generator rows the absolute truncation error is certified below
    `tol`; otherwise TailBoundUnsatisfiable is raised.
    """
    if n < 1:
        raise ValueError("row index n must be >= 1")
    return A.row_value(x, n, tol)


def transform_sequence(
    A: MatrixOperator, x: Sequence, out_len: int, tol: float = 1e-12
) -> Sequence:
    """The prefix (A_1(x), ..., A_out_len(x)) as a Sequence."""
    if out_len < 1:
        raise ValueError("out_len must be >= 1")
    if isinstance(A, Identity):
        if out_len > x.horizon:
            raise SupportExceedsHorizon(
                f"row {x.horizon + 1} needs x beyond horizon {x.horizon}"
            )
        return Sequence(x.values[:out_len])
    out = np.empty(out_len)
    for n in range(1, out_len + 1):
        try:
            out[n - 1] = A.row_value(x, n, tol)
        except (SupportExceedsHorizon, TailBoundUnsatisfiable) as exc:
            raise type(exc)(f"at output index n={n}: {exc}") from exc
    return Sequence(out)
