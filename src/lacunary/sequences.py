"""Finite-prefix sequences, block schedules, and matrix transforms.

An infinite real sequence is represented by its prefix (x_1..x_N); every
limit statement downstream becomes a finite trajectory.  Indexing is 1-based
throughout, matching the block convention I_r = (k_{r-1}, k_r].

All operations here are pure functions of immutable inputs, safe to call
concurrently and bitwise reproducible.  A matrix operator's `transform`
gives a whole prefix of rows: Identity and Shift slice x, CesaroC1
divides a sequential `np.cumsum` by n, RowTable sums each row in
increasing column order, and `geometric_tail` runs a backward recurrence.
Window means are not computed here: `BlockEngine` (convergence.py) takes
them from one cumulative sum of the transformed prefix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import (
    EmptySchedule,
    NonFiniteTransform,
    NotStrictlyIncreasing,
    PrefixExceedsBound,
    ScheduleOverflow,
    SupportExceedsHorizon,
    TailBoundUnsatisfiable,
)


@dataclass(frozen=True, eq=False)
class Sequence:
    """A finite real prefix x_1..x_N standing in for an infinite sequence.

    `values` is a read-only float64 array that the Sequence owns.
    `Sequence(values)` copies what it is given, once.  The package's own
    constructors hand over an array they have just made with `_adopt`,
    which takes it without a copy; `transform_sequence` of Identity adopts
    a view of x, which is read-only already.  Either way the prefix must be
    one-dimensional, nonempty and finite.
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _owned(np.array(self.values, dtype=np.float64)))

    @classmethod
    def _adopt(cls, values: np.ndarray) -> "Sequence":
        """A Sequence over `values` itself: a float64 array the package has just made.

        No copy is taken and `values` becomes read-only, so the caller must
        hold no other writable reference to it.
        """
        seq = object.__new__(cls)
        object.__setattr__(seq, "values", _owned(values))
        return seq

    @property
    def horizon(self) -> int:
        return int(self.values.size)

    def __len__(self) -> int:
        return self.horizon


def _owned(arr: np.ndarray) -> np.ndarray:
    """The float64 array `arr`, checked as a prefix and made read-only."""
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("a sequence needs a one-dimensional, nonempty prefix")
    if not np.all(np.isfinite(arr)):
        raise ValueError("sequence values must be finite (no NaN/inf)")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class LacunarySchedule:
    """Increasing cut points k_0=0 < k_1 < ... < k_R and the blocks they induce.

    Block r (1-based) is the integer range I_r = (k_{r-1}, k_r] with length
    h_r = k_r - k_{r-1}.  Strict increase is enforced; growth conditions
    (nondecreasing h_r, a floor on the last block) are soft checks reported
    in `warnings` because finite data cannot witness h_r -> infinity.
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
        if cuts[-1] > np.iinfo(np.int64).max:  # cut points are int64 in the block arithmetic
            raise ScheduleOverflow("the last cut point is past the largest array index 2**63 - 1")

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

    @property
    def last_index(self) -> int:
        return self.cut_points[-1]


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
            try:
                k_r = max(cuts_list[-1] + 1, math.ceil(rule.base * rule.ratio**r))
            except OverflowError:  # ratio**r past float64, or base * ratio**r infinite
                raise ScheduleOverflow(
                    f"cut point k_{r} = ceil(base * ratio**{r}) overflows float64"
                ) from None
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
    """Infinite matrix A = (a_nk); `transform` gives A_1(x)..A_out_len(x) of x_1..x_N.

    Finite-support rows are exact (SupportExceedsHorizon past the horizon);
    generator rows certify their truncation error below `tol`.  Errors name
    the first failing row as `at output index n=<n>`.
    """

    kind = "abstract"

    def transform(self, x: np.ndarray, out_len: int, tol: float) -> np.ndarray:
        raise NotImplementedError


def _beyond_horizon(n: int, detail: str) -> SupportExceedsHorizon:
    return SupportExceedsHorizon(f"at output index n={n}: row {n} {detail}")


@dataclass(frozen=True)
class Identity(MatrixOperator):
    kind = "identity"

    def transform(self, x: np.ndarray, out_len: int, tol: float) -> np.ndarray:
        if out_len > x.size:
            n = x.size + 1
            raise _beyond_horizon(n, f"needs x_{n}, horizon is {x.size}")
        return x[:out_len]


@dataclass(frozen=True)
class CesaroC1(MatrixOperator):
    """First Cesaro means: a_nk = 1/n for k <= n, from one sequential cumsum."""

    kind = "cesaro_c1"

    def transform(self, x: np.ndarray, out_len: int, tol: float) -> np.ndarray:
        if out_len > x.size:
            n = x.size + 1
            raise _beyond_horizon(n, f"needs x_1..x_{n}, horizon is {x.size}")
        return np.cumsum(x[:out_len]) / np.arange(1, out_len + 1)


@dataclass(frozen=True)
class Shift(MatrixOperator):
    """Single off-diagonal: a_{n,n+d} = 1; rows pointing before index 1 are zero."""

    d: int = 1
    kind = "shift"

    def transform(self, x: np.ndarray, out_len: int, tol: float) -> np.ndarray:
        n = max(1, x.size - self.d + 1)  # first row needing x past the horizon
        if out_len >= n:
            raise _beyond_horizon(n, f"needs x_{n + self.d}, horizon is {x.size}")
        lo = min(max(0, -self.d), out_len)  # rows 1..lo point before x_1
        return np.concatenate((np.zeros(lo), x[lo + self.d : out_len + self.d]))


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

    @cached_property
    def _columns(self) -> tuple[np.ndarray, np.ndarray]:
        """(k - 1, a) arrays of shape (rows, widest row), each row sorted as `sorted(row)`.

        Padding has k - 1 = -1 and a = 0.0: `transform` gathers it from a 0.0
        appended to x, so a padded column adds an exact 0.0 to a row's sum.
        """
        lengths = np.array([len(row) for row in self.rows], dtype=np.int64)
        pairs = [pair for row in self.rows for pair in row]
        ks = np.array([k for k, _ in pairs], dtype=np.int64)
        coefs = np.array([a for _, a in pairs], dtype=np.float64)
        rows = np.repeat(np.arange(lengths.size), lengths)
        order = np.lexsort((coefs, ks, rows))  # by row, then as sorted() orders (k, a) pairs
        starts = np.cumsum(lengths) - lengths
        pos = np.arange(ks.size) - starts[rows]
        width = int(lengths.max(initial=0))
        cols = np.full((lengths.size, width), -1, dtype=np.int64)
        a = np.zeros((lengths.size, width))
        cols[rows, pos] = ks[order] - 1
        a[rows, pos] = coefs[order]
        return cols, a

    def transform(self, x: np.ndarray, out_len: int, tol: float) -> np.ndarray:
        cols, a = (arr[:out_len] for arr in self._columns)
        past = np.flatnonzero(cols.max(axis=1, initial=-1) >= x.size)
        if past.size:
            n = int(past[0]) + 1
            k = int(cols[n - 1][cols[n - 1] >= x.size][0]) + 1
            raise _beyond_horizon(n, f"has support at k={k}, horizon is {x.size}")
        if out_len > len(self.rows):
            n = len(self.rows) + 1
            raise _beyond_horizon(n, f"not defined (table has {len(self.rows)} rows)")
        xp = np.append(x, 0.0)
        total = np.zeros(out_len)
        for j in range(cols.shape[1]):  # column by column: each row's sequential sum
            total += a[:, j] * xp[cols[:, j]]
        return total


@dataclass(frozen=True, eq=False)
class RowGenerator(MatrixOperator):
    """Infinite rows given by a rule plus a certified truncation bound.

    `rows(x, out_len)` returns sum_{k <= N} a_nk x_k for n = 1..out_len, the
    rows truncated at the horizon N = len(x).  `tail_bound(ns, N)` returns,
    for an array of row indices, bounds dominating sum_{k > N} |a_nk| * x_bound,
    where `x_bound` is the declared bound on |x_k|.  The prefix is checked
    against `x_bound`, and every requested row's bound must be below `tol`.
    """

    name: str
    rows: Callable[[np.ndarray, int], np.ndarray]
    tail_bound: Callable[[np.ndarray, int], np.ndarray]
    x_bound: float
    kind = "row_generator"

    def transform(self, x: np.ndarray, out_len: int, tol: float) -> np.ndarray:
        observed = float(np.max(np.abs(x)))
        if observed > self.x_bound * (1 + 1e-12):
            raise PrefixExceedsBound(
                f"prefix exceeds the declared bound |x_k| <= {self.x_bound} "
                f"(observed {observed})"
            )
        bounds = self.tail_bound(np.arange(1, out_len + 1), x.size)
        failing = np.flatnonzero(bounds >= tol)
        if failing.size:
            n = int(failing[0]) + 1
            raise TailBoundUnsatisfiable(
                f"at output index n={n}: row {n}: tail bound {bounds[n - 1]:.3g} at "
                f"horizon {x.size} is not below tol={tol:.3g}"
            )
        return self.rows(x, out_len)


def geometric_tail(decay: float, x_bound: float) -> RowGenerator:
    """Forward-weighted averaging rows a_nk = (1-decay) * decay**(k-n) for k >= n.

    Each row sums to 1; the tail past column j >= n has mass decay**(j-n+1),
    which gives the closed-form certified bound.  Rows come from the backward
    recurrence S_n = (1-decay) x_n + decay * S_{n+1}; rows past the horizon are 0.
    """
    if not 0 < decay < 1:
        raise ValueError("decay must be in (0, 1)")

    def rows(x: np.ndarray, out_len: int) -> np.ndarray:
        s, sums = 0.0, []
        for v in reversed(x.tolist()):
            s = (1 - decay) * v + decay * s
            sums.append(s)
        return np.array(sums[::-1][:out_len] + [0.0] * (out_len - x.size))

    def tail_bound(ns: np.ndarray, j: int) -> np.ndarray:
        return x_bound * decay ** np.maximum(j - ns + 1, 0)

    return RowGenerator(
        name=f"geometric_tail(decay={decay})",
        rows=rows,
        tail_bound=tail_bound,
        x_bound=x_bound,
    )


def transform_sequence(
    A: MatrixOperator, x: Sequence, out_len: int, tol: float = 1e-12
) -> Sequence:
    """The prefix (A_1(x), ..., A_out_len(x)) as a Sequence.

    The Sequence adopts the transform's output without a copy; for Identity
    it is a view of x.  A row that overflows float64 raises
    NonFiniteTransform naming the first such row, without a numpy warning.
    """
    if out_len < 1:
        raise ValueError("out_len must be >= 1")
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.asarray(A.transform(x.values, out_len, tol), dtype=np.float64)
    try:
        return Sequence._adopt(out)
    except ValueError:
        bad = np.flatnonzero(~np.isfinite(out))
        if not bad.size:
            raise
        n = int(bad[0]) + 1
        raise NonFiniteTransform(
            f"at output index n={n}: row {n} of the {A.kind} transform is {out[n - 1]}, "
            "its sum overflowed float64"
        ) from None
