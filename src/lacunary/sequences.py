"""Finite-prefix sequences, block schedules, and matrix transforms.

An infinite real sequence is represented by its prefix (x_1..x_N); every
limit statement downstream becomes a finite trajectory.  Indexing is 1-based
throughout, matching the block convention I_r = (k_{r-1}, k_r].

All operations here are pure functions of immutable inputs, safe to call
concurrently and bitwise reproducible; the one exception is a drawn prefix
(`random_bounded_sequence`), whose reads share one private generator, so it
serves one reader at a time.  A matrix operator's `transform`
gives a whole prefix of rows: Identity and Shift slice x, CesaroC1
divides a sequential `np.cumsum` by n, RowTable sums each row in
increasing column order, and GeometricTail runs a backward recurrence.
Window means are not computed here: `BlockEngine` (convergence.py) takes
them from one cumulative sum of the transformed prefix.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from functools import cached_property

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


class Sequence:
    """A finite real prefix x_1..x_N standing in for an infinite sequence.

    `values` is the whole prefix as a read-only float64 array.  `read(a, b)`
    gives x_{a+1}..x_b, and `prefix(n)` the Sequence x_1..x_n; neither reads
    more than it is asked for.  `Sequence(values)` copies what it is given,
    once; the package's own constructors hand over an array they have just
    made with `_adopt`, which takes it without a copy.  Either way the
    prefix must be one-dimensional, nonempty and finite.  A drawn prefix
    (`random_bounded_sequence`) holds no array: it draws its values on the
    first access to `values`, and each `read` draws only its slice.
    """

    __slots__ = ("_values",)

    def __init__(self, values) -> None:
        self._values = _owned(np.array(values, dtype=np.float64))

    @classmethod
    def _adopt(cls, values: np.ndarray) -> "Sequence":
        """A Sequence over `values` itself: a float64 array the package has just made.

        No copy is taken and `values` becomes read-only, so the caller must
        hold no other writable reference to it.
        """
        seq = object.__new__(cls)
        seq._values = _owned(values)
        return seq

    @property
    def values(self) -> np.ndarray:
        return self._values

    @property
    def horizon(self) -> int:
        return int(self._values.size)

    def __len__(self) -> int:
        return self.horizon

    def read(self, a: int, b: int, out: np.ndarray | None = None) -> np.ndarray:
        """x_{a+1}..x_b for 0 <= a <= b <= horizon.

        Here a read-only view of `values`, and `out` is left alone.  A drawn
        prefix draws them into `out` (float64, b - a long; a fresh array if
        None) and returns it.  So a caller that passes `out` must use the
        returned array, which is `out` only for a drawn prefix.
        """
        if not 0 <= a <= b <= self.horizon:
            raise IndexError(f"cannot read x_{a + 1}..x_{b} of a prefix of {self.horizon}")
        return self._values[a:b]

    def prefix(self, n: int) -> "Sequence":
        """x_1..x_n for 1 <= n <= horizon, read by no one: a view of this checked prefix."""
        seq = object.__new__(Sequence)
        seq._values = self._values[:n]
        return seq


def _owned(arr: np.ndarray) -> np.ndarray:
    """The float64 array `arr`, checked as a prefix and made read-only."""
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("a sequence needs a one-dimensional, nonempty prefix")
    if not (math.isfinite(np.min(arr)) and math.isfinite(np.max(arr))):  # NaN propagates; no temporary
        raise ValueError("sequence values must be finite (no NaN/inf)")
    arr.flags.writeable = False
    return arr


_DRAW_TILE = 2**15  # indices per read when a drawn prefix draws its whole `values`


@dataclass(frozen=True, eq=False)
class _Draw:
    """One seeded draw of n values: the generator state it starts from and what it maps the
    uniforms to.  Stream u[0:n] gives the values lo + span * u, u[n:2n] < density marks the
    exceptions, and u[2n:3n] < 0.5 picks exceptions[0] (negative) over exceptions[1]."""

    state: dict
    kind: type
    n: int
    lo: float
    span: float
    density: float
    exceptions: np.ndarray | None  # (negative, positive) exception values, if density > 0


class DrawnPrefix(Sequence):
    """x_1..x_horizon of a `_Draw`, drawn only where it is read (`random_bounded_sequence`).

    `read(a, b, out)` positions one private generator at a, n + a and
    2n + a with `advance` and fills `out`: the exception stream first and
    then the sign stream, each drawn into `out` and reduced to the tile's
    exception positions and signs, then the values over them.  `values`
    draws the whole prefix the same way, a tile at a time into one fresh
    array, once, and keeps it; `horizon` and `prefix` draw nothing.  A
    prefix of a drawn prefix is the same draw cut short, so its values are
    those of the longer one.  The generator is shared by every read, so a
    drawn prefix serves one reader at a time.
    """

    __slots__ = ("_draw", "_horizon", "_bits", "_gen", "_at")

    def __init__(self, draw: _Draw, horizon: int) -> None:
        self._draw, self._horizon, self._values, self._gen = draw, horizon, None, None

    @classmethod
    def draw(cls, rng: np.random.Generator, n: int, lo: float, span: float, density: float,
             exceptions: np.ndarray | None) -> "DrawnPrefix":
        """The draw of n values from rng's next uniforms (see `_Draw`).  rng is advanced past
        it at once, n or 3n steps, so it must run on PCG64 or PCG64DXSM (else ValueError)."""
        bits = rng.bit_generator
        if not isinstance(bits, (np.random.PCG64, np.random.PCG64DXSM)):
            raise ValueError(
                "a drawn prefix needs a PCG64 or PCG64DXSM generator, whose advance(k) skips "
                f"k draws, got {type(bits).__name__}"
            )
        draw = _Draw(bits.state, type(bits), n, lo, span, density, exceptions)
        bits.advance(3 * n if density > 0 else n)
        if draw.state["has_uint32"]:  # advance drops the half-used output of a 32-bit draw
            bits.state = {**bits.state, "has_uint32": 1, "uinteger": draw.state["uinteger"]}
        return cls(draw, n)

    @property
    def values(self) -> np.ndarray:
        if self._values is None:
            h = self._horizon
            values = np.empty(h)
            for a in range(0, h, _DRAW_TILE):
                self.read(a, min(a + _DRAW_TILE, h), out=values[a : a + _DRAW_TILE])
            values.flags.writeable = False
            self._values = values
        return self._values

    @property
    def horizon(self) -> int:
        return self._horizon

    def read(self, a: int, b: int, out: np.ndarray | None = None) -> np.ndarray:
        if not 0 <= a <= b <= self._horizon:
            raise IndexError(f"cannot read x_{a + 1}..x_{b} of a prefix of {self._horizon}")
        d = self._draw
        out = np.empty(b - a) if out is None else out
        if d.density > 0:
            self._fill(d.n + a, out)
            hits = np.flatnonzero(out < d.density)
            self._fill(2 * d.n + a, out)
            negative = out[hits] < 0.5
        self._fill(a, out)
        out *= d.span  # lo + span * u: the bits of Generator.uniform(lo, lo + span)
        out += d.lo
        if d.density > 0:
            out[hits] = np.where(negative, *d.exceptions)
        return out

    def _fill(self, at: int, out: np.ndarray) -> None:
        """out = the uniforms u[at : at + out.size] of the draw's stream."""
        if self._gen is None:
            self._bits = self._draw.kind(0)
            self._bits.state = self._draw.state
            self._gen, self._at = np.random.Generator(self._bits), 0
        self._bits.advance(at - self._at)  # backwards too: advance counts modulo the period
        self._gen.random(out=out)
        self._at = at + out.size

    def prefix(self, n: int) -> "DrawnPrefix":
        return DrawnPrefix(self._draw, n)


_H_FLOOR = 2  # a shorter last block is reported in a schedule's warnings


@dataclass(frozen=True)
class LacunarySchedule:
    """Increasing cut points k_0=0 < k_1 < ... < k_R and the blocks they induce.

    Block r (1-based) is the integer range I_r = (k_{r-1}, k_r] with length
    h_r = k_r - k_{r-1}.  Strict increase is enforced; growth conditions
    (nondecreasing h_r, a last block of at least 2 indices) are soft checks
    that `warnings` reports, computed from the cut points, because finite
    data cannot witness h_r -> infinity.
    """

    cut_points: tuple[int, ...]
    warnings: tuple[str, ...] = field(init=False, compare=False)

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
        h = self.block_lengths
        warnings = []
        if np.any(h[1:] < h[:-1]):
            warnings.append("block lengths are not nondecreasing")
        if h[-1] < _H_FLOOR:
            warnings.append(f"last block length {int(h[-1])} below floor {_H_FLOOR}")
        object.__setattr__(self, "warnings", tuple(warnings))

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

    def cut(self, r: int, previous: int) -> int:
        """k_r = max(previous + 1, ceil(base * ratio**r)), given the cut before it, k_{r-1}."""
        try:
            return max(previous + 1, math.ceil(self.base * self.ratio**r))
        except OverflowError:  # ratio**r past float64, or base * ratio**r infinite
            raise ScheduleOverflow(
                f"cut point k_{r} = ceil(base * ratio**{r}) overflows float64"
            ) from None


def build_lacunary(rule: Explicit | Geometric) -> LacunarySchedule:
    """Validate a schedule rule into a LacunarySchedule.

    Growth is reported, not enforced: the schedule's `warnings` name block
    lengths that are not nondecreasing and a last block shorter than 2.
    """
    if isinstance(rule, Explicit):
        cuts = tuple(int(c) for c in rule.cut_points)
    elif isinstance(rule, Geometric):
        cuts_list = [0]
        for r in range(1, rule.count + 1):
            cuts_list.append(rule.cut(r, cuts_list[-1]))
        cuts = tuple(cuts_list)
    else:
        raise TypeError(f"unknown schedule rule {rule!r}")
    return LacunarySchedule(cuts)


class MatrixOperator:
    """Infinite matrix A = (a_nk); `transform` gives A_1(x)..A_out_len(x) of x_1..x_N.

    `transform_sequence` is the entry point: it answers Identity itself, so
    Identity has no `transform`, and calls `transform` for every other kind.
    Finite-support rows are exact (SupportExceedsHorizon past the horizon);
    generator rows certify their truncation error below `tol`.  Errors name
    the first failing row as `at output index n=<n>`.
    """

    kind = "abstract"

    def transform(self, x: np.ndarray, out_len: int, tol: float) -> np.ndarray:
        raise NotImplementedError(f"the {self.kind} matrix has no transform; call transform_sequence")


def _beyond_horizon(n: int, detail: str) -> SupportExceedsHorizon:
    return SupportExceedsHorizon(f"at output index n={n}: row {n} {detail}")


@dataclass(frozen=True)
class Identity(MatrixOperator):
    """The identity matrix; `transform_sequence` answers it with a prefix of x."""

    kind = "identity"


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


_INT64_MAX = int(np.iinfo(np.int64).max)  # the largest column index a table stores


@dataclass(frozen=True, eq=False)
class RowTable(MatrixOperator):
    """Explicit finite-support rows, given flat: row n has `lengths[n-1]` (k, a_nk) pairs, the
    pairs of all rows in order in the columns `ks` and `coefs`.

    Construction casts and checks the pairs with whole-array operations and
    keeps only the (k - 1, a) arrays `transform` reads: shape (rows,
    widest row), each row sorted as `sorted(row)`.  Padding has k - 1 = -1
    and a = 0.0: `transform` gathers it from a 0.0 appended to x, so a
    padded column adds an exact 0.0 to a row's sum.  A table keeps no copy
    of its input, so tables compare by identity.
    """

    lengths: InitVar[np.ndarray]
    ks: InitVar[np.ndarray]
    coefs: InitVar[np.ndarray]
    kind = "row_table"

    def __post_init__(self, lengths, ks, coefs) -> None:
        lengths = np.asarray(lengths, dtype=np.int64)
        coefs = np.asarray(coefs, dtype=np.float64)
        if not int(lengths.sum()) == len(ks) == coefs.size:
            raise ValueError("the rows' lengths, ks and coefs do not count the same pairs")
        try:
            ks = np.asarray(ks, dtype=np.int64)
            bad_k = np.flatnonzero(ks < 1)
        except OverflowError:  # an index past int64: find the first bad one among the exact integers
            bad_k = np.flatnonzero([not 1 <= k <= _INT64_MAX for k in ks])
        bad_k = int(bad_k[0]) if bad_k.size else len(ks)
        bad_a = np.flatnonzero(~np.isfinite(coefs[:bad_k]))
        if bad_k < len(ks) or bad_a.size:  # the first offending pair, as a pass in order finds it
            i = int(bad_a[0]) if bad_a.size else bad_k
            n, k = int(np.searchsorted(np.cumsum(lengths), i, side="right")) + 1, ks[i]
            if i < bad_k:
                raise ValueError(f"row {n}: coefficient at k={k} not finite")
            raise ValueError(f"row {n}: column index {k} " + ("< 1" if k < 1 else "is past int64"))

        at = np.repeat(np.arange(lengths.size), lengths)
        order = np.lexsort((coefs, ks, at))  # by row, then as sorted() orders (k, a) pairs
        pos = np.arange(ks.size) - (np.cumsum(lengths) - lengths)[at]
        width = int(lengths.max(initial=0))
        cols = np.full((lengths.size, width), -1, dtype=np.int64)
        a = np.zeros((lengths.size, width))
        cols[at, pos] = ks[order] - 1
        a[at, pos] = coefs[order]
        object.__setattr__(self, "_columns", (cols, a))

    def transform(self, x: np.ndarray, out_len: int, tol: float) -> np.ndarray:
        n_rows = len(self._columns[0])
        cols, a = (arr[:out_len] for arr in self._columns)
        past = np.flatnonzero(cols.max(axis=1, initial=-1) >= x.size)
        if past.size:
            n = int(past[0]) + 1
            k = int(cols[n - 1][cols[n - 1] >= x.size][0]) + 1
            raise _beyond_horizon(n, f"has support at k={k}, horizon is {x.size}")
        if out_len > n_rows:
            n = n_rows + 1
            raise _beyond_horizon(n, f"not defined (table has {n_rows} rows)")
        xp = np.append(x, 0.0)
        total = np.zeros(out_len)
        for j in range(cols.shape[1]):  # column by column: each row's sequential sum
            total += a[:, j] * xp[cols[:, j]]
        return total


@dataclass(frozen=True)
class GeometricTail(MatrixOperator):
    """Forward-weighted averaging rows a_nk = (1-decay) * decay**(k-n) for k >= n, certified
    against a declared bound |x_k| <= x_bound.

    Each row sums to 1; the tail past column j >= n has mass decay**(j-n+1),
    so x_bound * decay**(j-n+1) bounds what truncating row n at the horizon
    j leaves out.  The prefix is checked against `x_bound`, and every
    requested row's bound must be below `tol`.  Rows come from the backward
    recurrence S_n = (1-decay) x_n + decay * S_{n+1}; rows past the horizon are 0.
    """

    decay: float
    x_bound: float
    kind = "row_generator"

    def __post_init__(self) -> None:
        if not 0 < self.decay < 1:
            raise ValueError("decay must be in (0, 1)")

    def transform(self, x: np.ndarray, out_len: int, tol: float) -> np.ndarray:
        observed = float(np.max(np.abs(x)))
        if observed > self.x_bound * (1 + 1e-12):
            raise PrefixExceedsBound(
                f"prefix exceeds the declared bound |x_k| <= {self.x_bound} "
                f"(observed {observed})"
            )
        ns = np.arange(1, out_len + 1)
        bounds = self.x_bound * self.decay ** np.maximum(x.size - ns + 1, 0)
        failing = np.flatnonzero(bounds >= tol)
        if failing.size:
            n = int(failing[0]) + 1
            raise TailBoundUnsatisfiable(
                f"at output index n={n}: row {n}: tail bound {bounds[n - 1]:.3g} at "
                f"horizon {x.size} is not below tol={tol:.3g}"
            )
        decay, s, sums = self.decay, 0.0, []
        for v in reversed(x.tolist()):
            s = (1 - decay) * v + decay * s
            sums.append(s)
        return np.array(sums[::-1][:out_len] + [0.0] * (out_len - x.size))


def transform_sequence(
    A: MatrixOperator, x: Sequence, out_len: int, tol: float = 1e-12
) -> Sequence:
    """The prefix (A_1(x), ..., A_out_len(x)) as a Sequence.

    For Identity it is `x.prefix(out_len)`, which reads nothing of x: a view
    of an array-backed x, whose finiteness was checked when x was made, or
    the same draw cut at out_len, which stays undrawn.  Every other
    transform reads `x.values` and the Sequence adopts its output without a
    copy.  A row that overflows float64 raises NonFiniteTransform naming the
    first such row, without a numpy warning.
    """
    if out_len < 1:
        raise ValueError("out_len must be >= 1")
    if isinstance(A, Identity):
        if out_len > x.horizon:
            n = x.horizon + 1
            raise _beyond_horizon(n, f"needs x_{n}, horizon is {x.horizon}")
        return x.prefix(out_len)
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
