"""The slow per-statistic reference for `BlockEngine`, and direct formulas.

Each statistic function computes one statistic of one space at one window
m the direct way: transform the prefix, shift by L, take the window means
from a fresh cumulative sum, evaluate the family terms and reduce per
block.  The engine's results must equal these bit for bit.

`thm33_block_bounds` and `thm34_triangle_bounds` are the T33 and T34
per-block proof bounds, read from engine calls: the tests check that the
engine's statistics satisfy their inequalities.  T34's left side, the
engine's strong statistic of a constant prefix, must equal
`triangle_gap_statistic`, the kernel-over-the-prefix formula, bit for bit.

`window_mean` and `block_average` are the textbook formulas, a plain
Python sum each, for tests that check the engine up to rounding.

The norm searches' reference is the plain route: bisection for the
Luxemburg crossing, a 41-point log grid over k in [2**-20, 2**20] refined
by golden section for the Amemiya minimum, golden section for the
conjugate, and one `modular` call per step.

The Orlicz kernels' reference is the allocating route they replaced:
`allocating_eval_many` and `allocating_bind` build each M_k(u) as a fresh
array (`us ** p`, `c * us`, ...).  The in-place kernels must give the same
bits, in whatever buffer they write.

The Orlicz axioms' reference is a grid check with an O(g**2) loop of
scalar calls, `pairwise_axioms`, run on `raw_table`, the interpolant of any
knots, including those `Table` refuses.  The exact slope rules of `Table`
must agree with it.

The report's references are the interpreted routes: `materialize` reads
each field's JSON constraint at every node of the echo (`normalize`), and
`encode_report` rounds a copy of the whole tree (`round_floats`) before
`json.dumps` writes it.  The compiled normalizer and the streaming writer
must give the same echo and the same bytes.
"""

import json
import math
from dataclasses import replace
from typing import Callable

import numpy as np

from lacunary import (
    BlockEngine,
    ConstantFamily,
    CustomFamily,
    ExpMinusOne,
    Identity,
    IndexPowerFamily,
    IndexScaledFamily,
    LacunarySchedule,
    LinearSlope,
    Power,
    PowerOverP,
    RhoSequence,
    RowTable,
    ScaledPower,
    Sequence,
    SpaceParams,
    SpikeFamily,
    Table,
    modular,
    transform_sequence,
)
from lacunary.convergence import MODULAR_FLAGS, RAW_FLAGS, STRONG
from lacunary.config import OMIT, Component
from lacunary.errors import BracketTooSmall, ConfigError, NoInteriorMinimum, ScaledPrefixOverflow
from lacunary.orlicz import AmemiyaValue


def row_table(rows) -> RowTable:
    """The RowTable of `rows` given row by row: rows[n-1] lists the (k, a_nk) pairs of row n."""
    pairs = [pair for row in rows for pair in row]
    return RowTable([len(row) for row in rows], [k for k, _ in pairs], [a for _, a in pairs])


def window_mean(values, m: int, n: int) -> float:
    """t_{mn} = (x_n + ... + x_{n+m}) / (m + 1), 1-based, summed left to right."""
    total = 0.0
    for j in range(n - 1, n + m):
        total += values[j]
    return total / (m + 1)


def block_average(x: Sequence, schedule: LacunarySchedule, L: float = 0.0) -> np.ndarray:
    """Plain block averages v_r = (1 / h_r) * sum_{k in I_r} |x_k - L|, summed left to right."""
    cuts = schedule.cut_points
    averages = []
    for a, b in zip(cuts, cuts[1:]):
        total = 0.0
        for v in x.values[a:b]:
            total += abs(float(v) - L)
        averages.append(total / (b - a))
    return np.array(averages)


def whole_draw_bounded_sequence(rng, horizon, center, radius, exception_density, exception_scale):
    """The eager draw that `random_bounded_sequence` stands for: the values, then each exception
    stream, drawn whole from rng one after the other.  A drawn prefix must read the slices of this
    array bit for bit and leave rng where this leaves it."""
    values = rng.uniform(center - radius, center + radius, size=horizon)
    if exception_density > 0:
        at = np.flatnonzero(rng.random(horizon) < exception_density)
        signs = np.where(rng.random(horizon)[at] < 0.5, -1.0, 1.0)
        values[at] = center + signs * exception_scale * radius
    return values


def _block_counts(flags: np.ndarray, sched: LacunarySchedule) -> np.ndarray:
    """|{k in I_r : flags_k}| for r = 1..R, exact, as float64."""
    cuts = sched.cut_points
    counts = [np.count_nonzero(flags[a:b]) for a, b in zip(cuts, cuts[1:])]
    return np.array(counts, dtype=np.float64)


def lacunary_density(
    flags: np.typing.ArrayLike, schedule: LacunarySchedule, alpha: float
) -> np.ndarray:
    """v_r = |{k in I_r : flag_k}| / h_r**alpha."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    f = np.asarray(flags, dtype=bool)
    if f.size < schedule.last_index:
        raise ValueError(f"flags cover {f.size} indices, schedule ends at {schedule.last_index}")
    h_alpha = schedule.block_lengths.astype(np.float64) ** alpha
    return _block_counts(f, schedule) / h_alpha


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


def strong_block_statistic(x: Sequence, p: SpaceParams, m: int = 0) -> np.ndarray:
    """The summed block statistic at window m: each block's terms summed by `np.sum`."""
    terms = _terms_from(_window_deviations(x, p, m), p)
    cuts = p.schedule.cut_points
    sums = np.array([np.sum(terms[a:b]) for a, b in zip(cuts, cuts[1:])])
    return sums / p.schedule.block_lengths.astype(np.float64) ** p.alpha


def triangle_gap_statistic(
    p: SpaceParams, L1: float, L2: float, rho1: float, rho2: float
) -> np.ndarray:
    """T34's left side, (1/h_r**alpha) * sum_{k in I_r} (M_k(|L1 - L2| / rho))**s_k with
    rho = max(2*rho1, 2*rho2), from the kernel over the whole prefix and `np.add.reduce`
    per block."""
    rho = max(2.0 * rho1, 2.0 * rho2)
    k_end = p.schedule.last_index
    terms = p.family.bind(np.arange(1, k_end + 1))(np.full(k_end, abs(L1 - L2) / rho))
    if not p.exponents.is_identically_one:
        with np.errstate(over="ignore"):  # a term past float64 is an honest +inf
            terms = terms ** p.exponents.array(1, k_end)
    cuts = p.schedule.cut_points
    sums = np.array([np.add.reduce(terms[a:b]) for a, b in zip(cuts, cuts[1:])])
    return sums / p.schedule.block_lengths.astype(np.float64) ** p.alpha


def thm33_block_bounds(x: Sequence, p: SpaceParams, T: float) -> tuple[np.ndarray, np.ndarray]:
    """T33's upper bound of the summed statistic for uniformly bounded transforms, at every
    window: (lhs, rhs), each of shape (m_max + 1, R), with

      lhs_{m,r} = strong statistic at order alpha,
      rhs_{m,r} = max(M(K)**h_inf, M(K)**H_sup) * raw exception density
                  + (h_r / h_r**alpha) * max(M(eps1)**h_inf, M(eps1)**H_sup),

    K = T / rho and eps1 = eps / rho, for a constant family and constant rho.
    lhs <= rhs holds in real arithmetic when T dominates |t_{km}(A(x) - L)|
    for every m <= m_max (e.g. T = max |x_k - L| for the identity matrix)
    and alpha = 1.  A power past float64 is an honest +inf, and an infinite
    bound times no exception is 0.
    """
    (own,) = BlockEngine([(p, (STRONG, RAW_FLAGS))])(x)
    h = p.schedule.block_lengths.astype(np.float64)
    M, rho, s = p.family.function, p.rho.constant, p.exponents
    density = own[RAW_FLAGS].per_m
    with np.errstate(over="ignore", invalid="ignore"):
        big, small = (max(np.power(M(u / rho), s.h_inf), np.power(M(u / rho), s.H_sup))
                      for u in (T, p.epsilon))
        rhs = np.where(density > 0, density * big, 0.0) + (h / h**p.alpha) * small
    return own[STRONG].per_m, rhs


def thm34_triangle_bounds(
    x: Sequence, p: SpaceParams, L1: float, L2: float, rho1: float, rho2: float
) -> tuple[np.ndarray, np.ndarray]:
    """T34's modular triangle bound separating two candidate limits, at every window.

    Returns (lhs, rhs), each of shape (m_max + 1, R).  With
    rho = max(2*rho1, 2*rho2) and D = max(1, 2**(H_sup - 1)), the constant
    in the power triangle inequality (a+b)**s <= D (a**s + b**s):

      lhs_{m,r} = (1/h_r**alpha) * sum_{k in I_r} (M_k(|L1 - L2| / rho))**s_k
      rhs_{m,r} = D * strong_{m,r}(L=L1, rho1) + D * strong_{m,r}(L=L2, rho2)

    and lhs <= rhs holds in real arithmetic.  lhs does not depend on m: it
    is the engine's strong statistic of the constant prefix |L1 - L2| at
    L = 0, m_max = 0 and that rho.  A ValueError reports an |L1 - L2| that
    is not finite.
    """
    gap = abs(L1 - L2)
    if not math.isfinite(gap):
        raise ValueError(f"|L1 - L2| = {gap} is not finite")
    q = replace(p, L=0.0, m_max=0, rho=RhoSequence(constant=max(2.0 * rho1, 2.0 * rho2)),
                matrix=Identity())
    (lhs,) = BlockEngine([(q, (STRONG,))])(Sequence(np.full(p.schedule.last_index, gap)))
    D = max(1.0, 2.0 ** (p.exponents.H_sup - 1.0))
    v1, v2 = (  # the spaces of one engine share L, so one engine per candidate limit
        BlockEngine([(replace(p, L=L, rho=RhoSequence(constant=r)), (STRONG,))])(x)[0][STRONG].per_m
        for L, r in ((L1, rho1), (L2, rho2))
    )
    with np.errstate(over="ignore"):
        rhs = D * v1 + D * v2
    return np.broadcast_to(lhs[STRONG].per_m, rhs.shape), rhs


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
# the Orlicz kernels: the allocating formulas
# ---------------------------------------------------------------------------

def allocating_eval_many(M, us: np.ndarray) -> np.ndarray:
    """M(us) as a fresh array, by the formula of M's kind."""
    with np.errstate(over="ignore"):
        if isinstance(M, Power):
            return us**M.p
        if isinstance(M, ScaledPower):
            return M.c * us**M.p
        if isinstance(M, PowerOverP):
            return us**M.p / M.p
        if isinstance(M, ExpMinusOne):
            return np.expm1(us)
        if isinstance(M, LinearSlope):
            return M.c * us
        assert isinstance(M, Table)
        xs = np.array([a for a, _ in M.knots])
        ys = np.array([b for _, b in M.knots])
        out = np.interp(us, xs, ys)
        slope = (ys[-1] - ys[-2]) / (xs[-1] - xs[-2])
        return np.where(us > xs[-1], ys[-1] + slope * (us - xs[-1]), out)


def allocating_bind(family, ks, us: np.ndarray) -> np.ndarray:
    """M_{ks}(us) elementwise as a fresh array; `ks` broadcasts against `us`."""
    ks = np.asarray(ks, dtype=np.int64)
    if isinstance(family, ConstantFamily):
        return allocating_eval_many(family.function, us)
    if isinstance(family, CustomFamily):
        idx = np.broadcast_to(np.minimum(ks - 1, len(family.functions) - 1), us.shape)
        out = np.empty(us.shape)
        for i in np.unique(idx):
            at = idx == i
            out[at] = allocating_eval_many(family.functions[i], us[at])
        return out
    with np.errstate(over="ignore"):
        if isinstance(family, IndexScaledFamily):
            return us / ks.astype(np.float64)
        if isinstance(family, IndexPowerFamily):
            return us ** np.asarray(family.exponents)[np.minimum(ks - 1, len(family.exponents) - 1)]
        assert isinstance(family, SpikeFamily)
        c = np.full(ks.shape, family.default_slope)
        table = dict(family.slopes)
        keys = np.array(sorted(table), dtype=np.int64)
        if keys.size:
            pos = np.minimum(np.searchsorted(keys, ks), keys.size - 1)
            hit = keys[pos] == ks
            c[hit] = np.array([table[k] for k in sorted(table)])[pos[hit]]
        return c * us


# ---------------------------------------------------------------------------
# the Orlicz axioms: a grid check
# ---------------------------------------------------------------------------

def raw_table(knots) -> Callable[[float], float]:
    """The interpolant `Table` defines, for any knots: np.interp, and the last slope past them."""
    xs = [float(u) for u, _ in knots]
    ys = [float(v) for _, v in knots]
    slope = (ys[-1] - ys[-2]) / (xs[-1] - xs[-2])
    return lambda u: ys[-1] + slope * (u - xs[-1]) if u > xs[-1] else float(np.interp(u, xs, ys))


def pairwise_axioms(M: Callable[[float], float], grid, tol: float = 1e-12) -> tuple[str, ...]:
    """The Orlicz axioms the scalar function M fails on `grid`, which must contain 0.

    Checks M(0) = 0, M > 0 past 0, monotonicity and midpoint convexity
    M((a+b)/2) <= (M(a)+M(b))/2 over every pair of grid points, both up to
    the slack tol * max(1, max |M|), and growth as M(max grid) > 0.
    """
    g = sorted(float(u) for u in grid)
    vals = {u: M(u) for u in g}
    slack = tol * max(1.0, max(abs(v) for v in vals.values()))
    checks = {
        "zero_at_zero": vals[0.0] == 0.0,
        "positive": all(vals[u] > 0 for u in g if u > 0),
        "nondecreasing": all(vals[b] >= vals[a] - slack for a, b in zip(g, g[1:])),
        "midpoint_convex": all(
            M(0.5 * (a + b)) <= 0.5 * (vals[a] + vals[b]) + slack
            for i, a in enumerate(g) for b in g[i + 1:]
        ),
        "growth": vals[g[-1]] > 0,
    }
    return tuple(name for name, ok in checks.items() if not ok)


# ---------------------------------------------------------------------------
# the norm searches: bisection, log grid + golden section
# ---------------------------------------------------------------------------

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0  # 1/phi


def bisect_nonincreasing(
    g: Callable[[float], float], target: float, lo: float, hi: float, tol: float, max_iter: int = 200
) -> float:
    """The crossing of a nonincreasing g with `target`, given g(lo) > target >= g(hi).

    Returns the upper end of the final bracket: g(result) <= target, and the
    result sits within `tol` above the crossing.
    """
    for _ in range(max_iter):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        if g(mid) > target:
            lo = mid
        else:
            hi = mid
    return hi


def golden_section_min(
    f: Callable[[float], float], a: float, b: float, tol: float, max_iter: int = 400
) -> tuple[float, float]:
    """Minimize a unimodal f on [a, b]; returns (argmin, min value)."""
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(max_iter):
        if abs(b - a) <= tol:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
    if fc < fd:
        return c, fc
    return d, fd


def golden_section_max(
    f: Callable[[float], float], a: float, b: float, tol: float, max_iter: int = 400
) -> tuple[float, float]:
    """Maximize a unimodal f on [a, b]; returns (argmax, max value)."""
    x, fx = golden_section_min(lambda u: -f(u), a, b, tol, max_iter)
    return x, -fx


def grid_then_golden_min(
    f: Callable[[float], float],
    grid: list[float],
    tol: float,
    max_expansions: int = 60,
    expansion_factor: float = 2.0,
) -> tuple[float, float, bool]:
    """Minimize f over (0, inf) from an ascending positive grid; returns (argmin, value, at_boundary).

    Golden section refines around the best grid point.  While the right edge
    is the best and still improves by more than `tol`, the grid is extended
    geometrically; `at_boundary` is set when the last extension is the best.
    Raises NoInteriorMinimum when `max_expansions` extensions all improve by
    more than `tol`.
    """
    xs = list(grid)
    vals = [f(x) for x in xs]
    at_boundary = False
    best = min(range(len(xs)), key=lambda i: vals[i])
    if best == len(xs) - 1:
        for n_ext in range(max_expansions + 1):
            if n_ext == max_expansions:
                raise NoInteriorMinimum(
                    f"objective still improving by more than {tol} after "
                    f"{max_expansions} bracket expansions"
                )
            x_new = xs[-1] * expansion_factor
            v_new = f(x_new)
            improved = vals[-1] - v_new
            xs.append(x_new)
            vals.append(v_new)
            if v_new >= vals[-2] or improved <= tol:
                break
        best = min(range(len(xs)), key=lambda i: vals[i])
        at_boundary = best == len(xs) - 1
    lo = xs[best - 1] if best > 0 else xs[0] * 0.5
    hi = xs[best + 1] if best + 1 < len(xs) else xs[-1] * expansion_factor
    x_star, v_star = golden_section_min(f, lo, hi, tol=tol * max(1.0, lo))
    if vals[best] < v_star:
        x_star, v_star = xs[best], vals[best]
    return x_star, v_star, at_boundary


def reference_luxemburg(family, x: Sequence, tol: float) -> float:
    """The Luxemburg norm by doubling/halving from rho = 1, then bisection; one `modular` per step."""
    if not np.any(x.values):
        return 0.0

    def g(rho):
        return modular(family, x, RhoSequence(constant=rho))

    lo = hi = 1.0
    if g(1.0) > 1.0:
        for _ in range(200):
            hi *= 2.0
            if g(hi) <= 1.0:
                break
        else:
            raise BracketTooSmall("up")
        lo = hi / 2.0
    else:
        for _ in range(200):
            lo *= 0.5
            if g(lo) > 1.0:
                break
        else:
            raise BracketTooSmall("down")
        hi = lo * 2.0
    return bisect_nonincreasing(g, 1.0, lo, hi, tol)


def amemiya_objective(family, x: Sequence) -> Callable[[float], float]:
    """k -> (1 + modular(k x)) / k through a scaled `Sequence`; k x past float64 is ScaledPrefixOverflow."""

    def objective(k):
        with np.errstate(over="ignore"):
            scaled = x.values * k
        if not np.all(np.isfinite(scaled)):
            raise ScaledPrefixOverflow(f"k = {k:g} scales the prefix past float64")
        return (1.0 + modular(family, Sequence(scaled))) / k

    return objective


def reference_amemiya(family, x: Sequence, tol: float) -> tuple[AmemiyaValue, float]:
    """The Amemiya norm by the log grid plus golden section; returns (value, argmin k)."""
    if not np.any(x.values):
        return AmemiyaValue(0.0, False), 0.0
    grid = [2.0**e for e in range(-20, 21)]
    k_star, value, at_boundary = grid_then_golden_min(amemiya_objective(family, x), grid, tol)
    return AmemiyaValue(value, at_boundary), k_star


def reference_conjugate(family, k: int, v: float, u_max: float, tol: float) -> tuple[float, float]:
    """sup { |v| u - M_k(u) : 0 <= u <= u_max } by golden section; returns (value, argmax u).

    The bracket's upper end is first halved from u_max until M_k is finite there.
    """
    M = family.member(k)
    u_hi = u_max
    while math.isinf(M(u_hi)):
        u_hi *= 0.5
    u_star, value = golden_section_max(lambda u: abs(v) * u - M(u), 0.0, u_hi, tol)
    return max(value, 0.0), u_star


# ---------------------------------------------------------------------------
# the report: interpreted echo, rounded copy + json.dumps
# ---------------------------------------------------------------------------

_CASTS = (("integer", int), ("number", float), ("boolean", bool))


def materialize(component: Component, doc: dict, seed=None, root=None) -> dict:
    """`component.materialize(doc, seed)` with `normalize` at every field."""
    out = {component.key: doc[component.key]} if component.key else {}
    root = out if root is None else root
    for name, f in component._kind(doc).fields.items():
        if name in doc:
            value = doc[name]
        elif f.default is OMIT:
            continue
        else:
            value = f.default(root) if callable(f.default) else f.default
        if f.seeded and seed is not None:
            if seed < f.schema["minimum"]:
                raise ConfigError(f"--seed must be >= {f.schema['minimum']}, got {seed}")
            value = seed
        try:
            out[name] = normalize(value, f.schema, seed, root)
        except OverflowError as exc:  # an integer past float64 in a number field
            raise ConfigError(f"{component.name}.{name}: {exc}") from exc
    return out


def normalize(value, schema, seed, root):
    """The echo of a validated value: fresh containers, numbers cast by type."""
    if isinstance(schema, Component):
        return materialize(schema, value, seed, root)
    if value is None:
        return None
    types = schema.get("type", ())
    types = (types,) if isinstance(types, str) else types
    if "array" in types:
        if "prefixItems" in schema:
            return [normalize(v, s, seed, root) for v, s in zip(value, schema["prefixItems"])]
        return [normalize(v, schema["items"], seed, root) for v in value]
    if "object" in types:
        item = schema["additionalProperties"]
        return {str(k): normalize(v, item, seed, root) for k, v in value.items()}
    for name, cast in _CASTS:
        if name in types:
            return cast(value)
    return value


def round_floats(obj):
    """Clamp every float to 12 significant digits for stable output; +-inf become "inf"/"-inf"."""
    if isinstance(obj, dict):
        return {k: round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round_floats(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        text = f"{float(obj):.12g}"
        return text if text in ("inf", "-inf") else float(text)
    return obj


def encode_report(obj) -> str:
    """The JSON text of the tree `obj` in report.json (the file adds a final newline)."""
    return json.dumps(round_floats(obj), indent=2, sort_keys=True, allow_nan=False)
