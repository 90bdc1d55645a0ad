"""Counterexample constructions and empirical inclusion experiments.

Two constructions are built here, each with a known analytic limit that the
test suite and the CLI check against.  Each builder takes the fields of its
kind in the `CONSTRUCTION` config table as keywords, with the same defaults,
and returns the prefix and its space, (x, params):

  * `build_thm37` -- a half-block plateau: the summed block statistic decays
    like 2**-r (tends to 0) while the exception density per block tends to
    1/2, witnessing that membership by summed statistic does not imply
    membership by density when the family vanishes pointwise in k.

  * `build_thm38` -- one spike per block with the family slope solved so the
    spike's modular term equals h_r**alpha exactly: the per-block exception
    density is 1/h_r**alpha (tends to 0) while the summed statistic stays
    at 1, witnessing the reverse non-inclusion for unbounded families.

The remaining helpers run corpora of sequences through antecedent/consequent
space pairs and turn T31's per-block proof inequality into a
machine-checkable bound, read from `BlockEngine` results (so a NaN
statistic raises NonFiniteStatistic, as everywhere).  The bound is one
engine call at the space's own m_max and returns its two sides per window
and block, as (m_max + 1, R) arrays: the spaces are uniform in m, and so is
the bound.  The `inclusion` command checks it at every window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Collection, Iterable

import numpy as np

from .convergence import (
    CONVERGES,
    DIVERGES,
    MODULAR_FLAGS,
    RAW_FLAGS,
    SHAT_DENSITY,
    STRONG,
    BlockEngine,
    SpaceParams,
    classify_trajectory,
)
from .errors import EmptyAdmissibleSet, HypothesisUnsatisfiable
from .orlicz import (
    ConstantFamily,
    ExponentSequence,
    IndexScaledFamily,
    LinearSlope,
    MusielakOrliczFamily,
    RhoSequence,
    SpikeFamily,
    _member,
    _run,
    delta2_check,
)
from .sequences import (
    DrawnPrefix,
    Explicit,
    Geometric,
    Identity,
    LacunarySchedule,
    Sequence,
    build_lacunary,
)

THEOREMS = ("T31", "T33", "T35", "T36", "T37", "T38")

_HORIZON_CAP = 1 << 22  # the furthest cut point thm37's search for a vanishing tail tries


# ---------------------------------------------------------------------------
# counterexample constructions
# ---------------------------------------------------------------------------


def _check_construction(nu: float, rho: float, r_max: int) -> None:
    """The fields every construction checks: a height nu >= 0, rho > 0 and r_max >= 1 blocks."""
    if nu < 0:
        raise ValueError("nu must be >= 0")
    if rho <= 0:
        raise ValueError("rho must be > 0")
    if r_max < 1:
        raise ValueError("r_max must be >= 1")


def _construction(
    values: np.ndarray, family: MusielakOrliczFamily, schedule: LacunarySchedule,
    alpha: float, rho: float, epsilon: float, m_max: int,
) -> tuple[Sequence, SpaceParams]:
    """A construction's prefix and space: identity matrix, unit exponents, L = 0."""
    params = SpaceParams(
        family=family,
        schedule=schedule,
        alpha=alpha,
        epsilon=epsilon,
        L=0.0,
        m_max=m_max,
        rho=RhoSequence(constant=rho),
        exponents=ExponentSequence(constant=1.0),
        matrix=Identity(),
    )
    return Sequence._adopt(values), params


def build_thm37(
    nu: float = 1.0,
    rho: float = 1.0,
    r_max: int = 14,
    alpha: float = 1.0,
    m_max: int | None = None,
    family: MusielakOrliczFamily | None = None,
) -> tuple[Sequence, SpaceParams]:
    """Half-block plateau construction: the prefix x and its space, whose schedule
    `params.schedule` has r_max blocks.

    Picks cut points n_r (nondecreasing block lengths) so that
    M_{n_r + 1}(nu/rho) < 2**-r, puts the plateau height nu on the first
    ceil(h_r / 2) indices of each block and 0 on the rest, and returns
    identity-matrix parameters at order alpha with unit exponents and
    constant rho.  The exception threshold is set to half the smallest
    plateau term within the horizon, so the per-term membership flags mark
    exactly the plateau indices.  The window lookahead m_max defaults to
    32; the family, to M_k(u) = u/k.

    Raises ValueError unless nu >= 0, rho > 0 and r_max >= 1, and
    HypothesisUnsatisfiable when the family tail k -> M_k(nu/rho) cannot
    reach 2**-r within a horizon of 2**22, or is not nonincreasing where probed.
    """
    _check_construction(nu, rho, r_max)
    family = family if family is not None else IndexScaledFamily()
    m_max = 32 if m_max is None else m_max
    u = nu / rho

    def tail_value(k: int) -> float:  # u >= 0
        return _member(family, k)(u)

    # cut points: smallest n_r keeping block lengths nondecreasing with
    # tail_value(n_r + 1) < 2**-r; one extra phantom cut for window lookahead
    cuts = [0]
    h_prev = 1
    with np.errstate(over="ignore"):  # M_k past float64 is +inf
        for r in range(1, r_max + 2):
            target = 2.0**-r
            lo = cuts[-1] + h_prev
            if tail_value(lo + 1) < target:
                n_r = lo
            else:
                hi = lo
                while tail_value(hi + 1) >= target:
                    hi = max(hi + 1, hi * 2)
                    if hi > _HORIZON_CAP:
                        raise HypothesisUnsatisfiable(
                            f"tail of M_k(nu/rho) never drops below 2**-{r} "
                            f"within the horizon cap {_HORIZON_CAP}"
                        )
                # smallest valid point in (lo, hi]
                a, b = lo, hi
                while a + 1 < b:
                    mid = (a + b) // 2
                    if tail_value(mid + 1) < target:
                        b = mid
                    else:
                        a = mid
                n_r = b
            cuts.append(n_r)
            h_prev = cuts[-1] - cuts[-2]

    phantom_cut = cuts[-1]
    cuts = cuts[:-1]
    schedule = build_lacunary(Explicit(tuple(cuts)))

    # numeric hypothesis check: nonincreasing, vanishing tail at the probes
    with np.errstate(over="ignore"):
        probes = [tail_value(c + 1) for c in cuts[1:]] + [tail_value(phantom_cut + 1)]
    if any(b > a + 1e-15 for a, b in zip(probes, probes[1:])):
        raise HypothesisUnsatisfiable("M_k(nu/rho) is not nonincreasing along the cut probes")
    for r, val in enumerate(probes[:-1], start=1):
        if not val < 2.0**-r:
            raise HypothesisUnsatisfiable(
                f"M_(n_{r}+1)(nu/rho) = {val} is not below 2**-{r}"
            )

    # sequence: nu on the first ceil(h_r/2) indices of each block, 0 after;
    # the pattern continues into the phantom block to cover window lookahead
    # (for nu = 0 the continuation is identically zero, nothing to cover)
    if nu > 0 and m_max > phantom_cut - schedule.last_index:
        raise HypothesisUnsatisfiable(
            f"lookahead m_max={m_max} reaches past the next block end {phantom_cut}"
        )
    horizon = schedule.last_index + m_max
    values = np.zeros(horizon)
    half_lengths = []
    for r in range(1, schedule.num_blocks + 1):
        start = schedule.cut_points[r - 1]
        h_r = schedule.cut_points[r] - start
        half = math.ceil(h_r / 2)
        half_lengths.append(half)
        values[start : start + half] = nu
    phantom_half = math.ceil((phantom_cut - schedule.last_index) / 2)
    lookahead = min(m_max, phantom_half)
    values[schedule.last_index : schedule.last_index + lookahead] = nu

    # threshold below every plateau term stored in the prefix
    if nu > 0:
        last_half_index = schedule.cut_points[-2] + half_lengths[-1]
        epsilon = 0.5 * tail_value(last_half_index)
        if epsilon <= 0:
            epsilon = 1e-9
    else:
        epsilon = 1e-3

    return _construction(values, family, schedule, alpha, rho, epsilon, m_max)


def build_thm38(
    nu: float = 1.0,
    rho: float = 1.0,
    r_max: int = 10,
    alpha: float = 1.0,
    m_max: int | None = None,
    family: MusielakOrliczFamily | None = None,
    schedule: Geometric | Explicit | None = None,
    nu_values: Collection[float] | None = None,
) -> tuple[Sequence, SpaceParams]:
    """Spike construction: A_k(x) = nu_r at k = n_r, 0 elsewhere; returns the prefix x and its
    space, whose schedule `params.schedule` has r_max blocks.

    The schedule rule defaults to Geometric(2, 2, r_max), the spike heights
    nu_values to nu * r (r for nu = 0), and the lookahead m_max to 0.  The
    default family puts slope h_r**alpha * rho / nu_r at each spike index
    so M_{n_r}(nu_r / rho) = h_r**alpha exactly; a user-supplied family is
    validated against the same inequality (>=) at every spike.

    Raises ValueError unless nu >= 0, rho > 0 and r_max >= 1, and for a
    schedule or nu_values of another size than r_max; HypothesisUnsatisfiable
    when a spike inequality fails or the lookahead reaches the next spike.
    """
    _check_construction(nu, rho, r_max)
    rule = schedule or Geometric(base=2.0, ratio=2.0, count=r_max)
    blocks = build_lacunary(rule)
    if blocks.num_blocks != r_max:
        raise ValueError("schedule rule must produce exactly r_max blocks")
    if nu_values is None:
        base = nu if nu > 0 else 1.0
        nus = tuple(base * r for r in range(1, r_max + 1))
    elif len(nu_values) != r_max:
        raise ValueError(f"need {r_max} spike heights, got {len(nu_values)}")
    else:
        nus = tuple(map(float, nu_values))
    m_max = 0 if m_max is None else m_max

    if any(v <= 0 for v in nus) or any(b <= a for a, b in zip(nus, nus[1:])):
        raise HypothesisUnsatisfiable("spike heights must be strictly increasing and positive")
    if not math.isfinite(nus[-1]):
        raise HypothesisUnsatisfiable(f"spike height nu_{r_max} overflows float64")

    h = blocks.block_lengths.astype(np.float64)
    h_alpha = h**alpha
    spikes = blocks.cut_points[1:]

    if family is None:
        with np.errstate(over="ignore"):
            slopes = tuple(
                (spikes[r], h_alpha[r] * rho / nus[r]) for r in range(r_max)
            )
        if not all(0 < c < math.inf for _, c in slopes):
            raise HypothesisUnsatisfiable(
                "a spike slope h_r**alpha * rho / nu_r is past the range of float64"
            )
        family = SpikeFamily(slopes=slopes, default_slope=1.0)
    with np.errstate(over="ignore"):
        arguments = np.array(nus) / rho
    if not np.isfinite(arguments).all():
        raise HypothesisUnsatisfiable("a spike argument nu_r / rho is past the range of float64")
    at_spikes = _run(family._bind(np.array(spikes, dtype=np.int64)), arguments)  # arguments > 0
    for r in range(r_max):
        got = float(at_spikes[r])
        if not got >= h_alpha[r] * (1.0 - 1e-12):
            raise HypothesisUnsatisfiable(
                f"M_(n_{r + 1})(nu_{r + 1}/rho) = {got} < h_{r + 1}**alpha = {h_alpha[r]}"
            )

    horizon = blocks.last_index + m_max
    if m_max > 0 and isinstance(rule, Geometric):
        # the infinite continuation is zero until the next spike, the rule's next cut
        # (stepped up like every cut); make sure the lookahead window does not swallow it
        next_cut = max(blocks.last_index + 1, math.ceil(rule.base * rule.ratio ** (r_max + 1)))
        if horizon >= next_cut:
            raise HypothesisUnsatisfiable(
                f"lookahead m_max={m_max} reaches the next spike at {next_cut}"
            )
    values = np.zeros(horizon)
    for r in range(r_max):
        values[spikes[r] - 1] = nus[r]

    epsilon = min(1.0, 0.5 * float(np.min(h_alpha)))
    return _construction(values, family, blocks, alpha, rho, epsilon, m_max)


# ---------------------------------------------------------------------------
# per-block proof inequalities
# ---------------------------------------------------------------------------


def _require_constant_setup(p: SpaceParams) -> tuple[float, float]:
    if not isinstance(p.family, ConstantFamily):
        raise ValueError("per-block bounds need a constant family (k-independent M)")
    if p.rho.constant is None:
        raise ValueError("per-block bounds need a constant rho")
    return p.rho.constant, p.epsilon


def thm31_block_bounds(x: Sequence, p: SpaceParams, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Lower bound of the summed statistic by the raw exception count, at every window.

    Returns (lhs, rhs), each of shape (m_max + 1, R), with

      lhs_{m,r} = strong statistic at order alpha,
      rhs_{m,r} = |{k in I_r : |t_{km}(A(x) - L)| >= eps}| / h_r**beta
                  * min(M(eps1)**h_inf, M(eps1)**H_sup),   eps1 = eps / rho.

    Valid for alpha <= beta, constant family and constant rho; then
    lhs >= rhs holds exactly in real arithmetic.
    """
    floor = _thm31_floor(p, beta)  # checks the setup before the engine runs
    own, at_beta = BlockEngine([(p, (STRONG,)), (replace(p, alpha=beta), (RAW_FLAGS,))])(x)
    return _thm31_sides(own, at_beta, floor)


def _thm31_floor(p: SpaceParams, beta: float) -> float:
    """min(M(eps1)**h_inf, M(eps1)**H_sup), eps1 = eps / rho: T31's bound per raw exception."""
    if beta < p.alpha or not 0 < beta <= 1:
        raise ValueError("need alpha <= beta <= 1")
    rho_c, eps = _require_constant_setup(p)
    value, exps = p.family.function(eps / rho_c), p.exponents
    with np.errstate(over="ignore"):  # a power past float64 is an honest +inf
        return float(min(np.power(value, exps.h_inf), np.power(value, exps.H_sup)))


def _thm31_sides(own: dict, at_beta: dict, floor: float) -> tuple[np.ndarray, np.ndarray]:
    """T31's (lhs, rhs) per window and block, from the engine bundles at alpha and at beta;
    rhs is floor * density, where an infinite floor times no exception is 0."""
    density = at_beta[RAW_FLAGS].per_m
    with np.errstate(over="ignore", invalid="ignore"):
        return own[STRONG].per_m, np.where(density > 0, density * floor, 0.0)


_INEQUALITY_SLACK = 1e-12  # the relative rounding allowance of T31's per-block check


def _thm31_violations(lhs: np.ndarray, rhs: np.ndarray) -> int:
    """Blocks where, at some window, lhs falls below rhs by more than the slack times
    max(1, |rhs|); below an infinite rhs, any smaller lhs."""
    with np.errstate(invalid="ignore"):  # inf - inf where both sides are infinite
        gap = rhs - lhs
    bad = np.where(np.isinf(rhs), lhs < rhs, gap > _INEQUALITY_SLACK * np.maximum(1.0, np.abs(rhs)))
    return int(np.count_nonzero(bad.any(axis=0)))


@dataclass(frozen=True)
class GrowthEstimate:
    """Sampled lower bound of M_k(nu/rho_k) / (nu/rho_k) over large nu."""

    gamma: float
    nu_range: tuple[float, float]
    bounded_away: bool


_GROWTH_NUS = np.geomspace(1.0, 1e3, 13)  # the nu-grid of the growth estimate
_GROWTH_NUS.flags.writeable = False
_GROWTH_FLOOR = 1e-9  # an estimate above it is bounded away from 0


def liminf_growth_estimate(
    family: MusielakOrliczFamily,
    rho: RhoSequence = RhoSequence(),
    k_range: Iterable[int] = range(1, 65),
) -> GrowthEstimate:
    """Estimate inf_k M_k(nu/rho_k)/(nu/rho_k) over a nu-grid.

    Evidence, not proof: the estimate is the min over the sampled (nu, k)
    rectangle, and `bounded_away` reports whether it clears `_GROWTH_FLOOR`.
    Indices past a per-index rho and samples whose nu/rho_k overflows
    float64 are left out; EmptyAdmissibleSet reports a rectangle with no
    sample left.
    """
    defined = math.inf if rho.per_index is None else len(rho.per_index)
    ks = [int(k) for k in k_range if k <= defined]
    gamma = math.inf
    sampled = False
    for k in ks:
        r = rho.at(k)
        with np.errstate(over="ignore"):
            us = _GROWTH_NUS / r
        us = us[np.isfinite(us)]
        if us.size:
            sampled = True
            ratios = _run(family._bind(np.full(us.shape, k)), us) / us  # us > 0
            gamma = min(gamma, float(np.min(ratios)))
    if not sampled:
        raise EmptyAdmissibleSet("no sampled (k, nu) has rho_k defined and nu / rho_k finite")
    return GrowthEstimate(
        gamma=gamma,
        nu_range=(float(_GROWTH_NUS[0]), float(_GROWTH_NUS[-1])),
        bounded_away=gamma > _GROWTH_FLOOR,
    )


# ---------------------------------------------------------------------------
# corpora and the inclusion matrix
# ---------------------------------------------------------------------------


def random_bounded_sequence(
    rng: np.random.Generator,
    horizon: int,
    center: float = 0.0,
    radius: float = 1.0,
    exception_density: float = 0.0,
    exception_scale: float = 3.0,
) -> Sequence:
    """Uniform draw in [center-radius, center+radius] with planted exceptions, as a drawn prefix.

    Exception indices (chosen at `exception_density`) sit at
    center +/- exception_scale * radius, outside the bounded band, so
    membership of the draw in the density classes is controlled by design.

    The draw is three streams of n = horizon uniforms of `rng`, one after
    the other: x_k = uniform(center - radius, center + radius) from the
    first, an exception at k where the second's k-th uniform is below
    `exception_density`, and its sign negative where the third's k-th is
    below 0.5.  Without exceptions only the first is drawn.  The result
    records rng's state and draws only what is read of it (see
    `DrawnPrefix`); rng itself is advanced past the whole draw at once, by
    n or 3n steps.  That needs `advance` to skip one double per step, so
    rng must run on PCG64 or PCG64DXSM (`default_rng` gives PCG64).
    Raises ValueError for any other generator, for a horizon below 1, and
    when the band's width or an exception value is not finite.
    """
    if not math.isfinite((center + radius) - (center - radius)):
        raise ValueError(
            f"center +/- radius must span a finite width, got center={center:g}, radius={radius:g}"
        )
    if exception_density > 0 and not all(
        math.isfinite(center + s * exception_scale * radius) for s in (-1.0, 1.0)
    ):
        raise ValueError(
            f"center +/- exception_scale * radius must be finite, got center={center:g}, "
            f"radius={radius:g}, exception_scale={exception_scale:g}"
        )
    if horizon < 1:
        raise ValueError("a sequence needs a one-dimensional, nonempty prefix")
    lo, hi = float(center - radius), float(center + radius)
    exceptions = None
    if exception_density > 0:
        exceptions = center + np.array([-1.0, 1.0]) * exception_scale * radius
    return DrawnPrefix.draw(rng, horizon, lo, hi - lo, exception_density, exceptions)


@dataclass(frozen=True, eq=False)
class InclusionReport:
    """Corpus-level verdicts, implication statuses, and witnesses.

    An implication row is FAIL only when the antecedent verdict is
    ConvergesToZero and the consequent verdict is DoesNotConverge;
    Inconclusive never fails an implication.
    """

    verdicts: tuple[dict, ...]
    implications: tuple[dict, ...]
    theorem_results: dict
    witnesses: tuple[dict, ...]

    def to_dict(self) -> dict:
        return {
            "corpus_id": "corpus",
            "verdicts": list(self.verdicts),
            "implications": list(self.implications),
            "theorem_results": self.theorem_results,
            "witnesses": list(self.witnesses),
        }


def _implication_status(antecedent: str, consequent: str) -> str:
    if antecedent != CONVERGES:
        return "VACUOUS"
    if consequent == DIVERGES:
        return "FAIL"
    if consequent == CONVERGES:
        return "PASS"
    return "INCONCLUSIVE"


def _t33_note(alpha: float) -> str:
    return "h_r/h_r**alpha -> 1 requires alpha = 1" if alpha < 1 else "alpha = 1"


_RAW = {"flag_mode": RAW_FLAGS}
_SAMPLED = {"note": "conditional on sampled hypothesis"}
_STRONG_SHAT = ((STRONG, "alpha"), (MODULAR_FLAGS, "alpha"))
_PLAIN_FAMILY = ((STRONG, "plain"), (STRONG, "alpha"))

# theorem -> (the two verdicts it reads, in the order first asked, each as (bundle, space);
# the index of the antecedent; the fixed fields of its implication rows, a callable field
# taking alpha, or None for a witness theorem).  The spaces are the family space at alpha or
# at beta and the plain-average space.  A witness theorem reads (strong, shat), and its
# witnesses are the sequences whose implication row would FAIL.
_THEOREM_TABLE = {
    "T31": (((STRONG, "alpha"), (RAW_FLAGS, "beta")), 0, _RAW),
    "T33": (((RAW_FLAGS, "alpha"), (STRONG, "alpha")), 0, {**_RAW, "hypothesis_note": _t33_note}),
    "T35": (_PLAIN_FAMILY, 0, _SAMPLED),
    "T36": (_PLAIN_FAMILY, 1, _SAMPLED),
    "T37": (_STRONG_SHAT, 0, None),
    "T38": (_STRONG_SHAT, 1, None),
}


def _label(bundle: str, alpha: float, tag: str) -> str:
    """The membership column of a verdict: statistic, space, alpha and a density's flags."""
    if bundle == STRONG:
        return f"{STRONG}[{tag}]@alpha={alpha:g}"
    return f"{SHAT_DENSITY}[{tag}]@alpha={alpha:g},flags={bundle}"


def _space(p: SpaceParams, name: str, beta: float) -> tuple[tuple[float, str], SpaceParams]:
    """The (alpha, tag) and parameters of the space `name` of the table, for entry p."""
    if name == "plain":
        return (p.alpha, "plain"), replace(p, family=ConstantFamily(LinearSlope(1.0)))
    if name == "beta":
        return (beta, "family"), replace(p, alpha=beta)
    return (p.alpha, "family"), p


def run_inclusion_matrix(
    corpus: Iterable[tuple[Sequence, SpaceParams]],
    theorems: Iterable[str] = THEOREMS,
    beta: float = 1.0,
    verdict: dict | None = None,
) -> InclusionReport:
    """Run antecedent/consequent verdict pairs for each requested theorem.

    Per theorem: T31 checks the summed statistic at alpha against the raw
    exception density at `beta` (and, when the setup is constant-family and
    constant-rho, machine-checks the per-block lower bound at every window
    m = 0..m_max: `block_inequality_violations` counts the blocks where it
    fails at some m, up to a relative slack of 1e-12); T33
    checks the reverse inclusion for bounded rows; T35/T36 compare the
    plain-average space against the family space, attaching a doubling
    report (T35) and a sampled growth estimate (T36); T37/T38 scan for
    non-inclusion witnesses.  `_THEOREM_TABLE` holds what each theorem
    reads.  Reports name the flag mode used for every density verdict.
    `verdict` holds the keyword arguments of every `classify_trajectory`
    call (the config's verdict section: tol, tail_window, slope_slack).

    Each sequence is computed once, in one engine call for every space its
    theorems read: the family space at alpha, at `beta` for T31, and the
    plain-average space for T35/T36, and of each only the bundles read of it.
    Consecutive entries with equal parameters (all seeded draws of a
    corpus) share one `BlockEngine`, and the previous engine is dropped
    before the next one is built.
    """
    requested = [t for t in THEOREMS if t in set(theorems)]
    verdict = verdict or {}
    pairs = [pair for t in requested for pair in _THEOREM_TABLE[t][0]]  # (bundle, space) read
    names = [name for name in ("alpha", "beta", "plain") if name in {n for _, n in pairs}]
    verdict_rows: list[dict] = []
    implications: list[dict] = []
    witnesses: list[dict] = []
    fails = dict.fromkeys(requested, 0)

    engine: BlockEngine | None = None
    engine_params: SpaceParams | None = None
    t31_violations = 0
    first: SpaceParams | None = None
    n = 0
    for n, (x, p) in enumerate(corpus, start=1):
        sid = f"seq_{n - 1:03d}"
        if first is None:
            first = p
        if not requested:
            continue
        if p != engine_params:
            engine = None  # free the previous engine's buffers before allocating the next
            built = {name: _space(p, name, beta) for name in names}
            keys = {name: key for name, (key, _) in built.items()}
            spaces = dict(built.values())  # beta = alpha reads the family space once
            wants = {key: {bundle for bundle, name in pairs if keys[name] == key} for key in spaces}
            engine, engine_params = BlockEngine((q, wants[key]) for key, q in spaces.items()), p
        stats = dict(zip(spaces, engine(x)))
        decided: dict[tuple, str] = {}  # (bundle, alpha, tag) -> decision, for this sequence
        for theorem in requested:
            reads, at, fields = _THEOREM_TABLE[theorem]
            got = []
            for bundle, name in reads:
                key = (bundle, *keys[name])
                if key not in decided:
                    v = classify_trajectory(stats[key[1:]][bundle].sup, **verdict)
                    decided[key] = v.decision
                    verdict_rows.append({"sequence": sid, "space": _label(*key),
                                         "decision": v.decision, "tail_mean": v.tail_mean})
                got.append(decided[key])
            ante, cons = got[at], got[1 - at]
            status = _implication_status(ante, cons)
            fails[theorem] += status == "FAIL"
            if fields is not None:
                row = {k: v(p.alpha) if callable(v) else v for k, v in fields.items()}
                implications.append({**row, "theorem": theorem, "sequence": sid,
                                     "antecedent": ante, "consequent": cons, "status": status})
            elif status == "FAIL":
                witnesses.append({"theorem": theorem, "sequence": sid, "strong": got[0],
                                  "shat": got[1], "flag_mode": MODULAR_FLAGS})
        constant = isinstance(p.family, ConstantFamily) and p.rho.constant is not None
        if "T31" in requested and constant:  # the per-block bound, at every window
            floor = _thm31_floor(p, beta)
            t31_violations += _thm31_violations(
                *_thm31_sides(stats[keys["alpha"]], stats[keys["beta"]], floor)
            )

    theorem_results: dict = {
        t: {"kind": "witness", "witnesses_found": fails[t]}
        if _THEOREM_TABLE[t][2] is None
        else {"kind": "implication", "rows": n, "fail_rows": fails[t], "pass": fails[t] == 0}
        for t in requested
    }
    if "T31" in theorem_results:
        theorem_results["T31"]["block_inequality_violations"] = t31_violations
    if first is not None and "T35" in theorem_results:
        rep = delta2_check(first.family)
        theorem_results["T35"]["delta2"] = {
            "K_estimate": rep.K_estimate, "held": rep.held, "a": rep.a, "c_rule": rep.c_rule
        }
    if first is not None and "T36" in theorem_results:
        est = liminf_growth_estimate(first.family, first.rho)
        theorem_results["T36"]["liminf"] = {
            "gamma": est.gamma, "bounded_away": est.bounded_away, "nu_range": list(est.nu_range)
        }
        theorem_results["T36"].update(_SAMPLED)

    return InclusionReport(
        verdicts=tuple(verdict_rows),
        implications=tuple(implications),
        theorem_results=theorem_results,
        witnesses=tuple(witnesses),
    )
