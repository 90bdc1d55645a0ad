"""Config-driven command line: norms, classify, counterexample, inclusion.

Every command reads a strict JSON config (or a named preset), echoes the
fully-defaulted config into `<out>/report.json`, and writes plot-ready
trajectory CSVs with header `r,m,value` (per-m rows first, then one row
per block with m = "sup").  Floats are printed at 12 significant digits so
identical configs reproduce identical bytes; the timestamp lives only in
report.json.

Exit codes: 0 when all requested computations completed (math PASS/FAIL
lands in the report), 1 on config or computation errors, 2 under
--strict when any reported check failed.
"""

from __future__ import annotations

import argparse
import datetime
import json
import sys
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Iterator

import numpy as np

from . import __version__
from .config import (
    CONSTRUCTION,
    FAMILY,
    MATRIX,
    RHO,
    SCHEDULE,
    SEQUENCE,
    SPACE,
    load_config,
    materialize,
    parse_json,
    validate_config,
)
from .convergence import (
    MODULAR_FLAGS,
    SHAT_DENSITY,
    STRONG,
    BlockEngine,
    SpaceParams,
    UniformTrajectories,
    Verdict,
    classify_trajectory,
)
from .errors import ConfigError, LacunaryError
from .experiments import (
    CounterexampleSpec,
    build_thm37,
    build_thm38,
    random_bounded_sequence,
    run_inclusion_matrix,
)
from .orlicz import (
    MusielakOrliczFamily,
    complementary,
    delta2_check,
    luxemburg_norm,
    modular,
    orlicz_norm,
    table_axiom_failures,
)
from .sequences import Sequence, build_lacunary


def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


def _round_floats(obj):
    """Clamp every float to 12 significant digits for stable output; +-inf become "inf"/"-inf"."""
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        text = _fmt(obj)
        return text if text in ("inf", "-inf") else float(text)
    return obj


def _verdict_dict(v: Verdict) -> dict:
    return {
        "decision": v.decision,
        "tail_mean": v.tail_mean,
        "tail_window": v.tail_window,
        "tol": v.tol,
        "tail_slope": v.tail_slope,
        "slope_slack": v.slope_slack,
    }


def _trajectory_rows(bundle: UniformTrajectories) -> list[tuple[int, str, float]]:
    rows: list[tuple[int, str, float]] = []
    for traj in bundle.per_m:
        for r, value in enumerate(traj.values, start=1):
            rows.append((r, str(traj.m), float(value)))
    for r, value in enumerate(bundle.sup.values, start=1):
        rows.append((r, "sup", float(value)))
    return rows


@dataclass
class ReportBundle:
    """Everything one command produced, ready to be written to <out>."""

    config: dict
    results: dict
    checks: list[dict] = field(default_factory=list)
    trajectories: dict[str, list[tuple[int, str, float]]] = field(default_factory=dict)
    membership: tuple[list[str], list[list[str]]] | None = None

    @property
    def failed_checks(self) -> list[str]:
        failed = [c["name"] for c in self.checks if not c["passed"]]
        failed += [
            f"{t}:implications"
            for t, res in self.results.get("theorem_results", {}).items()
            if res.get("kind") == "implication" and not res.get("pass", True)
        ]
        return failed

    def write(self, out_dir: Path) -> None:
        out_dir.mkdir(parents=True, exist_ok=True)
        report = {
            "tool": "lacunary",
            "version": __version__,
            "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "config": _round_floats(self.config),
            "results": _round_floats(self.results),
            "checks": _round_floats(self.checks),
        }
        with open(out_dir / "report.json", "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True, allow_nan=False)
            fh.write("\n")
        for name, rows in self.trajectories.items():
            with open(out_dir / f"{name}.csv", "w") as fh:
                fh.write("r,m,value\n")
                for r, m, value in rows:
                    fh.write(f"{r},{m},{_fmt(value)}\n")
        if self.membership is not None:
            header, rows = self.membership
            with open(out_dir / "membership.csv", "w") as fh:
                fh.write(",".join(header) + "\n")
                for row in rows:
                    fh.write(",".join(row) + "\n")


# ---------------------------------------------------------------------------
# command handlers
# ---------------------------------------------------------------------------


def cmd_norms(doc: dict, seed: int | None = None) -> ReportBundle:
    validate_config(doc, "norms")
    echo = materialize(doc, "norms", seed)
    x = SEQUENCE.build(echo["sequence"])
    family = FAMILY.build(echo["family"])
    rho = RHO.build(echo["rho"])
    if rho.per_index is not None and len(rho.per_index) < x.horizon:
        raise ConfigError(
            f"rho: rho defined up to index {len(rho.per_index)}, the sequence needs {x.horizon}"
        )
    lux = luxemburg_norm(family, x, echo["luxemburg_tol"])
    orl = orlicz_norm(family, x, echo["orlicz_tol"])
    results: dict = {
        "horizon": x.horizon,
        "modular": modular(family, x, rho),
        "luxemburg_norm": lux,
        "orlicz_norm": {"value": orl.value, "at_boundary": orl.at_boundary},
    }
    if "complementary" in echo:
        comp = echo["complementary"]
        samples = []
        for k in comp["indices"]:
            for v in comp["v_values"]:
                c = complementary(family, k, v, u_max=comp["u_max"])
                samples.append(
                    {"k": k, "v": v, "value": c.value, "at_boundary": c.at_boundary}
                )
        results["complementary"] = samples
    if "delta2" in echo:
        d2 = echo["delta2"]
        rep = delta2_check(family, a=d2["a"], k_range=range(1, d2["k_max"] + 1))
        results["delta2"] = {
            "K_estimate": rep.K_estimate,
            "a": rep.a,
            "c_rule": rep.c_rule,
            "samples_tested": rep.samples_tested,
            "violations": [list(v) for v in rep.violations],
            "held": rep.held,
        }
    _report_axioms(results, family)
    return ReportBundle(config=echo, results=results)


def _report_axioms(results: dict, family: MusielakOrliczFamily) -> None:
    """Add `axiom_failures` to `results` when a table member of `family` fails an axiom."""
    failures = table_axiom_failures(family)
    if failures:
        results["axiom_failures"] = failures


def _space_params(echo: dict) -> SpaceParams:
    """The space of a classify or inclusion echo, with its family, schedule and matrix."""
    return SPACE.build(
        echo["space"],
        family=FAMILY.build(echo["family"]),
        schedule=build_lacunary(SCHEDULE.build(echo["schedule"])),
        matrix=MATRIX.build(echo["matrix"]),
    )


def _construct(echo: dict) -> tuple[Sequence, SpaceParams]:
    """Run the construction `echo` describes and echo the m_max it resolved."""
    spec = CONSTRUCTION.build(echo)
    builder = build_thm37 if spec.theorem == "thm37" else build_thm38
    x, _, params = builder(spec)
    echo["m_max"] = params.m_max
    return x, params


def _verdicts(
    strong: UniformTrajectories, shat: UniformTrajectories, verdict: dict
) -> tuple[Verdict, Verdict]:
    return (
        classify_trajectory(strong.sup.values, **verdict),
        classify_trajectory(shat.sup.values, **verdict),
    )


def cmd_classify(doc: dict, seed: int | None = None) -> ReportBundle:
    validate_config(doc, "classify")
    echo = materialize(doc, "classify", seed)
    if "construction" in echo:
        x, params = _construct(echo["construction"])
    else:
        x = SEQUENCE.build(echo["sequence"])
        params = _space_params(echo)

    flag_mode = echo["flag_mode"]
    stats = BlockEngine([params])(x)[0]
    strong, shat = stats[STRONG], stats[flag_mode]
    v_strong, v_shat = _verdicts(strong, shat, echo["verdict"])
    results = {
        "horizon": x.horizon,
        "num_blocks": params.schedule.num_blocks,
        "last_index": params.schedule.last_index,
        "m_max": params.m_max,
        "epsilon": params.epsilon,
        "flag_mode": flag_mode,
        "verdicts": {STRONG: _verdict_dict(v_strong), SHAT_DENSITY: _verdict_dict(v_shat)},
        "schedule_warnings": list(params.schedule.warnings),
    }
    _report_axioms(results, params.family)
    return ReportBundle(
        config=echo,
        results=results,
        trajectories={
            "trajectory": _trajectory_rows(strong),
            "trajectory_shat": _trajectory_rows(shat),
        },
    )


def _thm37_checks(
    checks: dict, strong: UniformTrajectories, v_shat: Verdict
) -> list[dict]:
    gap = abs(v_shat.tail_mean - checks["shat_tail_target"])
    out = [
        {
            "name": "shat_tail_near_half",
            "observed": v_shat.tail_mean,
            "target": checks["shat_tail_target"],
            "tolerance": checks["shat_tail_tol"],
            "passed": bool(gap <= checks["shat_tail_tol"]),
        }
    ]
    r0 = checks["strong_bound_min_r"]
    vals = strong.sup.values
    scaled = [vals[r - 1] * 2.0**r for r in range(r0, len(vals) + 1)]
    worst = max(scaled) if scaled else 0.0
    out.append(
        {
            "name": "strong_dominated_by_two_pow_minus_r",
            "observed": worst,
            "target": checks["strong_bound_coeff"],
            "tolerance": 0.0,
            "passed": bool(worst <= checks["strong_bound_coeff"]),
        }
    )
    return out


def _thm38_checks(
    checks: dict, strong: UniformTrajectories, shat: UniformTrajectories, params: SpaceParams
) -> list[dict]:
    h_alpha = params.schedule.block_lengths.astype(np.float64) ** params.alpha
    expected = 1.0 / h_alpha
    observed = shat.per_m[0].values
    worst_gap = float(np.max(np.abs(observed - expected)))
    out = [
        {
            "name": "shat_density_equals_one_over_h_alpha",
            "observed": worst_gap,
            "target": 0.0,
            "tolerance": checks["shat_exact_tol"],
            "passed": bool(worst_gap <= checks["shat_exact_tol"]),
        }
    ]
    r0 = checks["shat_density_min_r"]
    tail_max = float(np.max(observed[r0 - 1 :])) if r0 <= observed.size else 0.0
    out.append(
        {
            "name": "shat_density_small_tail",
            "observed": tail_max,
            "target": checks["shat_density_max"],
            "tolerance": 0.0,
            "passed": bool(tail_max <= checks["shat_density_max"]),
        }
    )
    strong_min = float(np.min(strong.sup.values))
    out.append(
        {
            "name": "strong_at_least_one",
            "observed": strong_min,
            "target": checks["strong_min"],
            "tolerance": 0.0,
            "passed": bool(strong_min >= checks["strong_min"]),
        }
    )
    return out


def cmd_counterexample(doc: dict, seed: int | None = None) -> ReportBundle:
    validate_config(doc, "counterexample")
    echo = materialize(doc, "counterexample", seed)
    x, params = _construct(echo)

    stats = BlockEngine([params])(x)[0]
    strong, shat = stats[STRONG], stats[MODULAR_FLAGS]
    v_strong, v_shat = _verdicts(strong, shat, echo["verdict"])

    notes = []
    if echo["theorem"] == "thm37":
        checks = _thm37_checks(echo["checks"], strong, v_shat)
        expected = {
            "strong": "block values dominated by 2**-(r-1), tending to 0",
            "shat_density": "tail at 1/2",
        }
        notes.append(
            "witness direction: summed statistic vanishes while the exception "
            "density stays at 1/2, so density membership fails"
        )
    else:
        checks = _thm38_checks(echo["checks"], strong, shat, params)
        expected = {
            "strong": "every block value at least 1",
            "shat_density": "block values 1/h_r**alpha, tending to 0",
        }
        notes.append(
            "witness direction: the summed statistic never drops below 1, a "
            "non-membership certificate for the summed class even though the "
            "exception density vanishes"
        )

    results = {
        "horizon": x.horizon,
        "num_blocks": params.schedule.num_blocks,
        "last_index": params.schedule.last_index,
        "cut_points": list(params.schedule.cut_points),
        "epsilon": params.epsilon,
        "m_max": params.m_max,
        "flag_mode": MODULAR_FLAGS,
        "expected_limits": expected,
        "notes": notes,
        "verdicts": {STRONG: _verdict_dict(v_strong), SHAT_DENSITY: _verdict_dict(v_shat)},
    }
    _report_axioms(results, params.family)
    return ReportBundle(
        config=echo,
        results=results,
        checks=checks,
        trajectories={
            "trajectory": _trajectory_rows(strong),
            "trajectory_shat": _trajectory_rows(shat),
        },
    )


def cmd_inclusion(doc: dict, seed: int | None = None) -> ReportBundle:
    validate_config(doc, "inclusion")
    echo = materialize(doc, "inclusion", seed)
    alpha = echo["space"]["alpha"]
    if "T31" in echo["theorems"] and echo["beta"] < alpha:
        raise ConfigError(f"beta: T31 needs beta >= space.alpha = {alpha:g}, got {echo['beta']:g}")
    params = _space_params(echo)
    corpus_doc = echo["corpus"]
    verdict = echo["verdict"]

    def corpus() -> Iterator[tuple[Sequence, SpaceParams]]:
        """The seeded draws, then the constructions, made one at a time as the run asks."""
        rng = np.random.default_rng(corpus_doc["seed"])
        horizon = params.schedule.last_index + params.m_max
        for _ in range(corpus_doc["size"]):
            try:
                x = random_bounded_sequence(
                    rng,
                    horizon,
                    corpus_doc["center"],
                    corpus_doc["radius"],
                    corpus_doc["exception_density"],
                    corpus_doc["exception_scale"],
                )
            except ValueError as exc:
                raise ConfigError(f"corpus: {exc}") from exc
            yield x, params
        for theorem, builder in (("thm37", build_thm37), ("thm38", build_thm38)):
            if corpus_doc[f"include_{theorem}"]:
                spec = CounterexampleSpec(theorem=theorem, r_max=corpus_doc["construction_r_max"])
                x_c, _, p_c = builder(spec)
                yield x_c, p_c

    report = run_inclusion_matrix(
        corpus(),
        echo["theorems"],
        beta=echo["beta"],
        verdict_tol=verdict["tol"],
        tail_window=verdict["tail_window"],
    )
    results = report.to_dict()
    _report_axioms(results, params.family)

    spaces = sorted({row["space"] for row in report.verdicts})
    by_seq: dict[str, dict[str, str]] = {}
    for row in report.verdicts:
        by_seq.setdefault(row["sequence"], {})[row["space"]] = row["decision"]
    header = ["sequence"] + spaces
    rows = [
        [sid] + [by_seq[sid].get(space, "") for space in spaces] for sid in sorted(by_seq)
    ]
    return ReportBundle(
        config=echo, results=results, membership=(header, rows)
    )


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

_HANDLERS = {
    "norms": cmd_norms,
    "classify": cmd_classify,
    "counterexample": cmd_counterexample,
    "inclusion": cmd_inclusion,
}


def load_preset(name: str) -> dict:
    path = resources.files("lacunary").joinpath("presets", f"{name}.json")
    if not path.is_file():
        raise ConfigError(f"unknown preset {name!r}")
    return parse_json(path.read_text(), f"preset {name!r}")


def _adapt_preset(doc: dict, command: str) -> dict:
    """Reshape a preset written for one command into the invoked command."""
    preset_command = doc.get("command")
    if preset_command == command:
        return doc
    if preset_command == "counterexample" and command == "classify":
        construction = {k: v for k, v in doc.items() if k in CONSTRUCTION.names}
        adapted: dict = {"command": "classify", "construction": construction}
        if "verdict" in doc:
            adapted["verdict"] = doc["verdict"]
        return adapted
    raise ConfigError(
        f"preset targets command {preset_command!r}, not usable with {command!r}"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="lacunary",
        description="Block statistics, Orlicz-family norms, and inclusion experiments "
        "over finite sequence prefixes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("norms", "modular, Luxemburg and Amemiya norms, conjugates, doubling check"),
        ("classify", "block trajectories and convergence verdicts for one sequence"),
        ("counterexample", "build a construction and check its analytic limits"),
        ("inclusion", "run a corpus through antecedent/consequent space pairs"),
    ]:
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", type=Path, help="JSON run configuration")
        sp.add_argument("--preset", type=str, help="named in-repo preset")
        sp.add_argument("--out", type=Path, default=Path("out"), help="output directory")
        sp.add_argument("--strict", action="store_true", help="exit 2 if any check fails")
        sp.add_argument("--seed", type=int, default=None, help="override the config seed")
    args = parser.parse_args(argv)

    try:
        if args.config is not None and args.preset is not None:
            raise ConfigError("give --config or --preset, not both")
        if args.config is not None:
            doc = load_config(args.config)
        elif args.preset is not None:
            doc = _adapt_preset(load_preset(args.preset), args.command)
        elif args.command == "inclusion":
            doc = {"command": "inclusion"}
        else:
            raise ConfigError(f"{args.command} needs --config or --preset")
        doc.setdefault("command", args.command)
        if doc["command"] != args.command:
            raise ConfigError(
                f"config is for command {doc['command']!r}, invoked {args.command!r}"
            )
        bundle = _HANDLERS[args.command](doc, args.seed)
        bundle.write(args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except LacunaryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    failed = bundle.failed_checks
    for check in bundle.checks:
        status = "PASS" if check["passed"] else "FAIL"
        print(f"{status} {check['name']}: observed {_fmt(check['observed'])}")
    if args.strict and failed:
        print(f"strict mode: {len(failed)} failed check(s): {', '.join(failed)}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
