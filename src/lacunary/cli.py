"""Config-driven command line: norms, classify, counterexample, inclusion.

Every command reads a strict JSON config (or a named preset), echoes the
fully-defaulted config into `<out>/report.json`, and writes plot-ready
trajectory CSVs with header `r,m,value` (per-m rows first, then one row
per block with m = "sup").  Floats are printed at 12 significant digits so
identical configs reproduce identical bytes; the timestamp lives only in
report.json.

report.json is written by one streaming encoder in a single walk: it
rounds each float as it writes it, writes +-inf as "inf"/"-inf", and
gives the same bytes as `json.dump(..., indent=2, sort_keys=True,
allow_nan=False)` of the rounded tree, without building that tree or the
whole text.  Dicts and lists are written item by item.  An echoed array
of numbers (`Numbers`, the config's one value per number array) is
written straight from its flat columns, 256 items at a time: each chunk
is one `%` of a template that holds its brackets and indentation, one
per row length, with its floats formatted in bulk a column at a time and
its ints by `%d`.

Exit codes: 0 when all requested computations completed (math PASS/FAIL
lands in the report), 1 on config or computation errors or an output that
cannot be written, 2 under --strict when any reported check failed.
"""

from __future__ import annotations

import argparse
import datetime
import math
import re
import sys
from dataclasses import dataclass, field
from importlib import resources
from itertools import accumulate
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Any, Iterator, TextIO

import numpy as np

from . import __version__
from .config import (
    CONSTRUCTION,
    FAMILY,
    MATRIX,
    RHO,
    Numbers,
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
from .experiments import random_bounded_sequence, run_inclusion_matrix
from .orlicz import (
    PrefixNorms,
    complementary,
    delta2_check,
)
from .sequences import Sequence, build_lacunary


def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


def _float_json(x: float) -> str:
    """A float at 12 significant digits; +-inf as the strings "inf"/"-inf", NaN refused."""
    text = _fmt(x)
    if text in ("inf", "-inf"):
        return f'"{text}"'
    value = float(text)
    if value != value:
        raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
    return repr(value)


# the text of a value of exactly one of these types; other leaves go to _scalar_json
_EXACT = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _float_json,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
}


def _scalar_json(value: Any) -> str:
    """The text of a leaf of another type: numpy scalars and subclasses, as `json` takes them."""
    if isinstance(value, (bool, np.bool_)):  # np.bool_ is no np.integer, but check it first
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return int.__repr__(int(value))
    if isinstance(value, (float, np.floating)):
        return _float_json(value)
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _key_json(key: Any) -> str:
    """A dict key as `json` writes it: non-str keys become strings, floats unrounded."""
    if not isinstance(key, str):
        if isinstance(key, float):
            if not math.isfinite(key):
                raise ValueError(f"Out of range float values are not JSON compliant: {key!r}")
            key = float.__repr__(key)
        elif key is None or isinstance(key, bool):
            key = "null" if key is None else "true" if key else "false"
        elif isinstance(key, int):
            key = int.__repr__(key)
        else:
            raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")
    return encode_basestring_ascii(key)


# A `.12g` text and the repr of the float it parses to have the same digits unless that
# float is subnormal, and the same layout except that repr adds ".0" to a whole number and
# writes exponents 12 to 15 in full.  _SHORT_REPR finds the texts that need repr itself.
_SHORT_REPR = re.compile(r"e\+1[2-5]$|e-3(?:0[89]|[12])", re.MULTILINE)
_WHOLE = re.compile(r"^(-?\d+)$", re.MULTILINE)


def _float_texts(values: list[float]) -> list[str]:
    """`_float_json` of each of `values`, finite floats, without a Python step per float."""
    if not values:
        return []
    text = "\n".join(["%.12g"] * len(values)) % tuple(values)
    if _SHORT_REPR.search(text):
        return list(map(float.__repr__, map(float, text.split("\n"))))
    if text.count(".") < len(values):  # a text without a point may be a whole number
        text = _WHOLE.sub(r"\1.0", text)
    return text.split("\n")


def _numbers_texts(array: Numbers, indent: str) -> Iterator[str]:
    """The items at `indent` of an echoed array, `_CHUNK` at a time, each chunk joined by commas.

    A chunk is one `%` of a template that holds its brackets and indentation,
    made from one template per row length: an int is written by `%d`, and
    the floats of a column are formatted in bulk (`_float_texts`).
    """

    def wrap(parts: list[str], at: str) -> str:  # a list whose brackets sit at indent `at`
        return f"[\n{at}  " + f",\n{at}  ".join(parts) + f"\n{at}]" if parts else "[]"

    width = len(array.columns)
    slots = ["%s" if column.dtype == np.float64 else "%d" for column in array.columns]
    leaf = slots[0] if width == 1 else wrap(slots, indent + "  " * len(array.lengths))
    rows = array.lengths[0].tolist() if array.lengths else None
    starts = list(accumulate(rows, initial=0)) if rows is not None else None  # where each row's leaves start
    by_length: dict[int, str] = {}
    for first in range(0, len(array), _CHUNK):
        last = min(first + _CHUNK, len(array))
        if rows is None:
            lo, hi, items = first, last, [leaf] * (last - first)
        else:
            lo, hi = starts[first], starts[last]
            for n in set(rows[first:last]) - by_length.keys():
                by_length[n] = wrap([leaf] * n, indent)
            items = list(map(by_length.__getitem__, rows[first:last]))
        leaves = [None] * ((hi - lo) * width)
        for j, column in enumerate(array.columns):
            part = column[lo:hi]
            if part.dtype != np.float64:
                leaves[j::width] = part.tolist()
            elif np.isfinite(part).all():
                leaves[j::width] = _float_texts(part.tolist())
            else:
                leaves[j::width] = list(map(_float_json, part.tolist()))
        yield f",\n{indent}".join(items) % tuple(leaves)


_CHUNK = 256  # items of an echoed array written by one template
_FLUSH_PARTS = 2048  # pieces of text gathered before they are written


def _write_json(obj: Any, fh: TextIO) -> None:
    """Write `obj` to `fh` in one walk, as `json.dump(obj, fh, indent=2, sort_keys=True,
    allow_nan=False)` would write `obj` with every float at 12 significant digits.

    Tuples are written as lists, and an echoed array of numbers (`Numbers`)
    as the nested lists it stands for, a chunk of items at a time.  Text is
    gathered in pieces and written whenever `_FLUSH_PARTS` have gathered, so
    a large report is never held whole.
    """
    parts: list[str] = []
    append = parts.append

    def flush(least: int = _FLUSH_PARTS) -> None:
        if len(parts) >= least:
            fh.write("".join(parts))
            parts.clear()

    def encode(value: Any, indent: str) -> None:
        text = _EXACT.get(type(value))
        inner = indent + "  "
        if text is not None:
            append(text(value))
        elif isinstance(value, dict):
            sep = "{\n" + inner
            for key, item in sorted(value.items()):
                append(f"{sep}{_key_json(key)}: ")
                encode(item, inner)
                sep = ",\n" + inner
                flush()
            append(f"\n{indent}}}" if value else "{}")
        elif isinstance(value, (list, tuple)):
            sep = "[\n" + inner
            for item in value:
                append(sep)
                encode(item, inner)
                sep = ",\n" + inner
                flush()
            append(f"\n{indent}]" if value else "[]")
        elif isinstance(value, Numbers):
            sep = "[\n" + inner
            for chunk in _numbers_texts(value, inner):
                append(sep + chunk)
                sep = ",\n" + inner
                flush(1)
            append(f"\n{indent}]" if len(value) else "[]")
        else:
            append(_scalar_json(value))

    encode(obj, "")
    flush(1)


def _verdict_dict(v: Verdict) -> dict:
    return {
        "decision": v.decision,
        "tail_mean": v.tail_mean,
        "tail_window": v.tail_window,
        "tol": v.tol,
        "tail_slope": v.tail_slope,
        "slope_slack": v.slope_slack,
    }


def _trajectory_csv(bundle: UniformTrajectories) -> str:
    """The trajectory CSV of a bundle: its per-m rows, then its sup rows, by one `%` template."""
    blocks = range(1, bundle.sup.size + 1)
    labels = [*map(str, range(len(bundle.per_m))), "sup"]
    template = "r,m,value\n" + "".join([f"{r},{m},%.12g\n" for m in labels for r in blocks])
    return template % (*bundle.per_m.ravel().tolist(), *bundle.sup.tolist())


@dataclass
class ReportBundle:
    """Everything one command produced, ready to be written to <out>."""

    config: dict
    results: dict
    checks: list[dict] = field(default_factory=list)
    trajectories: dict[str, UniformTrajectories] = field(default_factory=dict)
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
            "config": self.config,
            "results": self.results,
            "checks": self.checks,
        }
        with open(out_dir / "report.json", "w") as fh:
            _write_json(report, fh)
            fh.write("\n")
        texts = {f"{name}.csv": _trajectory_csv(t) for name, t in self.trajectories.items()}
        if self.membership is not None:
            header, rows = self.membership
            texts["membership.csv"] = "".join(",".join(row) + "\n" for row in [header, *rows])
        for name, text in texts.items():
            with open(out_dir / name, "w") as fh:
                fh.write(text)


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
    norms = PrefixNorms(family, x)
    lux, orl = norms.luxemburg(echo["luxemburg_tol"]), norms.amemiya(echo["orlicz_tol"])
    results: dict = {
        "horizon": x.horizon,
        "modular": norms.modular(rho),
        "luxemburg_norm": lux,
        "orlicz_norm": {"value": orl.value, "at_boundary": orl.at_boundary},
    }
    if "complementary" in echo:
        comp = echo["complementary"]
        samples = []
        for k in comp["indices"].tolist():
            for v in comp["v_values"].tolist():
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
    return ReportBundle(config=echo, results=results)


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
    x, params = CONSTRUCTION.build(echo)
    echo["m_max"] = params.m_max
    return x, params


def _block_run(
    echo: dict, x: Sequence, params: SpaceParams, flag_mode: str
) -> tuple[ReportBundle, UniformTrajectories, UniformTrajectories, Verdict]:
    """One engine run of x in one space: the report, trajectories and verdicts that classify
    and counterexample share; also returns the strong and density bundles and the density
    verdict, for the construction checks."""
    stats = BlockEngine([(params, (STRONG, flag_mode))])(x)[0]
    strong, shat = stats[STRONG], stats[flag_mode]
    v_strong = classify_trajectory(strong.sup, **echo["verdict"])
    v_shat = classify_trajectory(shat.sup, **echo["verdict"])
    results = {
        "horizon": x.horizon,
        "num_blocks": params.schedule.num_blocks,
        "last_index": params.schedule.last_index,
        "m_max": params.m_max,
        "epsilon": params.epsilon,
        "flag_mode": flag_mode,
        "verdicts": {STRONG: _verdict_dict(v_strong), SHAT_DENSITY: _verdict_dict(v_shat)},
    }
    bundle = ReportBundle(
        config=echo,
        results=results,
        trajectories={"trajectory": strong, "trajectory_shat": shat},
    )
    return bundle, strong, shat, v_shat


def cmd_classify(doc: dict, seed: int | None = None) -> ReportBundle:
    validate_config(doc, "classify")
    echo = materialize(doc, "classify", seed)
    if "construction" in echo:
        x, params = _construct(echo["construction"])
    else:
        x = SEQUENCE.build(echo["sequence"])
        params = _space_params(echo)

    bundle = _block_run(echo, x, params, echo["flag_mode"])[0]
    bundle.results["schedule_warnings"] = list(params.schedule.warnings)
    return bundle


def _check(name: str, observed: float, target: float, tolerance: float, passed: bool) -> dict:
    return {
        "name": name,
        "observed": observed,
        "target": target,
        "tolerance": tolerance,
        "passed": bool(passed),
    }


def _thm37_checks(
    checks: dict, strong: UniformTrajectories, v_shat: Verdict
) -> list[dict]:
    target, tol = checks["shat_tail_target"], checks["shat_tail_tol"]
    gap = abs(v_shat.tail_mean - target)
    r0 = checks["strong_bound_min_r"]
    vals = strong.sup
    scaled = [vals[r - 1] * 2.0**r for r in range(r0, len(vals) + 1)]
    worst = max(scaled) if scaled else 0.0
    coeff = checks["strong_bound_coeff"]
    return [
        _check("shat_tail_near_half", v_shat.tail_mean, target, tol, gap <= tol),
        _check("strong_dominated_by_two_pow_minus_r", worst, coeff, 0.0, worst <= coeff),
    ]


def _thm38_checks(
    checks: dict, strong: UniformTrajectories, shat: UniformTrajectories, params: SpaceParams
) -> list[dict]:
    h_alpha = params.schedule.block_lengths.astype(np.float64) ** params.alpha
    expected = 1.0 / h_alpha
    observed = shat.per_m[0]
    worst_gap = float(np.max(np.abs(observed - expected)))
    r0 = checks["shat_density_min_r"]
    tail_max = float(np.max(observed[r0 - 1 :])) if r0 <= observed.size else 0.0
    strong_min = float(np.min(strong.sup))
    exact, most, least = checks["shat_exact_tol"], checks["shat_density_max"], checks["strong_min"]
    return [
        _check("shat_density_equals_one_over_h_alpha", worst_gap, 0.0, exact, worst_gap <= exact),
        _check("shat_density_small_tail", tail_max, most, 0.0, tail_max <= most),
        _check("strong_at_least_one", strong_min, least, 0.0, strong_min >= least),
    ]


def cmd_counterexample(doc: dict, seed: int | None = None) -> ReportBundle:
    validate_config(doc, "counterexample")
    echo = materialize(doc, "counterexample", seed)
    x, params = _construct(echo)
    bundle, strong, shat, v_shat = _block_run(echo, x, params, MODULAR_FLAGS)
    if echo["theorem"] == "thm37":
        bundle.checks = _thm37_checks(echo["checks"], strong, v_shat)
        expected = {
            "strong": "block values dominated by 2**-(r-1), tending to 0",
            "shat_density": "tail at 1/2",
        }
        note = (
            "witness direction: summed statistic vanishes while the exception "
            "density stays at 1/2, so density membership fails"
        )
    else:
        bundle.checks = _thm38_checks(echo["checks"], strong, shat, params)
        expected = {
            "strong": "every block value at least 1",
            "shat_density": "block values 1/h_r**alpha, tending to 0",
        }
        note = (
            "witness direction: the summed statistic never drops below 1, a "
            "non-membership certificate for the summed class even though the "
            "exception density vanishes"
        )
    bundle.results.update(
        cut_points=list(params.schedule.cut_points), expected_limits=expected, notes=[note]
    )
    return bundle


def cmd_inclusion(doc: dict, seed: int | None = None) -> ReportBundle:
    validate_config(doc, "inclusion")
    echo = materialize(doc, "inclusion", seed)
    alpha = echo["space"]["alpha"]
    if "T31" in echo["theorems"] and echo["beta"] < alpha:
        raise ConfigError(f"beta: T31 needs beta >= space.alpha = {alpha:g}, got {echo['beta']:g}")
    params = _space_params(echo)
    corpus_doc = echo["corpus"]

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
        for theorem in CONSTRUCTION.kinds:
            if corpus_doc[f"include_{theorem}"]:
                yield CONSTRUCTION.build({"theorem": theorem, "r_max": corpus_doc["construction_r_max"]})

    report = run_inclusion_matrix(
        corpus(),
        echo["theorems"],
        beta=echo["beta"],
        verdict=echo["verdict"],
    )
    results = report.to_dict()

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
        try:
            bundle.write(args.out)
        except OSError as exc:  # an --out below a file, a directory where a file goes, ...
            raise LacunaryError(f"cannot write {exc.filename or args.out}: {exc.strerror or exc}") from exc
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except LacunaryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # a size field past what memory holds
        print(f"error: out of memory: {exc}", file=sys.stderr)
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
