"""End-to-end benchmark of the lacunary CLI, with an optional traced run.

    python3 perfbench/run.py --workload cli-mix --seed 3 --seconds 25 --trace 0

Run from the repository root.  The benchmark imports the package from
`src/` of the same checkout and drives `lacunary.cli.main(argv)` in this
process as a closed loop with one client: each op starts when the previous
one has returned.  Ops come from `workloads.py`, generated from `--seed`;
the program only sees the generated config files.  One warm-up cycle runs
first, then whole cycles of the workload's op list until `--seconds` have
passed.  Every op's outputs are checked against the stored reference
(`check.py`).

`--trace 0` reports the end-to-end metrics: set-up time (median of fresh
interpreters importing lacunary.cli), ops per busy second (see
`throughput`), median and tail latency of `main(argv)`, and peak RSS of a
CLI invocation (the largest over fresh interpreters running each op once).
`--trace 1` runs each op twice in turn, once plain and once under the
tracer (`tracer.py`), and reports per-layer times (median over cycles) and
counts (first cycle) for one cycle of the op list, plus the tracing
overhead.  Human-readable lines go first; the last line of stdout is one
JSON object with `correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
SETUP_REPEATS = 7

from check import compare, load_reference, observe  # noqa: E402
from tracer import LAYERS, Tracer, span_layer  # noqa: E402
from workloads import WORKLOADS, make_ops, variant_of  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

TRANSFORM_KINDS = ("identity", "cesaro_c1", "shift", "row_table", "row_generator")
FAMILY_KINDS = ("constant", "index_scaled", "index_power", "spike", "custom")

PER_LAYER = {
    **{f"sequences.transform_s.{k}": "s" for k in TRANSFORM_KINDS},
    "sequences.transform_calls": "count",
    "sequences.transform_rows": "count",
    "sequences.transform_dup_ratio": "ratio",
    "sequences.errors": "count",
    "convergence.density_s": "s",
    "convergence.self_s": "s",
    "convergence.uniform_s.strong": "s",
    "convergence.uniform_s.shat_density": "s",
    "convergence.uniform_calls": "count",
    "convergence.verdict_s": "s",
    "convergence.verdict_calls": "count",
    "convergence.index_windows": "computed-count",
    "convergence.bytes_computed": "computed-bytes",
    **{f"orlicz.eval_at_s.{k}": "s" for k in FAMILY_KINDS},
    "orlicz.eval_at_calls": "count",
    "orlicz.eval_at_elems": "count",
    "orlicz.modular_calls": "count",
    "orlicz.modular_s": "s",
    "orlicz.luxemburg_s": "s",
    "orlicz.amemiya_s": "s",
    "orlicz.complementary_s": "s",
    "orlicz.delta2_s": "s",
    "optimize.objective_evals": "count",
    "optimize.self_s": "s",
    "config.validate_s": "s",
    "config.validate_calls": "count",
    "config.build_s": "s",
    "config.load_s": "s",
    "cli.self_s": "s",
    "cli.write_s": "s",
    "cli.bytes_written": "bytes",
    "cli.bytes_mismatch": "files",
    "cli.errors": "count",
    "experiments.self_s": "s",
    "experiments.build_s": "s",
    "experiments.block_bounds_s": "s",
    "experiments.random_sequence_s": "s",
    **{f"{layer}.warnings": "count" for layer in LAYERS},
    "trace.overhead_ratio": "ratio",
    "trace.unattributed_share": "ratio",
}

# Per-layer metrics that count work; they must repeat exactly for a seed.
# (`bytes` is left out: report.json holds a timestamp whose length can vary.)
COUNT_UNITS = ("count", "computed-count", "computed-bytes", "files")


class BenchmarkError(Exception):
    pass


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def import_cli():
    """Import lacunary.cli from this checkout's src/, never from elsewhere."""
    package = SRC / "lacunary"
    if not (package / "cli.py").is_file():
        raise BenchmarkError(f"no lacunary sources at {package}")
    sys.path.insert(0, str(SRC))
    import lacunary.cli

    if Path(lacunary.cli.__file__).resolve().parent != package.resolve():
        raise BenchmarkError(f"lacunary imported from {lacunary.cli.__file__}, not {package}")
    return lacunary.cli


def fresh_interpreter(code: str, *args: str, timeout: float = 60) -> subprocess.CompletedProcess:
    """Run `code` in a new interpreter that imports the package from src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-s", "-c", code, *args], env=env, timeout=timeout, capture_output=True, text=True
    )


def measure_setup() -> list[float]:
    """Wall times of fresh interpreters importing lacunary.cli (first run discarded)."""
    expected = str((SRC / "lacunary" / "cli.py").resolve())
    code = (
        "import os, sys, lacunary.cli; "
        f"sys.exit(os.path.realpath(lacunary.cli.__file__) != {expected!r})"
    )
    times = []
    for i in range(SETUP_REPEATS + 1):
        start = time.perf_counter()
        proc = fresh_interpreter(code)
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            raise BenchmarkError("fresh interpreter could not import lacunary.cli from src/")
        if i:
            times.append(elapsed)
    return times


def prepare(ops, work: Path) -> list[tuple[list[str], Path]]:
    """Write the generated configs; return (argv, output dir) per op."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    prepared = []
    for i, op in enumerate(ops):
        argv = [op.command]
        if op.config is not None:
            path = work / f"op{i:02d}.json"
            path.write_text(json.dumps(op.config))
            argv += ["--config", str(path)]
        out = work / f"op{i:02d}"
        prepared.append((argv + [*op.flags, "--out", str(out)], out))
    return prepared


# ---------------------------------------------------------------------------
# ops
# ---------------------------------------------------------------------------


class Outcome:
    """One op: exit status, wall time, output check, and trace if traced."""

    def __init__(self, name: str, status, seconds: float, trace=None) -> None:
        self.name = name
        self.status = status  # exit code, or the exception main() raised
        self.seconds = seconds
        self.trace = trace
        self.problems: list[str] = []
        self.bytes_mismatch = 0
        self.bytes_written = 0

    @property
    def ok(self) -> bool:
        return self.status == 0 and not self.problems

    def check(self, out: Path, stdout: str, stderr: str, reference: dict) -> None:
        if self.status != 0:
            self.problems.append(f"exit status {self.status!r}: {stderr.strip()[-300:]}")
            return
        try:
            got = observe(out, stdout)
        except (OSError, ValueError, KeyError) as exc:
            self.problems.append(f"unreadable output: {exc}")
            return
        self.problems, self.bytes_mismatch = compare(reference, got)
        self.bytes_written = sum(p.stat().st_size for p in out.iterdir())


def run_op(main, name: str, argv: list[str], out: Path, reference: dict, tracer: Tracer | None) -> Outcome:
    stdout, stderr = io.StringIO(), io.StringIO()
    trace = None
    with redirect_stdout(stdout), redirect_stderr(stderr):
        start = time.perf_counter()
        try:
            if tracer is None:
                status = main(argv)
            else:
                status, trace = tracer.run_op(main, argv)
        except (Exception, SystemExit) as exc:
            status = exc
        seconds = time.perf_counter() - start
    outcome = Outcome(name, status, seconds, trace)
    outcome.check(out, stdout.getvalue(), stderr.getvalue(), reference)
    return outcome


def run_fresh(name: str, argv: list[str], out: Path, reference: dict) -> Outcome:
    """One op as a user runs it: `lacunary ...` in a new process."""
    proc = fresh_interpreter("import sys, lacunary.cli; sys.exit(lacunary.cli.main(sys.argv[1:]))", *argv, timeout=170)
    outcome = Outcome(name, proc.returncode, 0.0)
    outcome.check(out, proc.stdout, proc.stderr, reference)
    return outcome


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with >= 10 samples beyond it.

    With fewer than 20 samples that percentile would lie at or below the
    median, so the median is reported instead (percentile 50).
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 20:
        return statistics.median(ordered), 50.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def throughput(cycles: list[list[Outcome]]) -> float:
    """Completed ops per second of busy time in a typical cycle.

    Busy time is the sum over the cycle's ops of each op's median latency,
    so a stall that hits a few ops moves it as little as it moves the
    median latency.
    """
    busy = sum(statistics.median(c[i].seconds for c in cycles) for i in range(len(cycles[0])))
    completed = sum(o.ok for c in cycles for o in c) / len(cycles)
    return completed / busy


def cycle_layer_metrics(outcomes: list[Outcome]) -> dict[str, float]:
    """Per-layer metrics of one traced cycle of the op list."""
    total: dict[str, float] = {}
    self_by_span: dict[str, float] = {}
    counts: dict[str, int] = {}
    for o in outcomes:
        for span, v in o.trace.total_s.items():
            total[span] = total.get(span, 0.0) + v
        for span, v in o.trace.self_s.items():
            self_by_span[span] = self_by_span.get(span, 0.0) + v
        for key, v in o.trace.counts.items():
            counts[key] = counts.get(key, 0) + v

    def spans(prefix: str) -> float:
        return sum(v for k, v in total.items() if k == prefix or k.startswith(prefix + "."))

    def self_of(layer: str, prefix: str = "") -> float:
        return sum(v for k, v in self_by_span.items() if span_layer(k) == layer and k.startswith(prefix))

    calls = counts.get("sequences.transform_calls", 0)
    m = {
        **{f"sequences.transform_s.{k}": spans(f"sequences.transform.{k}") for k in TRANSFORM_KINDS},
        "sequences.transform_dup_ratio": counts.get("sequences.transform_dup_calls", 0) / calls if calls else 0.0,
        "convergence.density_s": spans("convergence.density"),
        "convergence.self_s": self_of("convergence", "convergence.uniform."),
        "convergence.uniform_s.strong": spans("convergence.uniform.strong"),
        "convergence.uniform_s.shat_density": spans("convergence.uniform.shat_density"),
        "convergence.verdict_s": spans("convergence.verdict"),
        **{f"orlicz.eval_at_s.{k}": spans(f"orlicz.eval_at.{k}") for k in FAMILY_KINDS},
        "orlicz.modular_s": spans("orlicz.modular"),
        "orlicz.luxemburg_s": spans("orlicz.luxemburg"),
        "orlicz.amemiya_s": spans("orlicz.amemiya"),
        "orlicz.complementary_s": spans("orlicz.complementary"),
        "orlicz.delta2_s": spans("orlicz.delta2"),
        "optimize.self_s": self_of("optimize"),
        "config.validate_s": spans("config.validate"),
        "config.build_s": spans("config.build"),
        "config.load_s": spans("config.load"),
        "cli.self_s": self_by_span.get("cli.main", 0.0),
        "cli.write_s": spans("cli.write"),
        "cli.bytes_written": sum(o.bytes_written for o in outcomes),
        "cli.bytes_mismatch": sum(o.bytes_mismatch for o in outcomes),
        "cli.errors": sum(o.status != 0 for o in outcomes),
        "experiments.self_s": self_of("experiments"),
        "experiments.build_s": spans("experiments.build"),
        "experiments.block_bounds_s": spans("experiments.block_bounds"),
        "experiments.random_sequence_s": spans("experiments.random_sequence"),
    }
    for name in PER_LAYER:
        if name not in m and not name.startswith("trace."):
            m[name] = counts.get(name, 0)
    return m


def unattributed_share(o: Outcome) -> float:
    """Share of an op's wall time not covered by the self times of its spans."""
    return abs(o.seconds - sum(o.trace.self_s.values())) / o.seconds


def layer_self_times(outcomes: list[Outcome]) -> dict[str, float]:
    out = {layer: 0.0 for layer in LAYERS}
    for o in outcomes:
        for span, v in o.trace.self_s.items():
            out[span_layer(span)] += v
    return out


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def measure(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    setup_times = measure_setup()
    cli = import_cli()
    ops = make_ops(workload, seed)
    reference = load_reference(workload, variant_of(seed), ops)
    prepared = prepare(ops, WORK / workload)
    tracer = Tracer() if traced else None

    def one(i: int, with_tracer: Tracer | None) -> Outcome:
        argv, out = prepared[i]
        if with_tracer is not None:
            with_tracer.install()
        try:
            return run_op(cli.main, ops[i].name, argv, out, reference[ops[i].name], with_tracer)
        finally:
            if with_tracer is not None:
                with_tracer.uninstall()

    # Peak RSS is taken from fresh processes: in this long-lived process it
    # depends on the heap's history (which freed blocks glibc kept), and
    # varied by several percent between identical runs.
    fresh = [run_fresh(op.name, argv, out, reference[op.name]) for op, (argv, out) in zip(ops, prepared)]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    warm_up = [one(i, None) for i in range(len(ops))]
    plain_cycles: list[list[Outcome]] = []
    traced_cycles: list[list[Outcome]] = []
    start = time.perf_counter()
    while not plain_cycles or time.perf_counter() - start < seconds:
        plain, cycle = [], []
        for i in range(len(ops)):
            plain.append(one(i, None))
            if traced:
                cycle.append(one(i, tracer))
        plain_cycles.append(plain)
        if traced:
            traced_cycles.append(cycle)
    elapsed = time.perf_counter() - start
    checked = fresh + warm_up + [o for c in plain_cycles + traced_cycles for o in c]

    latencies = [o.seconds for c in plain_cycles for o in c]
    tail_value, tail_pct = tail(latencies)
    result = {
        "workload": workload,
        "seed": seed,
        "variant": variant_of(seed),
        "elapsed_s": elapsed,
        "cycles": len(plain_cycles),
        "ops_per_cycle": len(ops),
        "checked": checked,
        "setup_times": setup_times,
        "e2e": {
            "setup_s": statistics.median(setup_times),
            "ops_per_s": throughput(plain_cycles),
            "latency_p50_ms": 1e3 * statistics.median(latencies),
            "latency_tail_ms": 1e3 * tail_value,
            "peak_rss_mb": peak_rss_mb,
        },
        "tail_percentile": tail_pct,
        "samples": len(latencies),
    }
    if traced:
        per_cycle = [cycle_layer_metrics(c) for c in traced_cycles]
        layer = {}
        for name, unit in PER_LAYER.items():
            if name.startswith("trace."):
                continue
            values = [c[name] for c in per_cycle]
            layer[name] = values[0] if unit in COUNT_UNITS else statistics.median(values)
        traced_ops = [o for c in traced_cycles for o in c]
        traced_p50 = statistics.median(o.seconds for o in traced_ops)
        layer["trace.overhead_ratio"] = traced_p50 / statistics.median(latencies)
        layer["trace.unattributed_share"] = max(unattributed_share(o) for o in traced_ops)
        result["layer"] = layer
        result["traced_p50_ms"] = 1e3 * traced_p50
        result["count_drift"] = sorted(
            name for name, unit in PER_LAYER.items()
            if unit in COUNT_UNITS and len({c[name] for c in per_cycle}) > 1
        )
        result["layer_self_s"] = layer_self_times(traced_cycles[0])
        result["unwrapped"] = tracer.missing
        result["cycle0_wall_s"] = sum(o.seconds for o in traced_cycles[0])
    return result


def report(r: dict, traced: bool) -> dict:
    checked = r["checked"]
    failed = [o for o in checked if not o.ok]
    e2e = r["e2e"]
    lines = [
        f"workload {r['workload']}  seed {r['seed']} (input set {r['variant']})  "
        f"{r['samples']} timed ops in {r['cycles']} cycles of {r['ops_per_cycle']}  {r['elapsed_s']:.1f} s",
        f"setup_s          {e2e['setup_s']:.4f} s    median of {len(r['setup_times'])} fresh imports of lacunary.cli",
        f"ops_per_s        {e2e['ops_per_s']:.4f} 1/s",
        f"latency_p50_ms   {e2e['latency_p50_ms']:.3f} ms",
        f"latency_tail_ms  {e2e['latency_tail_ms']:.3f} ms  p{r['tail_percentile']:.1f} of {r['samples']} samples",
        f"peak_rss_mb      {e2e['peak_rss_mb']:.1f} MB   largest of fresh `lacunary` processes running each op once",
        f"fail_ratio       {len(failed) / len(checked):.4f} ratio  ({len(failed)} of {len(checked)} checked ops)",
        f"bytes_mismatch   {sum(o.bytes_mismatch for o in checked)} files differ from the reference bytes",
    ]
    for o in failed[:5]:
        lines.append(f"FAILED {o.name}: {'; '.join(o.problems[:3])}")
    if traced:
        layer = r["layer"]
        lines.append(
            f"tracing overhead: traced p50 {r['traced_p50_ms']:.3f} ms vs untraced "
            f"{e2e['latency_p50_ms']:.3f} ms (x{layer['trace.overhead_ratio']:.3f}); "
            f"unattributed share <= {layer['trace.unattributed_share']:.2e}"
        )
        shares = ", ".join(f"{k} {v:.4f}" for k, v in r["layer_self_s"].items())
        lines.append(f"self time by layer, first traced cycle ({r['cycle0_wall_s']:.4f} s): {shares}")
        if r["unwrapped"]:
            lines.append(f"not traced (name not found): {', '.join(r['unwrapped'])}")
        if r["count_drift"]:
            lines.append(f"counts differed between traced cycles: {', '.join(r['count_drift'])}")
        for name in PER_LAYER:
            lines.append(f"  {name:40s} {layer[name]:.6g} {PER_LAYER[name]}")
    print("\n".join(lines))

    units = PER_LAYER if traced else END_TO_END
    values = r["layer"] if traced else e2e
    return {
        "correct": not failed,
        "attempted": len(checked),
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    try:
        r = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchmarkError, OSError, RuntimeError, subprocess.SubprocessError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(report(r, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
