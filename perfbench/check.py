"""Output check of every op against reference outputs stored with the benchmark.

An op's observation holds, for its output directory:

* the sha256 of every output file and of the captured stdout, with the
  `timestamp` line of report.json removed (the only part that may change
  between identical runs);
* the `results` and `checks` trees of report.json;
* the text of every CSV file.

An op passes when every verdict decision, check outcome and other string
or boolean equals the reference and every number (report values and CSV
cells) agrees within RTOL relative / ATOL absolute.  A file whose bytes differ
from the reference is counted separately as a byte mismatch, not as a
failure.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import math
import re
from pathlib import Path

RTOL = 1e-9
ATOL = 1e-12

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

_TIMESTAMP_LINE = re.compile(rb'^  "timestamp": .*\n', re.MULTILINE)


def config_digest(op) -> str:
    doc = {"command": op.command, "config": op.config, "flags": list(op.flags)}
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def observe(out_dir: Path, stdout: str) -> dict:
    """Everything the check compares, read from one op's outputs."""
    digests = {"<stdout>": hashlib.sha256(stdout.encode()).hexdigest()}
    csv = {}
    report = None
    for path in sorted(out_dir.iterdir()):
        data = path.read_bytes()
        if path.name == "report.json":
            report = json.loads(data)
            data = _TIMESTAMP_LINE.sub(b"", data, count=1)
        elif path.suffix == ".csv":
            csv[path.name] = data.decode()
        digests[path.name] = hashlib.sha256(data).hexdigest()
    if report is None:
        raise FileNotFoundError(f"{out_dir}/report.json not written")
    return {"sha256": digests, "results": report["results"], "checks": report["checks"], "csv": csv}


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _close(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b or abs(a - b) <= ATOL + RTOL * max(abs(a), abs(b))


def _diff_tree(ref, got, path: str, out: list[str]) -> None:
    if isinstance(ref, dict) and isinstance(got, dict):
        if ref.keys() != got.keys():
            out.append(f"{path}: keys {sorted(ref)} != {sorted(got)}")
            return
        for key in ref:
            _diff_tree(ref[key], got[key], f"{path}.{key}", out)
    elif isinstance(ref, list) and isinstance(got, list):
        if len(ref) != len(got):
            out.append(f"{path}: length {len(ref)} != {len(got)}")
            return
        for i, (a, b) in enumerate(zip(ref, got)):
            _diff_tree(a, b, f"{path}[{i}]", out)
    elif _is_number(ref) and _is_number(got):
        if not _close(float(ref), float(got)):
            out.append(f"{path}: {got!r} != reference {ref!r}")
    elif type(ref) is not type(got) or ref != got:
        out.append(f"{path}: {got!r} != reference {ref!r}")


def _csv_cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _diff_csv(name: str, ref: str, got: str, out: list[str]) -> None:
    ref_rows = [line.split(",") for line in ref.splitlines()]
    got_rows = [line.split(",") for line in got.splitlines()]
    if len(ref_rows) != len(got_rows):
        out.append(f"{name}: {len(got_rows)} lines != reference {len(ref_rows)}")
        return
    for i, (ref_row, got_row) in enumerate(zip(ref_rows, got_rows), start=1):
        _diff_tree([_csv_cell(c) for c in ref_row], [_csv_cell(c) for c in got_row], f"{name}:{i}", out)


def compare(ref: dict, got: dict) -> tuple[list[str], int]:
    """(semantic differences, number of files whose bytes differ)."""
    problems: list[str] = []
    _diff_tree(ref["results"], got["results"], "results", problems)
    _diff_tree(ref["checks"], got["checks"], "checks", problems)
    if ref["csv"].keys() != got["csv"].keys():
        problems.append(f"csv files {sorted(got['csv'])} != reference {sorted(ref['csv'])}")
    else:
        for name in ref["csv"]:
            _diff_csv(name, ref["csv"][name], got["csv"][name], problems)
    names = ref["sha256"].keys() | got["sha256"].keys()
    mismatched = sum(ref["sha256"].get(n) != got["sha256"].get(n) for n in names)
    return problems, mismatched


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json.gz"


def load_reference(workload: str, variant: int, ops) -> dict[str, dict]:
    """Reference observations for the ops of one variant, keyed by op name."""
    with gzip.open(reference_path(workload), "rt") as fh:
        entries = json.load(fh)["variants"][str(variant)]
    for op in ops:
        if entries.get(op.name, {}).get("config_sha256") != config_digest(op):
            raise RuntimeError(
                f"reference for {workload}/{variant}/{op.name} does not match the generated "
                "config; regenerate it with perfbench/make_reference.py"
            )
    return entries


def save_reference(workload: str, variants: dict[str, dict]) -> None:
    REFERENCE_DIR.mkdir(exist_ok=True)
    text = json.dumps({"rtol": RTOL, "atol": ATOL, "variants": variants}, sort_keys=True, indent=0)
    reference_path(workload).write_bytes(gzip.compress(text.encode(), mtime=0))
