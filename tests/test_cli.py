"""End-to-end CLI runs: configs, presets, outputs, determinism, exit codes."""

import copy
import io
import json
import math
import os
import random
import subprocess
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import jsonschema
import numpy as np
import pytest
import reference
from hypothesis import given, settings, strategies as st
from test_config import COMMAND_COMPONENTS, _slots, documents, plain

from lacunary import ConstantFamily, Power, cli, complementary
from lacunary.cli import ReportBundle, main
from lacunary.convergence import MODULAR_FLAGS, STRONG
from lacunary.config import CLASSIFY, CLASSIFY_CONSTRUCTION, COMMANDS, _command_component, materialize
from lacunary.errors import ConfigError


def run_cli(args):
    return main([str(a) for a in args])


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def read_report(out_dir):
    with open(out_dir / "report.json") as fh:
        return json.load(fh)


def report_bytes_without_timestamp(out_dir):
    lines = (out_dir / "report.json").read_bytes().splitlines(keepends=True)
    return b"".join(ln for ln in lines if not ln.startswith(b'  "timestamp": '))


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize(
    "command,preset",
    [
        ("counterexample", "thm37-default"),
        ("counterexample", "thm38-default"),
        ("classify", "thm37-default"),
    ],
)
def test_preset_outputs_match_golden(tmp_path, command, preset):
    """The presets' outputs are the behavioural contract: byte for byte.

    The golden files under tests/golden/ were written by an earlier
    version of the tool (report.json without its timestamp line).  A
    refactor must reproduce them; do not regenerate them to make it pass.
    """
    assert run_cli([command, "--preset", preset, "--out", tmp_path]) == 0
    golden = GOLDEN / f"{command}-{preset}"
    assert report_bytes_without_timestamp(tmp_path) == (golden / "report.json").read_bytes()
    for name in ("trajectory.csv", "trajectory_shat.csv"):
        assert (tmp_path / name).read_bytes() == (golden / name).read_bytes()


# every theorem, beta != alpha, witnesses for T37 and T38, FAIL rows under T31, T33 and T36
INCLUSION_ALL_THEOREMS = {
    "command": "inclusion",
    "beta": 0.8,
    "space": {"alpha": 0.5, "m_max": 2, "epsilon": 0.3},
    "corpus": {
        "size": 5,
        "exception_density": 0.05,
        "include_thm37": True,
        "include_thm38": True,
        "construction_r_max": 14,
    },
}


def test_inclusion_outputs_match_golden(tmp_path):
    """The inclusion report and membership table, byte for byte.

    The golden files under tests/golden/inclusion-all-theorems/ were
    written by the version before the theorem table drove the run; do not
    regenerate them to make a refactor pass.
    """
    cfg = write_config(tmp_path, INCLUSION_ALL_THEOREMS)
    out = tmp_path / "out"
    assert run_cli(["inclusion", "--config", cfg, "--out", out]) == 0
    golden = GOLDEN / "inclusion-all-theorems"
    assert report_bytes_without_timestamp(out) == (golden / "report.json").read_bytes()
    assert (out / "membership.csv").read_bytes() == (golden / "membership.csv").read_bytes()


def test_inclusion_verdicts_honour_the_slope_slack(tmp_path):
    """The verdict section reaches every inclusion verdict whole, slope_slack included: a
    corpus of near-zero draws converges, and a negative slack makes the same tails
    Inconclusive, as it does for classify."""
    doc = {"command": "inclusion", "theorems": ["T31"], "corpus": {"size": 2, "radius": 1e-9}}
    decisions = {}
    for slack in (None, -1.0):
        out = tmp_path / f"out-{slack}"
        cfg = write_config(tmp_path, {**doc, "verdict": {"slope_slack": slack}}, f"{slack}.json")
        assert run_cli(["inclusion", "--config", cfg, "--out", out]) == 0
        report = read_report(out)
        assert report["config"]["verdict"]["slope_slack"] == slack
        decisions[slack] = {row["decision"] for row in report["results"]["verdicts"]}
    assert decisions == {None: {"ConvergesToZero"}, -1.0: {"Inconclusive"}}


def _norms_golden_config(family):
    return {
        "command": "norms",
        "sequence": {
            "kind": "random_bounded", "horizon": 1000, "radius": 1.0,
            "exception_density": 0.01, "exception_scale": 3.0, "seed": 20150,
        },
        "family": family,
        "complementary": {"indices": [1, 2, 3], "v_values": [0.5, 1.0, 2.0], "u_max": 1e3},
        "delta2": {"a": 1.0, "k_max": 8},
    }


NORMS_GOLDEN = {
    "norms-constant-power": _norms_golden_config({"kind": "constant", "function": {"kind": "power", "p": 2.5}}),
    "norms-custom": _norms_golden_config({
        "kind": "custom",
        "functions": [
            {"kind": "table", "knots": [[0.0, 0.0], [1.0, 1.5], [2.0, 4.5]]},
            {"kind": "scaled_power", "p": 2.0, "c": 0.75},
            {"kind": "power_over_p", "p": 3.0},
            {"kind": "power", "p": 2.5},
        ],
    }),
}


@pytest.mark.parametrize("name", sorted(NORMS_GOLDEN))
def test_norms_outputs_match_golden(tmp_path, name):
    """The norms report (modular, both norms, conjugates, doubling constant), byte for byte.

    The golden files under tests/golden/norms-*/ were written by the version
    in which each norm search bound the family and bracketed the prefix on
    its own; do not regenerate them to make a refactor pass.
    """
    cfg = write_config(tmp_path, NORMS_GOLDEN[name])
    out = tmp_path / "out"
    assert run_cli(["norms", "--config", cfg, "--out", out]) == 0
    assert report_bytes_without_timestamp(out) == (GOLDEN / name / "report.json").read_bytes()


class TestNorms:
    def test_ell2_closed_form(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "command": "norms",
                "sequence": {"kind": "explicit", "values": [3.0, 4.0]},
                "family": {"kind": "constant", "function": {"kind": "power", "p": 2.0}},
            },
        )
        assert run_cli(["norms", "--config", cfg, "--out", tmp_path / "out"]) == 0
        rep = read_report(tmp_path / "out")
        assert rep["results"]["luxemburg_norm"] == pytest.approx(5.0, abs=1e-9)
        assert rep["results"]["horizon"] == 2

    def test_ell1_closed_form(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "command": "norms",
                "sequence": {"kind": "explicit", "values": [1.0, 2.0, 3.0]},
                "family": {"kind": "constant", "function": {"kind": "power", "p": 1.0}},
            },
        )
        assert run_cli(["norms", "--config", cfg, "--out", tmp_path / "out"]) == 0
        rep = read_report(tmp_path / "out")
        assert rep["results"]["luxemburg_norm"] == pytest.approx(6.0, abs=1e-9)

    def test_zero_sequence_all_norms_zero(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "command": "norms",
                "sequence": {"kind": "constant", "value": 0.0, "horizon": 5},
                "family": {"kind": "constant", "function": {"kind": "power", "p": 2.0}},
            },
        )
        assert run_cli(["norms", "--config", cfg, "--out", tmp_path / "out"]) == 0
        res = read_report(tmp_path / "out")["results"]
        assert res["modular"] == 0.0
        assert res["luxemburg_norm"] == 0.0
        assert res["orlicz_norm"]["value"] == 0.0

    def test_optional_sections(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "command": "norms",
                "sequence": {"kind": "explicit", "values": [1.0]},
                "family": {"kind": "constant", "function": {"kind": "power_over_p", "p": 2.0}},
                "complementary": {"indices": [1], "v_values": [3.0]},
                "delta2": {"a": 1.0, "k_max": 16},
            },
        )
        assert run_cli(["norms", "--config", cfg, "--out", tmp_path / "out"]) == 0
        res = read_report(tmp_path / "out")["results"]
        assert res["complementary"][0]["value"] == pytest.approx(4.5, abs=1e-6)
        assert res["delta2"]["held"]

    @pytest.mark.parametrize(
        "knots,failures",
        [
            ([[0, 0], [1, 5], [2, 5.5]], ["function: knot slopes must not fall, for convexity"]),
            ([[0, 0], [1, 1.5], [2, 4.5]], None),
        ],
    )
    def test_table_axiom_failures_reported(self, tmp_path, capsys, knots, failures):
        """A table that breaks an Orlicz axiom is a config error naming the member, before any
        number is computed; a table that keeps them runs."""
        cfg = write_config(
            tmp_path,
            {
                "command": "norms",
                "sequence": {"kind": "explicit", "values": [0.5, 1.0]},
                "family": {"kind": "constant", "function": {"kind": "table", "knots": knots}},
            },
        )
        code = run_cli(["norms", "--config", cfg, "--out", tmp_path / "out"])
        if failures:
            assert code == 1
            assert capsys.readouterr().err == f"config error: {failures[0]}\n"
            assert not (tmp_path / "out").exists()
        else:
            assert code == 0
            assert "axiom_failures" not in read_report(tmp_path / "out")["results"]


BASE_CLASSIFY = {
    "command": "classify",
    "sequence": {"kind": "constant", "value": 2.0, "horizon": 300},
    "family": {"kind": "constant", "function": {"kind": "power", "p": 2.0}},
    "schedule": {"kind": "geometric", "base": 1.0, "ratio": 2.0, "count": 8},
    "space": {"L": 2.0, "m_max": 4},
}


class TestClassify:
    def test_constant_at_limit(self, tmp_path):
        cfg = write_config(tmp_path, BASE_CLASSIFY)
        assert run_cli(["classify", "--config", cfg, "--out", tmp_path / "out"]) == 0
        rep = read_report(tmp_path / "out")
        verdicts = rep["results"]["verdicts"]
        assert verdicts["strong"]["decision"] == "ConvergesToZero"
        assert verdicts["shat_density"]["decision"] == "ConvergesToZero"

    def test_trajectory_row_counts(self, tmp_path):
        cfg = write_config(tmp_path, BASE_CLASSIFY)
        run_cli(["classify", "--config", cfg, "--out", tmp_path / "out"])
        for name in ("trajectory.csv", "trajectory_shat.csv"):
            lines = (tmp_path / "out" / name).read_text().splitlines()
            assert lines[0] == "r,m,value"
            R, m_max = 8, 4
            assert len(lines) - 1 == R * (m_max + 1) + R
            sup_rows = [ln for ln in lines[1:] if ln.split(",")[1] == "sup"]
            assert len(sup_rows) == R

    def test_preset_adapts_to_classify(self, tmp_path):
        assert run_cli(
            ["classify", "--preset", "thm37-default", "--out", tmp_path / "out"]
        ) == 0
        verdicts = read_report(tmp_path / "out")["results"]["verdicts"]
        assert verdicts["strong"]["decision"] == "ConvergesToZero"
        assert verdicts["shat_density"]["decision"] == "DoesNotConverge"

    def test_cesaro_alternating_strongly_summable(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "command": "classify",
                "sequence": {"kind": "alternating01", "horizon": 4100},
                "family": {"kind": "constant", "function": {"kind": "power", "p": 1.0}},
                "schedule": {"kind": "geometric", "base": 1.0, "ratio": 2.0, "count": 12},
                "matrix": {"kind": "cesaro_c1"},
                "space": {"L": 0.5, "m_max": 2},
            },
        )
        assert run_cli(["classify", "--config", cfg, "--out", tmp_path / "out"]) == 0
        rep = read_report(tmp_path / "out")
        assert rep["results"]["verdicts"]["strong"]["decision"] == "ConvergesToZero"

    def test_determinism_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, BASE_CLASSIFY)
        run_cli(["classify", "--config", cfg, "--out", tmp_path / "a"])
        run_cli(["classify", "--config", cfg, "--out", tmp_path / "b"])
        for name in ("trajectory.csv", "trajectory_shat.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_construction_excludes_components(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "command": "classify",
                "construction": {"theorem": "thm38", "r_max": 4},
                "schedule": {"kind": "geometric"},
            },
        )
        assert run_cli(["classify", "--config", cfg, "--out", tmp_path / "out"]) == 1


@pytest.mark.parametrize(
    "doc",
    [
        BASE_CLASSIFY,
        {**BASE_CLASSIFY, "flag_mode": "raw"},
        {"command": "classify", "construction": {"theorem": "thm38", "r_max": 6}},
        {"command": "counterexample", "theorem": "thm37", "r_max": 8},
        {"command": "counterexample", "theorem": "thm38", "r_max": 6},
    ],
    ids=["classify-modular", "classify-raw", "classify-construction", "thm37", "thm38"],
)
def test_block_run_computes_only_the_bundles_it_writes(tmp_path, monkeypatch, doc):
    """classify and counterexample write the strong trajectory and the density of one flag
    mode; their engine must ask for exactly those bundles of their one space."""
    asked = []

    class Recording(cli.BlockEngine):
        def __init__(self, reads):
            reads = list(reads)
            super().__init__(reads)
            asked.extend(set(bundles) for _, bundles in reads)

    monkeypatch.setattr(cli, "BlockEngine", Recording)
    command = doc["command"]
    assert run_cli([command, "--config", write_config(tmp_path, doc), "--out", tmp_path / "out"]) == 0
    written = {STRONG, read_report(tmp_path / "out")["results"]["flag_mode"]}
    assert written == {STRONG, doc.get("flag_mode", MODULAR_FLAGS)}
    assert asked == [written]


NEGATIVE_TABLE = {"kind": "constant", "function": {"kind": "table", "knots": [[0, 0], [1, -1]]}}
# below zero on (0, 4/7) only: the block sums of this draw stay >= 0
DIPPING_TABLE = {"kind": "constant", "function": {"kind": "table", "knots": [[0, 0], [0.5, -0.5], [1, 3]]}}


@pytest.mark.parametrize(
    "doc",
    [
        {**BASE_CLASSIFY, "family": NEGATIVE_TABLE, "space": {"m_max": 4}},
        {"command": "inclusion", "family": NEGATIVE_TABLE,
         "schedule": {"kind": "geometric", "count": 6}, "corpus": {"size": 3}},
        {"command": "classify", "family": DIPPING_TABLE, "schedule": {"kind": "geometric", "count": 6},
         "sequence": {"kind": "random_bounded", "horizon": 300, "radius": 1.0, "seed": 3},
         "space": {"m_max": 0}},
    ],
    ids=["classify", "inclusion", "classify-dipping"],
)
def test_negative_table_member_ends_in_an_error(tmp_path, capsys, doc):
    """A table member below zero is refused when the family is built: `config error: ...` and
    exit code 1 before any number is computed, whatever the block sums would have been."""
    command = doc["command"]
    assert run_cli([command, "--config", write_config(tmp_path, doc), "--out", tmp_path / "out"]) == 1
    assert capsys.readouterr().err.startswith(
        "config error: function: the first knot slope must be > 0 for positivity"
    )
    assert not (tmp_path / "out").exists()


class TestCounterexample:
    def test_thm37_preset_checks_pass(self, tmp_path):
        assert run_cli(
            ["counterexample", "--preset", "thm37-default", "--out", tmp_path / "out", "--strict"]
        ) == 0
        rep = read_report(tmp_path / "out")
        assert all(c["passed"] for c in rep["checks"])
        assert rep["config"]["r_max"] == 14
        assert rep["results"]["verdicts"]["shat_density"]["decision"] == "DoesNotConverge"

    def test_thm38_preset_checks_pass(self, tmp_path):
        assert run_cli(
            ["counterexample", "--preset", "thm38-default", "--out", tmp_path / "out", "--strict"]
        ) == 0
        rep = read_report(tmp_path / "out")
        names = {c["name"]: c["passed"] for c in rep["checks"]}
        assert names == {
            "shat_density_equals_one_over_h_alpha": True,
            "shat_density_small_tail": True,
            "strong_at_least_one": True,
        }
        assert rep["results"]["verdicts"]["strong"]["decision"] == "DoesNotConverge"

    def test_failing_check_sets_strict_exit(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "command": "counterexample",
                "theorem": "thm37",
                "r_max": 8,
                "checks": {"shat_tail_tol": 1e-9},
            },
        )
        assert run_cli(["counterexample", "--config", cfg, "--out", tmp_path / "a"]) == 0
        assert (
            run_cli(["counterexample", "--config", cfg, "--out", tmp_path / "b", "--strict"])
            == 2
        )

    def test_unsatisfiable_hypothesis_is_reported(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "command": "counterexample",
                "theorem": "thm37",
                "r_max": 6,
                "family": {"kind": "constant", "function": {"kind": "power", "p": 2.0}},
            },
        )
        assert run_cli(["counterexample", "--config", cfg, "--out", tmp_path / "out"]) == 1


class TestInclusion:
    def test_empty_corpus_exits_zero(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {"command": "inclusion", "corpus": {"size": 0}, "theorems": ["T31"]},
        )
        assert run_cli(["inclusion", "--config", cfg, "--out", tmp_path / "out"]) == 0
        rep = read_report(tmp_path / "out")
        assert rep["results"]["implications"] == []
        assert (tmp_path / "out" / "membership.csv").read_text() == "sequence\n"

    def test_default_run_t31_zero_fail(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {"command": "inclusion", "theorems": ["T31"], "corpus": {"size": 10}},
        )
        assert run_cli(["inclusion", "--config", cfg, "--out", tmp_path / "out", "--strict"]) == 0
        rep = read_report(tmp_path / "out")
        assert rep["results"]["theorem_results"]["T31"]["fail_rows"] == 0
        membership = (tmp_path / "out" / "membership.csv").read_text().splitlines()
        assert membership[0].startswith("sequence,")
        assert len(membership) == 11

    def test_thm37_witness_row(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "command": "inclusion",
                "theorems": ["T37"],
                "corpus": {"size": 0, "include_thm37": True},
            },
        )
        assert run_cli(["inclusion", "--config", cfg, "--out", tmp_path / "out"]) == 0
        rep = read_report(tmp_path / "out")
        assert rep["results"]["theorem_results"]["T37"]["witnesses_found"] == 1

    def test_seed_override_changes_corpus(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {"command": "inclusion", "theorems": ["T31"], "corpus": {"size": 3}},
        )
        run_cli(["inclusion", "--config", cfg, "--out", tmp_path / "a", "--seed", "1"])
        run_cli(["inclusion", "--config", cfg, "--out", tmp_path / "b", "--seed", "2"])
        rep_a = read_report(tmp_path / "a")
        rep_b = read_report(tmp_path / "b")
        assert rep_a["config"]["corpus"]["seed"] == 1
        assert rep_b["config"]["corpus"]["seed"] == 2

    def test_report_identical_apart_from_timestamp(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {"command": "inclusion", "theorems": ["T31", "T35"], "corpus": {"size": 5}},
        )
        run_cli(["inclusion", "--config", cfg, "--out", tmp_path / "a"])
        run_cli(["inclusion", "--config", cfg, "--out", tmp_path / "b"])
        rep_a, rep_b = read_report(tmp_path / "a"), read_report(tmp_path / "b")
        rep_a.pop("timestamp")
        rep_b.pop("timestamp")
        assert rep_a == rep_b
        assert (tmp_path / "a" / "membership.csv").read_bytes() == (
            tmp_path / "b" / "membership.csv"
        ).read_bytes()


class TestConfigHandling:
    def test_unknown_key_rejected(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "command": "norms",
                "sequence": {"kind": "explicit", "values": [1.0]},
                "family": {"kind": "index_scaled"},
                "surprise": 1,
            },
        )
        assert run_cli(["norms", "--config", cfg, "--out", tmp_path / "out"]) == 1

    def test_nested_unknown_key_rejected(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "command": "norms",
                "sequence": {"kind": "explicit", "values": [1.0], "bogus": True},
                "family": {"kind": "index_scaled"},
            },
        )
        assert run_cli(["norms", "--config", cfg, "--out", tmp_path / "out"]) == 1

    def test_command_mismatch(self, tmp_path):
        cfg = write_config(tmp_path, BASE_CLASSIFY)
        assert run_cli(["norms", "--config", cfg, "--out", tmp_path / "out"]) == 1

    def test_config_and_preset_together(self, tmp_path):
        cfg = write_config(tmp_path, BASE_CLASSIFY)
        code = run_cli(
            ["classify", "--config", cfg, "--preset", "thm37-default", "--out", tmp_path / "o"]
        )
        assert code == 1

    def test_missing_config_for_norms(self, tmp_path):
        assert run_cli(["norms", "--out", tmp_path / "out"]) == 1

    def test_unknown_preset(self, tmp_path):
        assert run_cli(["classify", "--preset", "nope", "--out", tmp_path / "out"]) == 1

    def test_malformed_json_reports_line(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"command": "norms",\n  broken\n}')
        assert run_cli(["norms", "--config", path, "--out", tmp_path / "out"]) == 1
        err = capsys.readouterr().err
        assert "line 2" in err

    @pytest.mark.parametrize(
        "name, reason", [("missing.json", "No such file or directory"), ("", "Is a directory")],
        ids=["missing", "directory"],
    )
    def test_unreadable_config_is_a_config_error(self, tmp_path, capsys, name, reason):
        path = tmp_path / name
        assert run_cli(["norms", "--config", path, "--out", tmp_path / "out"]) == 1
        assert capsys.readouterr().err == f"config error: {path}: {reason}\n"

    @pytest.mark.parametrize(
        "path,doc",
        [
            ("$.family.function", {**BASE_CLASSIFY, "family": {
                "kind": "constant", "function": {"kind": "power", "p": 2, "c": 5}}}),
            ("$.matrix", {**BASE_CLASSIFY, "matrix": {"kind": "identity", "decay": 0.3}}),
            ("$.sequence", {**BASE_CLASSIFY, "sequence": {
                "kind": "explicit", "values": [1], "horizon": 99}}),
            ("$.family", {**BASE_CLASSIFY, "family": {"kind": "index_scaled", "exponents": [2]}}),
            ("$.schedule", {**BASE_CLASSIFY, "schedule": {"kind": "geometric", "cut_points": [0, 5]}}),
            ("$.family.function", {**BASE_CLASSIFY, "family": {
                "kind": "constant", "function": {"kind": "table"}}}),
            ("$", {"command": "counterexample", "theorem": "thm37", "nu_values": [1.0]}),
            ("$.checks", {"command": "counterexample", "theorem": "thm37",
                          "checks": {"strong_min": 1.0}}),
            ("$.checks", {"command": "counterexample", "theorem": "thm38",
                          "checks": {"shat_tail_tol": 0.1}}),
        ],
        ids=["power-c", "identity-decay", "explicit-horizon", "index_scaled-exponents",
             "geometric-cut_points", "table-without-knots", "thm37-nu_values",
             "thm37-with-thm38-check", "thm38-with-thm37-check"],
    )
    def test_fields_of_another_kind_rejected(self, tmp_path, capsys, path, doc):
        cfg = write_config(tmp_path, doc)
        assert run_cli([doc["command"], "--config", cfg, "--out", tmp_path / "out"]) == 1
        assert capsys.readouterr().err.startswith(f"config error: config field {path}: ")

    @pytest.mark.parametrize(
        "doc",
        [
            BASE_CLASSIFY,
            {
                "command": "norms",
                "sequence": {"kind": "random_bounded", "horizon": 50, "radius": 2},
                "family": {"kind": "index_power", "exponents": [2, 3]},
                "complementary": {"indices": [1, 2]},
                "delta2": {"k_max": 8},
            },
            {"command": "classify", "construction": {"theorem": "thm37", "r_max": 8}},
            {
                "command": "counterexample",
                "theorem": "thm38",
                "r_max": 4,
                "schedule": {"kind": "explicit", "cut_points": [0, 2, 4, 8, 16]},
                "family": {"kind": "spike", "slopes": {"2": 2, "4": 1, "8": 2, "16": 2}},
            },
            {"command": "inclusion"},
        ],
        ids=["classify", "norms", "classify-construction", "counterexample-thm38", "inclusion"],
    )
    def test_echoed_config_roundtrip(self, tmp_path, doc):
        command = doc["command"]
        cfg = write_config(tmp_path, doc)
        assert run_cli([command, "--config", cfg, "--out", tmp_path / "a"]) == 0
        echoed = read_report(tmp_path / "a")["config"]
        cfg2 = write_config(tmp_path, echoed, name="echo.json")
        assert run_cli([command, "--config", cfg2, "--out", tmp_path / "b"]) == 0
        assert read_report(tmp_path / "b")["config"] == echoed
        a, b = tmp_path / "a", tmp_path / "b"
        assert report_bytes_without_timestamp(a) == report_bytes_without_timestamp(b)
        csvs = sorted(p.name for p in a.glob("*.csv"))
        assert csvs == sorted(p.name for p in b.glob("*.csv"))
        for name in csvs:
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_generated_schemas_pass_check_schema(self):
        for component in (*COMMANDS.values(), CLASSIFY_CONSTRUCTION):
            jsonschema.validators.validator_for(component.schema).check_schema(component.schema)


class TestErrorBoundary:
    """Inputs that used to end in a traceback print `error: ...` and exit 1."""

    def run_expect_error(self, tmp_path, capsys, doc, prefix):
        cfg = write_config(tmp_path, doc)
        assert run_cli([doc["command"], "--config", cfg, "--out", tmp_path / "out"]) == 1
        assert capsys.readouterr().err.startswith(prefix)

    def test_prefix_beyond_generator_bound(self, tmp_path, capsys):
        doc = {
            **BASE_CLASSIFY,
            "sequence": {"kind": "random_bounded", "horizon": 300, "radius": 2.0},
            "matrix": {"kind": "geometric_tail", "x_bound": 1.0},
        }
        self.run_expect_error(tmp_path, capsys, doc, "error: prefix exceeds the declared bound")

    def test_per_index_rho_shorter_than_schedule(self, tmp_path, capsys):
        doc = {
            **BASE_CLASSIFY,
            "space": {"L": 2.0, "m_max": 4, "rho": {"kind": "per_index", "values": [1.0, 1.0]}},
        }
        self.run_expect_error(tmp_path, capsys, doc, "config error: space: rho defined up to index 2")

    def test_per_index_rho_shorter_than_norms_sequence(self, tmp_path, capsys):
        doc = {
            "command": "norms",
            "sequence": {"kind": "explicit", "values": [0.5, 1.0, 2.0]},
            "family": {"kind": "constant", "function": {"kind": "power", "p": 2.0}},
            "rho": {"kind": "per_index", "values": [1.0]},
        }
        self.run_expect_error(
            tmp_path, capsys, doc, "config error: rho: rho defined up to index 1, the sequence needs 3"
        )

    def test_row_table_column_index_past_int64(self, tmp_path, capsys):
        doc = {**BASE_CLASSIFY, "matrix": {"kind": "row_table", "rows": [[[2**70, 1.0]]]}}
        self.run_expect_error(
            tmp_path, capsys, doc, f"config error: matrix: row 1: column index {2**70} is past int64\n"
        )

    def test_integer_literal_past_the_digit_limit(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text('{"command": "norms", "sequence": {"kind": "explicit", "values": [1%s]}}' % ("0" * 5000))
        assert run_cli(["norms", "--config", cfg, "--out", tmp_path / "out"]) == 1
        assert capsys.readouterr().err.startswith(f"config error: {cfg}: Exceeds the limit")

    def test_t31_beta_below_space_alpha(self, tmp_path, capsys):
        doc = {"command": "inclusion", "beta": 0.5, "space": {"alpha": 1.0}}
        self.run_expect_error(
            tmp_path, capsys, doc, "config error: beta: T31 needs beta >= space.alpha = 1, got 0.5"
        )

    def test_norms_prefix_too_large_for_the_luxemburg_bracket(self, tmp_path, capsys):
        doc = {
            "command": "norms",
            "sequence": {"kind": "explicit", "values": [1e303, 1.0]},
            "family": {"kind": "constant", "function": {"kind": "linear"}},
        }
        self.run_expect_error(tmp_path, capsys, doc, "error: modular stays above 1 up to rho = 2**200")

    def test_inclusion_corpus_range_not_finite(self, tmp_path, capsys):
        doc = {"command": "inclusion", "corpus": {"size": 1, "radius": 1e308, "exception_scale": 10.0}}
        self.run_expect_error(tmp_path, capsys, doc, "config error: corpus: center +/- radius must span")

    def test_random_bounded_range_not_finite(self, tmp_path, capsys):
        doc = {**BASE_CLASSIFY, "sequence": {"kind": "random_bounded", "horizon": 300, "radius": 1e308}}
        self.run_expect_error(tmp_path, capsys, doc, "config error: sequence: center +/- radius must span")

    def test_random_bounded_exceptions_not_finite(self, tmp_path, capsys):
        doc = {
            **BASE_CLASSIFY,
            "sequence": {
                "kind": "random_bounded", "horizon": 300, "radius": 1e307,
                "exception_density": 0.1, "exception_scale": 100.0,
            },
        }
        self.run_expect_error(
            tmp_path, capsys, doc, "config error: sequence: center +/- exception_scale * radius must be finite"
        )

    def test_negative_seed_override(self, tmp_path, capsys):
        assert run_cli(["inclusion", "--seed", -1, "--out", tmp_path / "out"]) == 1
        assert capsys.readouterr().err.startswith("config error: --seed must be >= 0")

    def test_thm38_schedule_with_wrong_block_count(self, tmp_path, capsys):
        doc = {
            "command": "counterexample",
            "theorem": "thm38",
            "r_max": 3,
            "schedule": {"kind": "explicit", "cut_points": [0, 2, 4]},
        }
        self.run_expect_error(
            tmp_path, capsys, doc, "config error: construction: schedule rule must produce exactly"
        )


EDGE_CLASSIFY = {
    "command": "classify",
    "sequence": {"kind": "explicit", "values": [0.5] * 8},
    "family": {"kind": "constant"},
    "schedule": {"kind": "explicit", "cut_points": [0, 2, 4]},
    "space": {"m_max": 0},
}


def _edge(section, value, **fields):
    return {**EDGE_CLASSIFY, section: {**EDGE_CLASSIFY.get(section, {}), **value}, **fields}


def _rows(first_row):
    return {"kind": "row_table", "rows": [first_row] + [[[1, 1.0]]] * 4}


TOO_BIG = "int too large to convert to float"
# the edges of the number arrays (integers past int64, past float64), each with its exit code
# and the last line on stderr
ARRAY_EDGES = {
    "cut-points-2**63": (_edge("schedule", {"cut_points": [0, 2, 2**63]}), 1,
                         "error: the last cut point is past the largest array index 2**63 - 1"),
    "cut-points-2**64": (_edge("schedule", {"cut_points": [0, 2, 2**64]}), 1,
                         "error: the last cut point is past the largest array index 2**63 - 1"),
    "row-k-2**63-1": (_edge("matrix", _rows([[2**63 - 1, 1.0]])), 1,
                      "error: at output index n=1: row 1 has support at k=9223372036854775807, horizon is 8"),
    "row-k-2**64": (_edge("matrix", _rows([[2**64, 1.0]])), 1,
                    "config error: matrix: row 1: column index 18446744073709551616 is past int64"),
    "row-coefficient-10**400": (_edge("matrix", _rows([[1, 10**400]])), 1, f"config error: matrix.rows: {TOO_BIG}"),
    "explicit-values-10**400": (_edge("sequence", {"values": [0.5] * 7 + [10**400]}), 1,
                                f"config error: sequence.values: {TOO_BIG}"),
    "per-index-rho-10**400": (
        _edge("space", {"rho": {"kind": "per_index", "values": [1.0] * 7 + [10**400]}}), 1,
        f"config error: rho.values: {TOO_BIG}"),
    "index-power-exponents-10**400": (_edge("family", {"kind": "index_power", "exponents": [2.0, 10**400]}), 1,
                                      f"config error: family.exponents: {TOO_BIG}"),
    "table-knots-10**400": (
        _edge("family", {"function": {"kind": "table", "knots": [[0, 0], [1, 10**400]]}}), 1,
        f"config error: function.knots: {TOO_BIG}"),
    "all-empty-rows": (_edge("matrix", {"kind": "row_table", "rows": [[]] * 5}), 0, ""),
}


@pytest.mark.parametrize("name", ARRAY_EDGES)
def test_number_array_edge_ends_as_pinned(tmp_path, capsys, name):
    """Integers past int64 or float64 in an array end in the exit code and message they always had."""
    doc, code, last_line = ARRAY_EDGES[name]
    cfg = write_config(tmp_path, doc)
    assert run_cli(["classify", "--config", cfg, "--out", tmp_path / "out"]) == code
    assert (capsys.readouterr().err.splitlines() or [""])[-1] == last_line


NON_FINITE_DOCS = {
    "norms": {"command": "norms", "sequence": {"kind": "explicit", "values": [1.0, 2.0]},
              "family": {"kind": "constant", "function": {"kind": "power", "p": 2.0}},
              "luxemburg_tol": None},
    "classify": {**BASE_CLASSIFY, "space": {"L": None, "m_max": 4}},
    "counterexample": {"command": "counterexample", "theorem": "thm37", "nu": None},
    "inclusion": {"command": "inclusion", "space": {"epsilon": None}},
}


def _with_value(doc, value):
    """`doc` with its one None slot set to `value`."""
    if isinstance(doc, dict):
        return {k: value if v is None else _with_value(v, value) for k, v in doc.items()}
    return doc


@pytest.mark.parametrize(
    "value", [math.nan, math.inf, -math.inf], ids=["NaN", "Infinity", "-Infinity"]
)
@pytest.mark.parametrize("command", NON_FINITE_DOCS)
def test_non_json_constant_is_a_config_error(tmp_path, command, value):
    """json reads NaN and +-Infinity, and NaN passes every bound: the loader refuses them."""
    cfg = write_config(tmp_path, _with_value(NON_FINITE_DOCS[command], value))
    assert json.dumps(value) in cfg.read_text()
    err = io.StringIO()
    with warnings.catch_warnings(), redirect_stderr(err), redirect_stdout(io.StringIO()):
        warnings.simplefilter("error")
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    expected = f"config error: {cfg}: {json.dumps(value)} is not a JSON number"
    assert err.getvalue().startswith(expected)
    assert "Traceback" not in err.getvalue()
    assert not (tmp_path / "out").exists()


def test_preset_with_a_non_json_constant_is_a_config_error(tmp_path, monkeypatch, capsys):
    """Presets go through the same parser as configs."""
    (tmp_path / "presets").mkdir()
    (tmp_path / "presets" / "bad.json").write_text('{"command": "counterexample", "nu": NaN}')
    monkeypatch.setattr(cli.resources, "files", lambda package: tmp_path)
    assert main(["counterexample", "--preset", "bad", "--out", str(tmp_path / "out")]) == 1
    expected = "config error: preset 'bad': NaN is not a JSON number; use a finite number\n"
    assert capsys.readouterr().err == expected


def _reject_constant(name):
    raise ValueError(f"report.json holds the non-JSON token {name}")


class TestOverflow:
    """Overflow in a family member is an honest +inf: no traceback, no warning, valid JSON."""

    def run_quietly(self, tmp_path, doc):
        cfg = write_config(tmp_path, doc)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run_cli([doc["command"], "--config", cfg, "--out", tmp_path / "out"]) == 0
        with open(tmp_path / "out" / "report.json") as fh:
            return json.load(fh, parse_constant=_reject_constant)

    def test_classify_writes_inf_as_a_string(self, tmp_path):
        doc = {
            "command": "classify",
            "sequence": {"kind": "explicit", "values": [1e308, 1e308, 1e308, 1e308]},
            "family": {"kind": "constant", "function": {"kind": "power", "p": 2.0}},
            "schedule": {"kind": "explicit", "cut_points": [0, 2, 4]},
            "space": {"m_max": 0},
        }
        strong = self.run_quietly(tmp_path, doc)["results"]["verdicts"]["strong"]
        assert strong["decision"] == "DoesNotConverge"
        assert strong["tail_mean"] == "inf"

    def test_classify_finite_tail_whose_sum_overflows(self, tmp_path):
        """The tail 1e308, 1.7e308, 1e308 sums past float64; its mean is reported, not inf."""
        doc = {
            "command": "classify",
            "sequence": {"kind": "explicit", "values": [1e308, 1.7e308, 1e308, 1, 1, 1, 1, 1, 1]},
            "family": {"kind": "constant", "function": {"kind": "linear"}},
            "schedule": {"kind": "explicit", "cut_points": [0, 1, 2, 3]},
            "space": {"m_max": 0},
            "verdict": {"tail_window": 3},
        }
        strong = self.run_quietly(tmp_path, doc)["results"]["verdicts"]["strong"]
        assert strong["decision"] == "DoesNotConverge"
        assert strong["tail_mean"] == 1.23333333333e308

    def test_norms_conjugate_of_an_overflowing_power(self, tmp_path):
        doc = {
            "command": "norms",
            "sequence": {"kind": "explicit", "values": [0.5]},
            "family": {"kind": "constant", "function": {"kind": "power", "p": 200.0}},
            "complementary": {"indices": [1], "v_values": [1.0]},
        }
        (sample,) = self.run_quietly(tmp_path, doc)["results"]["complementary"]
        assert sample["at_boundary"] is False
        interior = complementary(ConstantFamily(Power(200.0)), 1, 1.0, u_max=2.0)
        assert sample["value"] == pytest.approx(interior.value, abs=1e-8)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_classify_nan_window_sum_is_an_error(self, tmp_path, capsys):
        """The prefix sum overflows, so a window sum is inf - inf: an error, not a NaN result."""
        doc = {
            "command": "classify",
            "sequence": {"kind": "explicit", "values": [1e308, 1e308, 1e308, 1e308, 1.0]},
            "family": {"kind": "constant", "function": {"kind": "power", "p": 1.0}},
            "schedule": {"kind": "explicit", "cut_points": [0, 2, 4]},
            "space": {"m_max": 1},
        }
        cfg = write_config(tmp_path, doc)
        assert run_cli(["classify", "--config", cfg, "--out", tmp_path / "out"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "m=1, block r=2" in err
        assert not (tmp_path / "out" / "report.json").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "matrix,n",
        [
            ({"kind": "cesaro_c1"}, 2),
            ({"kind": "row_table", "rows": [[[k, 1.0], [k + 1, 1.0]] for k in range(1, 5)] + [[[5, 1.0]]]}, 1),
        ],
        ids=["cesaro_c1", "row_table"],
    )
    def test_classify_overflowing_transform_is_an_error(self, tmp_path, capsys, matrix, n):
        """A transform row past float64 ends in `error:` naming the row, not a traceback."""
        doc = {
            "command": "classify",
            "sequence": {"kind": "explicit", "values": [1e308, 1e308, 1e308, 1e308, 1.0]},
            "family": {"kind": "index_scaled"},
            "schedule": {"kind": "explicit", "cut_points": [0, 2, 4]},
            "matrix": matrix,
            "space": {"m_max": 1},
        }
        cfg = write_config(tmp_path, doc)
        assert run_cli(["classify", "--config", cfg, "--out", tmp_path / "out"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: at output index n={n}: row {n} of the {matrix['kind']} transform is inf")
        assert not (tmp_path / "out" / "report.json").exists()

    def test_report_refuses_a_nan_token(self, tmp_path):
        """report.json is strict JSON: a NaN that reached a report is an error, not a token."""
        bundle = ReportBundle(config={}, results={"tail_mean": math.nan})
        with pytest.raises(ValueError):
            bundle.write(tmp_path)


# ---------------------------------------------------------------------------
# report.json: the streaming writer against round_floats + json.dumps
# ---------------------------------------------------------------------------

EXTREME_FLOATS = st.sampled_from(
    [math.inf, -math.inf, 0.0, -0.0, 1e308, -1.7976931348623157e308, 5e-324, -5e-324,
     2.2250738585072014e-308, 1e-5, 1e16, 123456789012.5, 0.1]
)
FLOATS = st.floats(allow_nan=False) | EXTREME_FLOATS
LEAVES = (
    st.none() | st.booleans() | st.integers() | FLOATS | st.text(max_size=6)
    | FLOATS.map(np.float64) | st.floats(width=32, allow_nan=False).map(np.float32)
    | st.integers(-(2**63), 2**63 - 1).map(np.int64) | st.integers(-5, 5).map(np.int32)
    | st.booleans().map(np.bool_)
)
TREES = st.recursive(
    LEAVES,
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=3).map(tuple)
        | st.dictionaries(st.text(max_size=4), children, max_size=4)
        | st.dictionaries(st.integers(-3, 3) | st.floats(-2, 2), children, max_size=3)
    ),
    max_leaves=30,
)


def written(obj):
    buf = io.StringIO()
    cli._write_json(obj, buf)
    return buf.getvalue()


@given(tree=TREES)
@settings(max_examples=150, deadline=None)
def test_writer_matches_the_reference_encoder(tree):
    assert written(tree) == reference.encode_report(tree)


# leaves that share text or value: 0.0/-0.0, 1/1.0/True, plus subnormals and numpy scalars
TRICKY = [0.0, -0.0, 1, 1.0, True, False, None, "x", math.inf, -math.inf, 5e-324, -5e-324, 0.1,
          1e16, 1.5e15, 123456789012.5, 2**70, np.float64(-0.0), np.float64(0.5), np.int64(1),
          np.float32(0.1), np.bool_(True)]
# floats whose repr differs in layout or digits from their 12-digit text
TRICKY_FLOATS = st.sampled_from([1.5e15, -2.5e12, 1e13, 5e-324, 1e-308, 2.2250738585072014e-308,
                                 1e300, 0.1, -0.0, 1.0, 100.0, 1e-5, 1e-4])
POOLS = (
    st.lists(st.sampled_from(TRICKY) | FLOATS | st.integers(), min_size=1, max_size=6)
    | st.lists(FLOATS | TRICKY_FLOATS, min_size=1, max_size=6)  # one type per column: the bulk paths
    | st.lists(st.integers(-(2**70), 2**70), min_size=1, max_size=6)
)


@st.composite
def long_arrays(draw):
    """A long list of leaves, of equal-length leaf lists, of lists of them (a row table), or
    of lists of leaf lists of any length."""
    pool, n, width = draw(POOLS), draw(st.integers(1, 2000)), draw(st.integers(1, 3))
    rng = random.Random(draw(st.integers(0, 2**32)))
    columns = [[rng.choice(pool) for _ in range(n * 4)] for _ in range(width)]
    leaf = iter(zip(*columns))

    def item():
        return list(next(leaf))

    shape = draw(st.sampled_from(["leaves", "lists", "tuples", "rows", "ragged"]))
    if shape == "leaves":
        return columns[0][:n]
    if shape == "lists":
        return [item() for _ in range(n)]
    if shape == "tuples":
        return [tuple(item()) for _ in range(n)]
    if shape == "rows":
        return [[item() for _ in range(rng.choice([0, 1, 2, 2, 3]))] for _ in range(n)]
    return [[item()[: rng.randint(0, width)] for _ in range(rng.randint(0, 3))] for _ in range(n)]


@given(array=long_arrays(), nested=st.booleans())
@settings(max_examples=60, deadline=None)
def test_writer_matches_the_reference_encoder_on_long_arrays(array, nested):
    tree = {"config": {"matrix": {"rows": array}}} if nested else array
    got, want = written(tree), reference.encode_report(tree)
    assert got.splitlines() == want.splitlines()  # a failure reports the first line apart, quickly
    assert got == want


@pytest.mark.parametrize(
    "array",
    [[0.5] * 4000 + [math.nan], [[n, 0.5] for n in range(4000)] + [[4000, math.nan]],
     [[[n, 0.5], [n + 1, 0.5]] for n in range(4000)] + [[[4000, np.float64(math.nan)]]]],
    ids=["leaves", "pairs", "rows"],
)
def test_writer_refuses_a_nan_deep_in_a_long_array(array):
    with pytest.raises(ValueError):
        written({"rows": array})


@pytest.mark.parametrize(
    "tree,error",
    [
        ({"a": [1.0, (2, math.nan)]}, ValueError),
        ({"a": np.float64("nan")}, ValueError),
        ([np.float32("nan")], ValueError),
        ({math.inf: 1.0}, ValueError),
        ({1: 0.0, "1": 0.0}, TypeError),
        ({(1, 2): 0.0}, TypeError),
        ({"a": np.zeros(2)}, TypeError),
        ({"a": {1, 2}}, TypeError),
    ],
    ids=["nan", "numpy-nan", "float32-nan", "inf-key", "mixed-keys", "tuple-key", "array", "set"],
)
def test_writer_raises_as_the_reference_encoder(tree, error):
    with pytest.raises(error):
        reference.encode_report(tree)
    with pytest.raises(error):
        written(tree)


def assert_report_is_the_reference(out, doc):
    """`classify`'s report.json in `out` has the bytes the reference encoder gives the interpreted
    echo of `doc` with the results of the same run in-process (timestamp aside)."""
    doc = json.loads(json.dumps(doc))
    bundle = cli.cmd_classify(copy.deepcopy(doc))
    tree = {"tool": "lacunary", "version": cli.__version__, "timestamp": "",
            "config": reference.materialize(CLASSIFY, doc), "results": bundle.results, "checks": bundle.checks}
    text = reference.encode_report(tree) + "\n"
    expected = b"".join(
        ln for ln in text.encode().splitlines(keepends=True) if not ln.startswith(b'  "timestamp": ')
    )
    assert report_bytes_without_timestamp(out) == expected


def long_table_doc(rows):
    """A classify of a `rows`-row table of the cli-mix shape."""
    return {
        "command": "classify",
        "sequence": {"kind": "random_bounded", "horizon": rows + 1, "radius": 0.3,
                     "exception_density": 0.001, "seed": 5},
        "family": {"kind": "spike", "slopes": {"17": 3.0, "2500": 40.0}, "default_slope": 1.0},
        "schedule": {"kind": "geometric", "count": 12},
        "matrix": {"kind": "row_table", "rows": [[[n, 0.5], [n + 1, 0.5]] for n in range(1, rows + 1)]},
        "space": {"m_max": 0},
    }


def test_large_row_table_report_matches_reference_encoder(tmp_path):
    """A 4096-row table echo (cli-mix shape), written in many pieces, has the reference's bytes."""
    doc = long_table_doc(4096)
    assert run_cli(["classify", "--config", write_config(tmp_path, doc), "--out", tmp_path]) == 0
    assert_report_is_the_reference(tmp_path, doc)


# coefficients whose echo takes each branch of the bulk float text: ints in a number slot,
# a signed zero, a subnormal, the exponents that repr writes in full, int64's extremes
ECHO_COEFFICIENTS = (
    st.sampled_from([1, -3, 0, -0.0, 5e-324, -5e-324, 0.1, 1e12, 1e16, 2**63 - 1, -(2**63 - 1)])
    | st.floats(1e12, 1e16) | st.floats(-1e16, -1e12) | st.floats(-2.0, 2.0) | st.integers(-(2**53), 2**53)
)
RAGGED_HORIZON = 40


@given(rows=st.lists(
    st.lists(st.tuples(st.integers(1, RAGGED_HORIZON), ECHO_COEFFICIENTS).map(list), max_size=3),
    min_size=8, max_size=300,
))
@settings(max_examples=25, deadline=None)
def test_ragged_row_table_report_matches_reference_encoder(rows):
    """Rows of 0 to 3 pairs, longer and shorter than a chunk, echo as the reference writes them."""
    doc = {
        "command": "classify",
        "sequence": {"kind": "random_bounded", "horizon": RAGGED_HORIZON, "seed": 3},
        "family": {"kind": "constant", "function": {"kind": "linear"}},
        "schedule": {"kind": "geometric", "count": 3},  # k_R = 8 rows read
        "matrix": {"kind": "row_table", "rows": rows},
        "space": {"m_max": 0},
    }
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        assert run_cli(["classify", "--config", write_config(out, doc), "--out", out]) == 0
        assert_report_is_the_reference(out, doc)


def test_long_explicit_sequence_report_matches_reference_encoder(tmp_path):
    """A 2**17-value explicit sequence, with ints and float edge cases among its values."""
    rng = np.random.default_rng(17)
    values = rng.uniform(-1.0, 1.0, 2**17).tolist()
    for i, v in enumerate([1, -2, 0, -0.0, 5e-324, 1e12, 123456789012345.6, 1e16, 2**63 - 1, -(2**63 - 1)]):
        values[1000 * i + 7] = v
    doc = {
        "command": "classify",
        "sequence": {"kind": "explicit", "values": values},
        "family": {"kind": "constant", "function": {"kind": "linear"}},
        "schedule": {"kind": "geometric", "count": 16},
        "space": {"m_max": 0},
    }
    assert run_cli(["classify", "--config", write_config(tmp_path, doc), "--out", tmp_path]) == 0
    assert_report_is_the_reference(tmp_path, doc)


@pytest.mark.big_config
def test_fresh_classify_of_a_100k_row_table_matches_reference_encoder(tmp_path):
    """`lacunary classify` in a new process over a 100 000-row table writes the reference's bytes."""
    doc = long_table_doc(100_000)
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = ["classify", "--config", str(write_config(tmp_path, doc)), "--out", str(tmp_path)]
    code = "import sys, lacunary.cli; sys.exit(lacunary.cli.main(sys.argv[1:]))"
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert_report_is_the_reference(tmp_path, doc)


# ---------------------------------------------------------------------------
# fuzz: every valid document, with numeric extremes, ends in 0, 1 or 2
# ---------------------------------------------------------------------------

# caps on the fields that set array sizes, so that every example runs in milliseconds
SIZE_CAPS = {"count": 6, "horizon": 80, "size": 3, "r_max": 6, "construction_r_max": 6,
             "m_max": 4, "k_max": 8}
FLOAT_EXTREMES = [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1.0, -1.0, 0.5, 2.0,
                  1e300, -1e300, 1.7976931348623157e308, -1.7976931348623157e308]
INT_EXTREMES = [0, 1, 2, -1]
# a table below zero, which is a config error, and a convex one, which builds; drawn knots
# nearly always break an axiom
NEGATIVE_KNOTS = [[0.0, 0.0], [1.0, -1.0]]
CONVEX_KNOTS = [[0.0, 0.0], [1.0, 1.5], [2.0, 4.5]]
HUGE_INTS = [2**63, 2**64, 10**400]  # past int64 and float64; never for a size field
FLOAT_EXTREMES.append(10**400)  # an integer literal past float64 in a number field


@st.composite
def fuzzed_documents(draw):
    """A valid document of a random command with sizes capped and a few numbers at extremes."""
    component = draw(st.sampled_from(COMMAND_COMPONENTS))
    doc = draw(documents(component))
    for container, key in list(_slots(doc)):
        if key == "knots":  # open to the extremes below
            container[key] = copy.deepcopy(draw(st.sampled_from([NEGATIVE_KNOTS, CONVEX_KNOTS])))
    numbers = []
    for container, key in _slots(doc):
        value = container[key]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        if isinstance(value, int) and key in SIZE_CAPS:
            container[key] = min(value, SIZE_CAPS[key])
        numbers.append((container, key))
    for _ in range(draw(st.integers(0, 3))):
        if numbers:
            container, key = draw(st.sampled_from(numbers))
            if not isinstance(container[key], int):
                extremes = FLOAT_EXTREMES
            else:
                extremes = INT_EXTREMES + (HUGE_INTS if key not in SIZE_CAPS else [])
            container[key] = draw(st.sampled_from(extremes))
    return component.name, doc


def run_fuzzed(command, doc):
    """Run the CLI in-process on `doc`; every ending must be an exit code, never an exception."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        cfg = write_config(tmp, doc)
        err = io.StringIO()
        with warnings.catch_warnings(), redirect_stderr(err), redirect_stdout(io.StringIO()):
            warnings.simplefilter("error", RuntimeWarning)
            code = main([command, "--config", str(cfg), "--out", str(tmp / "out")])
        assert code in (0, 1, 2)
        if code == 1:
            assert err.getvalue().startswith(("config error: ", "error: ")), err.getvalue()
        report = tmp / "out" / "report.json"
        if report.exists():
            json.loads(report.read_text(), parse_constant=_reject_constant)
        else:
            assert code == 1
        return code


HUGE = 1.7976931348623157e308
# inputs the fuzz found ending in a traceback, a RuntimeWarning or a NaN in report.json
FUZZ_FINDINGS = {
    "t31-infinite-floor": (0, {
        "command": "inclusion", "family": {"kind": "constant", "function": {"kind": "exp_minus_one"}},
        "schedule": {"kind": "geometric", "count": 6}, "space": {"epsilon": 1e300, "m_max": 4},
        "corpus": {"size": 3}}),
    "geometric-ratio-overflow": (1, {
        "command": "classify", "sequence": {"kind": "explicit", "values": [1.0, 2.0]},
        "family": {"kind": "index_scaled"}, "schedule": {"kind": "geometric", "ratio": HUGE}}),
    "cut-point-past-int64": (1, {
        "command": "inclusion", "schedule": {"kind": "geometric", "base": 1e300, "count": 6}}),
    "modular-tiny-rho": (0, {
        "command": "norms", "sequence": {"kind": "alternating01", "horizon": 4},
        "family": {"kind": "constant"}, "rho": {"kind": "constant", "value": 5e-324}}),
    "thm38-slope-overflow": (1, {
        "command": "classify", "construction": {"theorem": "thm38", "rho": HUGE, "r_max": 6}}),
    "thm38-height-overflow": (1, {
        "command": "classify", "construction": {"theorem": "thm38", "nu": HUGE, "r_max": 2}}),
    "verdict-infinite-tail": (0, {
        "command": "classify", "construction": {
            "theorem": "thm38", "nu": 1e300, "r_max": 6,
            "family": {"kind": "index_power", "exponents": [2.0]}}}),
    "delta2-tiny-slope": (0, {
        "command": "norms", "sequence": {"kind": "constant", "value": 0.0, "horizon": 4},
        "family": {"kind": "spike", "default_slope": 5e-324}, "delta2": {}}),
    "growth-tiny-rho": (1, {
        "command": "inclusion", "schedule": {"kind": "geometric", "count": 6},
        "space": {"m_max": 4, "rho": {"kind": "constant", "value": 5e-324}}, "corpus": {"size": 3}}),
    "luxemburg-sum-overflow": (1, {
        "command": "norms", "family": {"kind": "index_scaled"},
        "sequence": {"kind": "random_bounded", "horizon": 4, "center": HUGE}}),
    "amemiya-scaled-overflow": (1, {
        "command": "norms", "sequence": {"kind": "explicit", "values": [1e300, 2.0]},
        "family": {"kind": "spike", "default_slope": 5e-324}}),
    "growth-short-rho": (0, {
        "command": "inclusion", "schedule": {"kind": "geometric", "count": 1},
        "space": {"m_max": 4, "rho": {"kind": "per_index", "values": [1.0, 2.0]}},
        "corpus": {"size": 3}}),
    "power-past-float64": (1, {
        "command": "norms", "sequence": {"kind": "explicit", "values": [1.0]},
        "family": {"kind": "constant", "function": {"kind": "power", "p": 10**400}}}),
    "row-table-coefficient-past-float64": (1, {
        "command": "classify", "sequence": {"kind": "explicit", "values": [1.0, 2.0, 3.0]},
        "family": {"kind": "index_scaled"}, "schedule": {"kind": "explicit", "cut_points": [0, 1, 2]},
        "matrix": {"kind": "row_table", "rows": [[[1, 10**400]], [[2, 1.0]], [[3, 1.0]]]},
        "space": {"m_max": 0}}),
    "space-L-past-float64": (1, {
        "command": "classify", "sequence": {"kind": "explicit", "values": [1.0, 2.0, 3.0]},
        "family": {"kind": "index_scaled"}, "schedule": {"kind": "explicit", "cut_points": [0, 1, 2]},
        "space": {"m_max": 0, "L": 10**400}}),
    "schedule-base-past-float64": (1, {
        "command": "classify", "sequence": {"kind": "explicit", "values": [1.0, 2.0, 3.0]},
        "family": {"kind": "index_scaled"}, "schedule": {"kind": "geometric", "base": 10**400}}),
    "complementary-index-past-int64": (1, {
        "command": "norms", "sequence": {"kind": "explicit", "values": [1.0]},
        "family": {"kind": "index_scaled"}, "complementary": {"indices": [1, 2**64]}}),
    "table-slope-overflow": (1, {
        "command": "norms", "sequence": {"kind": "explicit", "values": [0.5, 1.0]},
        "family": {"kind": "constant", "function": {
            "kind": "table", "knots": [[0, 0], [1, -1.7e308], [2, 1.7e308]]}}}),
    "table-first-slope-overflow": (1, {
        "command": "norms", "sequence": {"kind": "explicit", "values": [0.5, 1.0]},
        "family": {"kind": "constant", "function": {
            "kind": "table", "knots": [[0, 0], [0.5, 1.7e308], [1, 1.75e308]]}}}),
    # 8e13 bytes for the prefix: numpy refuses the allocation at once
    "horizon-past-memory": (1, {
        "command": "norms", "sequence": {"kind": "constant", "value": 1.0, "horizon": 10**13},
        "family": {"kind": "index_scaled"}}),
}


@pytest.mark.parametrize("name", FUZZ_FINDINGS)
def test_fuzz_finding_ends_cleanly(name):
    code, doc = FUZZ_FINDINGS[name]
    assert run_fuzzed(doc["command"], doc) == code


@given(case=fuzzed_documents())
@settings(max_examples=60, deadline=None)
def test_fuzzed_document_ends_in_an_exit_code(case):
    run_fuzzed(*case)


@pytest.mark.fuzz_long
@given(case=fuzzed_documents())
@settings(max_examples=3000, deadline=None)
def test_fuzzed_document_ends_in_an_exit_code_long(case):
    run_fuzzed(*case)


@given(case=fuzzed_documents(), seed=st.none() | st.integers(-1, 2**31), data=st.data())
@settings(max_examples=60, deadline=None)
def test_compiled_echo_matches_the_interpreted_echo(case, seed, data):
    """Numbers respelled (2.0 as 2, 2 as 2.0, null as 2 or 2.0) echo as the interpreted walk
    echoes them, type and all."""
    command, doc = case
    for container, key in list(_slots(doc)):
        value = container[key]
        if value is None and data.draw(st.booleans()):
            container[key] = data.draw(st.sampled_from([2, 2.0]))
        elif type(value) in (int, float) and data.draw(st.booleans()):
            if type(value) is int:
                if abs(value) <= 2**1023:  # an integer past float64 has no float spelling
                    container[key] = float(value)
            elif value.is_integer():
                container[key] = int(value)
    component = _command_component(doc, command)
    try:
        expected = reference.materialize(component, doc, seed)
    except ConfigError:
        with pytest.raises(ConfigError):
            materialize(doc, command, seed)
        return
    assert repr(plain(materialize(doc, command, seed))) == repr(expected)
