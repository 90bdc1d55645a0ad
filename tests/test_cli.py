"""End-to-end CLI runs: configs, presets, outputs, determinism, exit codes."""

import io
import json
import math
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st
from test_config import COMMAND_COMPONENTS, _slots, documents

from lacunary import ConstantFamily, Power, cli, complementary
from lacunary.cli import ReportBundle, main
from lacunary.config import CLASSIFY_CONSTRUCTION, COMMANDS


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
            ([[0, 0], [1, 5], [2, 5.5]], {"function": ["midpoint_convex"]}),
            ([[0, 0], [1, 1.5], [2, 4.5]], None),
        ],
    )
    def test_table_axiom_failures_reported(self, tmp_path, knots, failures):
        cfg = write_config(
            tmp_path,
            {
                "command": "norms",
                "sequence": {"kind": "explicit", "values": [0.5, 1.0]},
                "family": {"kind": "constant", "function": {"kind": "table", "knots": knots}},
            },
        )
        assert run_cli(["norms", "--config", cfg, "--out", tmp_path / "out"]) == 0
        assert read_report(tmp_path / "out")["results"].get("axiom_failures") == failures


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
# fuzz: every valid document, with numeric extremes, ends in 0, 1 or 2
# ---------------------------------------------------------------------------

# caps on the fields that set array sizes, so that every example runs in milliseconds
SIZE_CAPS = {"count": 6, "horizon": 80, "size": 3, "r_max": 6, "construction_r_max": 6,
             "m_max": 4, "k_max": 8}
FLOAT_EXTREMES = [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1.0, -1.0, 0.5, 2.0,
                  1e300, -1e300, 1.7976931348623157e308, -1.7976931348623157e308]
INT_EXTREMES = [0, 1, 2, -1]


@st.composite
def fuzzed_documents(draw):
    """A valid document of a random command with sizes capped and a few numbers at extremes."""
    component = draw(st.sampled_from(COMMAND_COMPONENTS))
    doc = draw(documents(component))
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
            extremes = INT_EXTREMES if isinstance(container[key], int) else FLOAT_EXTREMES
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
