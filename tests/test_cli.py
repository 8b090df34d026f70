"""Command-line interface: parsing, output formats, exit codes, reproducibility.

Fidelity values printed by the CLI are compared bit-for-bit against direct
library calls at the same orders — the CLI is a thin shell over the library
and must not perturb results.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import blochest
from blochest.asymptotics import appendix_integrals, constants
from blochest.cli import CSV_HEADER, _build_parser, main, parse_n_spec
from blochest.core import PriorKind, build_prior
from blochest.evaluator import (
    adaptive_local_fidelity,
    exact_fidelity,
    monte_carlo_fidelity,
    tomography_with_discard,
)
from blochest.schemes import SchemeKind, SchemeSpec

SMALL = ("--radial-order", "32", "--angular-order", "32")
MC_ROUTE = ("--samples", "400", "--seed", "3")
PYPROJECT = os.path.join(os.path.dirname(os.path.dirname(__file__)), "pyproject.toml")


def run_cli(capsys, *argv):
    """Invoke main() and return (exit_code, stdout, stderr)."""
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    rows = []
    for line in lines[1:]:
        parts = line.split(",")
        assert len(parts) == 8
        rows.append(
            {
                "n": int(parts[0]),
                "scheme": parts[1],
                "estimator": parts[2],
                "prior": parts[3],
                "fidelity": float(parts[4]),
                "stderr": float(parts[5]),
                "method": parts[6],
                "discarded_fraction": None if parts[7] == "" else float(parts[7]),
            }
        )
    return rows


@pytest.fixture(scope="module")
def small_eq_prior():
    return build_prior(PriorKind.EQUATORIAL_BURES, radial_order=32, angular_order=32)


# --------------------------------------------------------------------------
# N-specification parsing
# --------------------------------------------------------------------------


class TestParseNSpec:
    def test_single_value(self):
        assert parse_n_spec("6") == (6,)
        assert parse_n_spec(6) == (6,)

    def test_range_is_stop_inclusive(self):
        assert parse_n_spec("2:20:2") == (2, 4, 6, 8, 10, 12, 14, 16, 18, 20)
        assert parse_n_spec("2:7:2") == (2, 4, 6)

    def test_list_form_from_config_files(self):
        assert parse_n_spec([2, 4]) == (2, 4)
        assert parse_n_spec((3,)) == (3,)

    @pytest.mark.parametrize(
        "bad",
        [
            "abc", "2:4", "1:2:3:4", "4:2:1", "2:8:0", "2:8:-1", "0", [0, 2], [], "x:y:z",
            [4.5], [True], [4.0],
        ],
    )
    def test_rejections(self, bad):
        from blochest.cli import CliUsageError

        with pytest.raises(CliUsageError):
            parse_n_spec(bad)


# --------------------------------------------------------------------------
# constants / integrals commands
# --------------------------------------------------------------------------


class TestConstantsCommand:
    def test_json_matches_library_exactly(self, capsys):
        code, out, err = run_cli(capsys, "constants")
        assert code == 0
        assert err == ""
        payload = json.loads(out)
        ref = constants()
        assert set(payload) == {"collective_coeff", "xi_ml", "xi_o", "b1", "b2", "b3"}
        assert payload["collective_coeff"] == ref.collective_coeff
        assert payload["xi_ml"] == ref.xi_ml
        assert payload["xi_o"] == ref.xi_o
        assert payload["b1"] == ref.b1
        assert payload["b2"] == ref.b2
        assert payload["b3"] == ref.b3

    def test_csv_format_rejected(self, capsys):
        code, out, err = run_cli(capsys, "constants", "--format", "csv")
        assert code == 2
        assert "error:" in err

    def test_integrals_json_with_abs_tol(self, capsys):
        code, out, err = run_cli(capsys, "integrals", "--abs-tol", "1e-5")
        assert code == 0
        payload = json.loads(out)
        b1, b2, b3 = appendix_integrals(abs_tol=1e-5)
        assert payload == {"b1": b1, "b2": b2, "b3": b3}

    def test_integrals_csv_format_rejected(self, capsys):
        code, out, err = run_cli(capsys, "integrals", "--format", "csv")
        assert code == 2
        assert "error:" in err


# --------------------------------------------------------------------------
# fidelity command
# --------------------------------------------------------------------------


class TestFidelityCommand:
    def test_exact_row_matches_library(self, capsys, small_eq_prior):
        code, out, err = run_cli(capsys, "fidelity", "--n", "4", *SMALL)
        assert code == 0
        (row,) = parse_csv(out)
        ref = exact_fidelity(
            SchemeSpec(SchemeKind.LOCAL_XY, 4),
            "optimal",
            small_eq_prior,
            radial_order=32,
            angular_order=32,
        )
        assert row["n"] == 4
        assert row["scheme"] == "local-xy"
        assert row["estimator"] == "optimal"
        assert row["prior"] == "equatorial"
        assert row["fidelity"] == ref.fidelity
        assert row["stderr"] == 0.0
        assert row["method"] == "exact-enumeration"
        assert row["discarded_fraction"] is None

    def test_json_single_row_is_flat_object(self, capsys):
        code, out, err = run_cli(capsys, "fidelity", "--n", "2", "--format", "json", *SMALL)
        assert code == 0
        payload = json.loads(out)
        assert payload["n"] == 2
        assert payload["method"] == "exact-enumeration"
        assert "points" not in payload

    def test_monte_carlo_matches_library(self, capsys, small_eq_prior):
        code, out, err = run_cli(
            capsys, "fidelity", "--n", "6", "--estimator", "ml",
            "--samples", "400", "--seed", "7", *SMALL,
        )
        assert code == 0
        (row,) = parse_csv(out)
        ref = monte_carlo_fidelity(
            SchemeSpec(SchemeKind.LOCAL_XY, 6),
            "ml",
            small_eq_prior,
            400,
            7,
            radial_order=32,
            angular_order=32,
        )
        assert row["fidelity"] == ref.fidelity
        assert row["stderr"] == ref.stderr
        assert row["method"] == "monte-carlo"

    def test_samples_without_seed_rejected(self, capsys):
        code, out, err = run_cli(capsys, "fidelity", "--n", "4", "--samples", "100")
        assert code == 2
        assert "seed" in err

    def test_range_rejected(self, capsys):
        code, out, err = run_cli(capsys, "fidelity", "--n", "2:6:2")
        assert code == 2
        assert "single N" in err

    def test_n_zero_rejected(self, capsys):
        code, out, err = run_cli(capsys, "fidelity", "--n", "0")
        assert code == 2

    def test_missing_n_rejected(self, capsys):
        code, out, err = run_cli(capsys, "fidelity")
        assert code == 2

    def test_order_zero_rejected_without_default_prior(self, capsys, monkeypatch):
        orders = []

        def recording_build_prior(kind, radial_order, angular_order):
            orders.append((radial_order, angular_order))
            return build_prior(kind, radial_order, angular_order)

        monkeypatch.setattr("blochest.cli.build_prior", recording_build_prior)
        code, out, err = run_cli(capsys, "fidelity", "--n", "4", "--radial-order", "0")
        assert code == 2
        assert "quadrature orders must be >= 2" in err
        assert (128, 256) not in orders

    def test_enumeration_limit_enforced(self, capsys):
        code, out, err = run_cli(
            capsys, "fidelity", "--n", "30", "--enumeration-limit", "10", *SMALL
        )
        assert code == 2
        assert "error:" in err


# --------------------------------------------------------------------------
# sweep command
# --------------------------------------------------------------------------


class TestSweepCommand:
    def test_csv_rows_match_exact_fidelity(self, capsys, small_eq_prior):
        code, out, err = run_cli(capsys, "sweep", "--n", "2:8:2", *SMALL)
        assert code == 0
        rows = parse_csv(out)
        assert [r["n"] for r in rows] == [2, 4, 6, 8]
        for row in rows:
            ref = exact_fidelity(
                SchemeSpec(SchemeKind.LOCAL_XY, row["n"]),
                "optimal",
                small_eq_prior,
                radial_order=32,
                angular_order=32,
            )
            assert row["fidelity"] == ref.fidelity

    def test_json_uses_points_array(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--n", "2:6:2", "--format", "json", *SMALL)
        assert code == 0
        payload = json.loads(out)
        assert list(payload) == ["points"]
        assert [p["n"] for p in payload["points"]] == [2, 4, 6]

    def test_samples_rejected(self, capsys):
        code, out, err = run_cli(
            capsys, "sweep", "--n", "2:6:2", "--samples", "100", "--seed", "1"
        )
        assert code == 2
        assert "sweep is exact" in err

    def test_decreasing_config_list_rejected_before_evaluation(
        self, capsys, tmp_path, monkeypatch
    ):
        calls = []
        monkeypatch.setattr(
            "blochest.evaluator.exact_fidelity", lambda *a, **k: calls.append(a)
        )
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"n": [8, 4], "radial_order": 32, "angular_order": 32}))
        code, out, err = run_cli(capsys, "sweep", "--config", str(cfg))
        assert code == 2
        assert "strictly increasing" in err
        assert out == ""
        assert calls == []


# --------------------------------------------------------------------------
# tomography command
# --------------------------------------------------------------------------


class TestTomographyCommand:
    def test_single_row_reports_discarded_mass(self, capsys, small_eq_prior):
        code, out, err = run_cli(capsys, "tomography", "--n", "4", *SMALL)
        assert code == 0
        (row,) = parse_csv(out)
        ref = tomography_with_discard(
            SchemeSpec(SchemeKind.LOCAL_XY, 4),
            small_eq_prior,
            radial_order=32,
            angular_order=32,
        )
        assert row["estimator"] == "tomography"
        assert row["fidelity"] == ref.fidelity
        assert row["discarded_fraction"] == ref.discarded_fraction
        assert row["discarded_fraction"] is not None

    def test_range_produces_one_row_per_n(self, capsys):
        code, out, err = run_cli(capsys, "tomography", "--n", "4:8:2", *SMALL)
        assert code == 0
        rows = parse_csv(out)
        assert [r["n"] for r in rows] == [4, 6, 8]
        assert all(r["discarded_fraction"] is not None for r in rows)

    def test_monte_carlo_route_matches_library(self, capsys, small_eq_prior):
        code, out, err = run_cli(
            capsys, "tomography", "--n", "6", "--samples", "400", "--seed", "3", *SMALL
        )
        assert code == 0
        (row,) = parse_csv(out)
        ref = monte_carlo_fidelity(
            SchemeSpec(SchemeKind.LOCAL_XY, 6),
            "tomography",
            small_eq_prior,
            400,
            3,
            radial_order=32,
            angular_order=32,
        )
        assert row["fidelity"] == ref.fidelity
        assert row["stderr"] == ref.stderr
        assert row["discarded_fraction"] == ref.discarded_fraction

    @pytest.mark.parametrize("extra", [(), ("--samples", "100", "--seed", "1")])
    def test_decreasing_config_list_rejected_before_evaluation(
        self, capsys, tmp_path, monkeypatch, extra
    ):
        calls = []
        for target in ("blochest.evaluator.exact_fidelity", "blochest.cli.monte_carlo_fidelity"):
            monkeypatch.setattr(target, lambda *a, **k: calls.append(a))
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"n": [8, 4], "radial_order": 16, "angular_order": 16}))
        code, out, err = run_cli(capsys, "tomography", "--config", str(cfg), *extra)
        assert code == 2
        assert "strictly increasing" in err
        assert out == ""
        assert calls == []

    def test_two_copies_is_a_numerical_failure(self, capsys):
        code, out, err = run_cli(capsys, "tomography", "--n", "2", *SMALL)
        assert code == 3
        assert "numerical failure" in err

    def test_collective_scheme_rejected(self, capsys):
        code, out, err = run_cli(capsys, "tomography", "--scheme", "collective", "--n", "4")
        assert code == 2

    @pytest.mark.parametrize("estimator", ["ml", "optimal", "bogus"])
    def test_other_estimator_rejected(self, capsys, estimator):
        code, out, err = run_cli(capsys, "tomography", "--estimator", estimator, "--n", "8")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_own_estimator_accepted(self, capsys):
        code, out, err = run_cli(capsys, "tomography", "--estimator", "tomography", "--n", "6", *SMALL)
        assert code == 0, err
        (row,) = parse_csv(out)
        assert row["estimator"] == "tomography"


class TestSharedRowRunner:
    """fidelity, sweep and tomography print the same rows for the same evaluation."""

    @pytest.mark.parametrize(
        "estimator, route, commands",
        [
            ("tomography", (), ("fidelity", "sweep", "tomography")),
            ("tomography", MC_ROUTE, ("fidelity", "tomography")),
            ("ml", (), ("fidelity", "sweep")),
        ],
        ids=["tomography-exact", "tomography-monte-carlo", "ml-exact"],
    )
    def test_commands_print_identical_csv(self, capsys, estimator, route, commands):
        outputs = []
        for command in commands:
            chosen = () if command == "tomography" else ("--estimator", estimator)
            code, out, err = run_cli(capsys, command, *chosen, "--n", "6", *route, *SMALL)
            assert code == 0, err
            outputs.append(out)
        (row,) = parse_csv(outputs[0])
        assert row["estimator"] == estimator
        assert all(out == outputs[0] for out in outputs)


# --------------------------------------------------------------------------
# adaptive command
# --------------------------------------------------------------------------


class TestAdaptiveCommand:
    def test_json_includes_policy_and_matches_library(self, capsys):
        code, out, err = run_cli(
            capsys, "adaptive", "--n", "4", "--samples", "300", "--seed", "5",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["policy"] == "fixed-xy"
        prior = build_prior(PriorKind.EQUATORIAL_BURES, radial_order=128, angular_order=256)
        ref = adaptive_local_fidelity(prior, 4, "fixed-xy", 300, 5)
        assert payload["fidelity"] == ref.fidelity
        assert payload["stderr"] == ref.stderr
        assert payload["method"] == "monte-carlo"

    def test_greedy_policy_accepted(self, capsys):
        code, out, err = run_cli(
            capsys, "adaptive", "--n", "4", "--samples", "50", "--seed", "9",
            "--policy", "greedy-fidelity", "--format", "json", *SMALL,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["policy"] == "greedy-fidelity"
        assert 0.0 <= payload["fidelity"] <= 1.0

    def test_samples_required(self, capsys):
        code, out, err = run_cli(capsys, "adaptive", "--n", "4", "--seed", "5")
        assert code == 2
        assert "samples" in err

    def test_seed_required(self, capsys):
        code, out, err = run_cli(capsys, "adaptive", "--n", "4", "--samples", "100")
        assert code == 2
        assert "seed" in err

    def test_unknown_policy_rejected(self, capsys):
        code, out, err = run_cli(
            capsys, "adaptive", "--n", "4", "--samples", "100", "--seed", "1",
            "--policy", "levitate",
        )
        assert code == 2
        assert "policy" in err

    def test_full_prior_rejected(self, capsys):
        code, out, err = run_cli(
            capsys, "adaptive", "--n", "4", "--samples", "100", "--seed", "1",
            "--prior", "full",
        )
        assert code == 2

    @pytest.mark.parametrize(
        "flags",
        [
            ("--scheme", "collective"),
            ("--estimator", "ml"),
            ("--scheme", "collective", "--estimator", "ml"),
            ("--estimator", "tomography"),
        ],
        ids=["collective", "ml", "collective-ml", "tomography"],
    )
    def test_other_scheme_or_estimator_rejected(self, capsys, flags):
        code, out, err = run_cli(
            capsys, "adaptive", *flags, "--n", "4", "--samples", "5", "--seed", "1",
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_its_own_scheme_and_estimator_accepted(self, capsys):
        argv = ("adaptive", "--n", "4", "--samples", "50", "--seed", "9", *SMALL)
        code, plain, err = run_cli(capsys, *argv)
        assert code == 0, err
        code, named, err = run_cli(
            capsys, *argv, "--scheme", "local-xy", "--estimator", "optimal"
        )
        assert code == 0, err
        assert named == plain


# --------------------------------------------------------------------------
# scheme / estimator / prior pairing validation
# --------------------------------------------------------------------------


class TestPairingValidation:
    @pytest.mark.parametrize(
        "argv",
        [
            ("fidelity", "--n", "4", "--prior", "full"),
            ("fidelity", "--n", "4", "--scheme", "collective", "--prior", "equatorial"),
            ("fidelity", "--n", "4", "--scheme", "collective", "--estimator", "ml"),
            ("fidelity", "--n", "4", "--scheme", "collective", "--estimator", "tomography"),
            ("fidelity", "--n", "4", "--estimator", "bogus"),
            ("fidelity", "--n", "4", "--scheme", "bogus"),
            ("fidelity", "--n", "4", "--prior", "bogus"),
            ("fidelity", "--n", "5"),  # the local x/y scheme splits copies evenly
            ("fidelity", "--n", "4", "--scheme", "collective", "--estimator", "tomography", *MC_ROUTE),
            ("sweep", "--n", "4", "--scheme", "collective", "--estimator", "tomography"),
            ("tomography", "--n", "4", "--scheme", "collective", *MC_ROUTE),
        ],
    )
    def test_invalid_pairings_exit_2(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert "error:" in err

    def test_random_estimator_points_at_library(self, capsys):
        code, out, err = run_cli(capsys, "fidelity", "--n", "4", "--estimator", "random")
        assert code == 2
        assert "random_guess_fidelity" in err

    def test_collective_optimal_full_accepted(self, capsys):
        code, out, err = run_cli(
            capsys, "fidelity", "--n", "2", "--scheme", "collective",
            "--radial-order", "32", "--angular-order", "24",
        )
        assert code == 0
        (row,) = parse_csv(out)
        assert row["scheme"] == "collective"
        assert row["prior"] == "full"

    def test_missing_subcommand_is_argparse_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("flag", [("--threads", "2"), ("--deterministic",)])
    def test_unknown_flag_is_argparse_error(self, flag):
        with pytest.raises(SystemExit) as excinfo:
            main(["fidelity", "--n", "4", *flag, *SMALL])
        assert excinfo.value.code == 2


# --------------------------------------------------------------------------
# file output
# --------------------------------------------------------------------------


class TestFileOutput:
    def test_out_writes_file_and_keeps_stdout_quiet(self, capsys, tmp_path):
        target = tmp_path / "constants.json"
        code, out, err = run_cli(capsys, "constants", "--out", str(target))
        assert code == 0
        assert out == ""
        payload = json.loads(target.read_text())
        assert payload["b1"] == constants().b1

    def test_reruns_are_byte_identical(self, capsys, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for target in (a, b):
            code, _, _ = run_cli(
                capsys, "fidelity", "--n", "4", "--samples", "200", "--seed", "11",
                "--out", str(target), *SMALL,
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_different_seed_changes_output(self, capsys, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        run_cli(capsys, "fidelity", "--n", "4", "--samples", "200", "--seed", "11",
                "--out", str(a), *SMALL)
        run_cli(capsys, "fidelity", "--n", "4", "--samples", "200", "--seed", "12",
                "--out", str(b), *SMALL)
        assert a.read_bytes() != b.read_bytes()

    def test_unwritable_target_fails_cleanly(self, capsys, tmp_path):
        target = tmp_path / "missing-dir" / "out.json"
        code, out, err = run_cli(capsys, "constants", "--out", str(target))
        assert code == 2
        assert "cannot write output" in err
        assert not target.exists()

    def test_no_temp_files_left_behind(self, capsys, tmp_path):
        target = tmp_path / "out.json"
        code, _, _ = run_cli(capsys, "constants", "--out", str(target))
        assert code == 0
        leftovers = [p for p in tmp_path.iterdir() if p.name != "out.json"]
        assert leftovers == []


# --------------------------------------------------------------------------
# config files
# --------------------------------------------------------------------------


class TestConfigFile:
    def test_config_supplies_values_and_flags_override(self, capsys, tmp_path, small_eq_prior):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "n": [4],
            "estimator": "ml",
            "radial_order": 32,
            "angular_order": 32,
        }))
        code, out, err = run_cli(
            capsys, "fidelity", "--config", str(cfg), "--estimator", "optimal"
        )
        assert code == 0
        (row,) = parse_csv(out)
        assert row["estimator"] == "optimal"  # the flag wins
        assert row["n"] == 4
        ref = exact_fidelity(
            SchemeSpec(SchemeKind.LOCAL_XY, 4), "optimal", small_eq_prior,
            radial_order=32, angular_order=32,
        )
        assert row["fidelity"] == ref.fidelity

    def test_config_alone_drives_the_run(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "n": "2:6:2",
            "radial_order": 32,
            "angular_order": 32,
            "format": "json",
        }))
        code, out, err = run_cli(capsys, "sweep", "--config", str(cfg))
        assert code == 0
        payload = json.loads(out)
        assert [p["n"] for p in payload["points"]] == [2, 4, 6]

    def test_dashed_keys_accepted(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"n": 4, "radial-order": 32, "angular-order": 32}))
        code, out, err = run_cli(capsys, "fidelity", "--config", str(cfg))
        assert code == 0

    @pytest.mark.parametrize("key", ["frobnicate", "threads", "deterministic"])
    def test_unknown_key_rejected(self, capsys, tmp_path, key):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"n": 4, key: 1}))
        code, out, err = run_cli(capsys, "fidelity", "--config", str(cfg))
        assert code == 2
        assert "unknown config key" in err

    def test_invalid_json_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text("{not json")
        code, out, err = run_cli(capsys, "fidelity", "--config", str(cfg))
        assert code == 2
        assert "not valid JSON" in err

    def test_non_object_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text("[1, 2, 3]")
        code, out, err = run_cli(capsys, "fidelity", "--config", str(cfg))
        assert code == 2
        assert "JSON object" in err

    def test_missing_file_rejected(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys, "fidelity", "--n", "4", "--config", str(tmp_path / "absent.json")
        )
        assert code == 2
        assert "cannot read config file" in err

    def test_flag_set_to_zero_overrides_the_file(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"n": 4, "samples": 400, "seed": 5}))
        code, out, err = run_cli(capsys, "fidelity", "--config", str(cfg), "--seed", "0", *SMALL)
        assert code == 0
        (row,) = parse_csv(out)
        ref = monte_carlo_fidelity(
            SchemeSpec(SchemeKind.LOCAL_XY, 4), "optimal",
            build_prior(PriorKind.EQUATORIAL_BURES, 32, 32), 400, 0,
            radial_order=32, angular_order=32,
        )
        assert (row["fidelity"], row["stderr"]) == (ref.fidelity, ref.stderr)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("angular_order", 6.5),
            ("radial_order", True),
            ("samples", 10.7),
            ("seed", "abc"),
            ("enumeration_limit", 1e3),
            ("abs_tol", "1e-6"),
            ("estimator", 3),
            ("format", ["csv"]),
            ("out", 7),
        ],
    )
    def test_value_of_the_wrong_type_rejected(self, capsys, tmp_path, key, value):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"n": 4, "samples": 10, "seed": 1, key: value}))
        code, out, err = run_cli(capsys, "fidelity", "--config", str(cfg))
        assert code == 2
        assert err.startswith(f"error: {key} must be ")
        assert out == ""

    def test_fractional_n_list_rejected_before_evaluation(self, capsys, tmp_path, monkeypatch):
        runs = []
        monkeypatch.setattr("blochest.cli.run", runs.append)
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"n": [4.5], "radial_order": 16, "angular_order": 16}))
        code, out, err = run_cli(capsys, "fidelity", "--config", str(cfg))
        assert code == 2
        assert "invalid N list" in err
        assert out == ""
        assert runs == []


# --------------------------------------------------------------------------
# one parser per process
# --------------------------------------------------------------------------


class TestParserReuse:
    """``main`` parses with one cached parser; consecutive calls share nothing."""

    def test_parser_is_built_once(self):
        assert _build_parser() is _build_parser()

    def test_sweep_estimator_does_not_carry_over(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--n", "4", "--estimator", "ml", *SMALL)
        assert code == 0 and parse_csv(out)[0]["estimator"] == "ml"
        code, out, _ = run_cli(capsys, "sweep", "--n", "4", *SMALL)
        assert code == 0 and parse_csv(out)[0]["estimator"] == "optimal"

    def test_constants_format_does_not_carry_over(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--n", "4", "--format", "csv", *SMALL)
        assert code == 0 and out.startswith(CSV_HEADER)
        code, out, _ = run_cli(capsys, "constants")
        assert code == 0 and set(json.loads(out)) >= {"b1", "b2", "b3", "xi_o"}

    def test_usage_error_twice(self, capsys):
        for _ in range(2):
            with pytest.raises(SystemExit) as excinfo:
                main(["sweep", "--n", "4", "--no-such-flag"])
            assert excinfo.value.code == 2
        code, out, _ = run_cli(capsys, "fidelity", "--n", "4", *SMALL)
        assert code == 0 and len(parse_csv(out)) == 1


# --------------------------------------------------------------------------
# console script
# --------------------------------------------------------------------------


def _declared_entry_point():
    """The ``blochest`` line of ``[project.scripts]`` in ``pyproject.toml``."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(PYPROJECT, "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    return f"blochest = {scripts['blochest']}"


class TestConsoleScript:
    """Declared entry point written by pip's script writer; installed script on PATH; ``python -m blochest.cli``."""

    def test_installed_entry_point_runs(self, tmp_path):
        scripts = pytest.importorskip("pip._vendor.distlib.scripts")
        maker = scripts.ScriptMaker(None, str(tmp_path))
        maker.executable = sys.executable
        maker.variants = {""}
        [script] = maker.make(_declared_entry_point())
        package_root = os.path.dirname(os.path.dirname(blochest.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [package_root, env.get("PYTHONPATH")])
        )
        proc = subprocess.run(
            [script, "constants"], capture_output=True, text=True, timeout=120, env=env
        )
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert abs(payload["collective_coeff"] - 1.1744131815783876) < 1e-12

    @pytest.mark.skipif(
        shutil.which("blochest") is None,
        reason="blochest console script not on PATH (pip install -e .)",
    )
    def test_on_path_script_runs(self):
        proc = subprocess.run(
            [shutil.which("blochest"), "constants"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert abs(payload["collective_coeff"] - 1.1744131815783876) < 1e-12

    def test_module_invocation_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "blochest.cli", "fidelity", "--n", "2", *SMALL],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == CSV_HEADER
