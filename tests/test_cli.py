from __future__ import annotations

import argparse
import gc
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import corrbox
import corrbox.cli as cli
from corrbox.boxes import box_from_json_obj, box_to_json_obj, exact_fraction, format_fraction
from corrbox.cli import _json_text, main
from corrbox.cost import BASIS_KINDS, communication_cost
from corrbox.generators import (
    FAMILY_KINDS,
    TSIRELSON_ANGLES,
    FamilySpec,
    canonical,
    canonical_names,
    isotropic,
    quantum_box,
    sample,
)
from corrbox.verify import fuzz

from test_golden import GOLDEN

EXPECTED_SWEEP_HEADER = (
    "param,lambda_max,s,C,eta,I,U_A,U_B,"
    "param_exact,lambda_max_exact,s_exact,C_exact,eta_exact,I_exact,U_A_exact,U_B_exact"
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_pr_report(self, capsys):
        code, out, err = run(capsys, "analyze", "pr")
        assert code == 0 and err == ""
        obj = json.loads(out)
        assert obj["format"] == "analysis-v1"
        assert obj["chsh"]["lambda_max"] == "4/1"
        assert obj["chsh"]["values"] == ["0/1", "0/1", "4/1", "0/1"]
        assert obj["signal"] == {"a_to_b": "0/1", "b_to_a": "0/1", "s": "0/1"}
        assert obj["unpredictability"] == {"formula": "1/2", "per_party": "1/2"}
        assert obj["uncertainty"]["u_a"] == "1/2"
        assert set(obj["uncertainty"]["delta"]) == {"A0", "A1", "B0", "B1"}
        assert obj["cost"]["c"] == "1/1"
        assert obj["cost"]["eta"] == "1/1"
        assert obj["cost"]["lower_bound"] == "1/1"
        assert obj["flags"] == {
            "no_signaling": True,
            "lhv_admissible": False,
            "weakly_nonclassical": True,
            "strongly_nonclassical": True,
        }
        assert box_from_json_obj(obj["box"]) == canonical("pr")

    def test_output_is_byte_stable(self, capsys):
        _, first, _ = run(capsys, "analyze", "quantum", "--angles", "tsirelson")
        _, second, _ = run(capsys, "analyze", "quantum", "--angles", "tsirelson")
        assert first == second
        assert first.endswith("}\n")

    def test_angle_preset_matches_explicit_angles(self, capsys):
        _, preset, _ = run(capsys, "analyze", "quantum", "--angles", "tsirelson")
        _, explicit, _ = run(
            capsys, "analyze", "quantum", "--angles",
            "0.0", str(math.pi / 2), str(math.pi / 4), str(-math.pi / 4),
        )
        assert preset == explicit

    def test_wrong_angle_count_is_usage_error(self, capsys):
        code, _, err = run(capsys, "analyze", "quantum", "--angles", "0.1", "0.2")
        assert code == 2 and "angles" in err

    @pytest.mark.parametrize("bad", ["inf", "nan", "Infinity", "-inf", "-nan"])
    def test_non_finite_angle_is_usage_error(self, capsys, bad):
        code, out, err = run(capsys, "analyze", "quantum", "--angles", "0", "1", "2", bad)
        assert code == 2 and out == ""
        assert err.startswith("error: angle theta_b1 must be a finite number")

    def test_negative_angle_in_scientific_notation(self, capsys):
        code, scientific, _ = run(capsys, "analyze", "quantum", "--angles", "0", "1", "2", "-1e-3")
        _, decimal, _ = run(capsys, "analyze", "quantum", "--angles", "0", "1", "2", "-0.001")
        assert code == 0 and scientific == decimal

    def test_negative_fraction_weight_is_a_value(self, capsys):
        code, out, err = run(capsys, "analyze", "isotropic", "--v", "-1/2")
        assert code == 2 and out == ""
        assert err.startswith("error: isotropic parameter must be in [0, 1], got -1/2")

    def test_negative_fraction_angle_is_a_value(self, capsys):
        code, out, err = run(capsys, "analyze", "quantum", "--angles", "0", "1", "2", "-1/3")
        assert code == 2 and out == ""
        assert err.startswith("error: --angles needs radians, got ['0', '1', '2', '-1/3']")

    @pytest.mark.parametrize("token,decimal", [("-.5", "-0.5"), ("-0", "0")])
    def test_single_dash_number_is_an_angle(self, capsys, token, decimal):
        code, out, _ = run(capsys, "analyze", "quantum", "--angles", "0", "1", "2", token)
        _, want, _ = run(capsys, "analyze", "quantum", "--angles", "0", "1", "2", decimal)
        assert code == 0 and out == want

    @pytest.mark.parametrize(
        "token,message",
        [
            ("-inf", "error: Invalid literal for Fraction: '-inf'\n"),
            ("-.5", "error: isotropic parameter must be in [0, 1], got -1/2\n"),
        ],
    )
    def test_single_dash_number_is_a_weight(self, capsys, token, message):
        # the weight reaches the isotropic family, which refuses it
        assert run(capsys, "analyze", "isotropic", "--v", token) == (2, "", message)

    def test_negative_zero_weight_is_zero(self, capsys):
        code, out, _ = run(capsys, "analyze", "isotropic", "--v", "-0")
        assert code == 0 and out == run(capsys, "analyze", "isotropic", "--v", "0")[1]

    def test_option_like_token_is_still_an_option(self, capsys):
        code, _, err = run(capsys, "analyze", "quantum", "--angles", "0", "1", "2", "-x")
        assert code == 2 and "-x" in err

    def test_unknown_long_option_is_still_an_option(self, capsys):
        code, out, err = run(capsys, "analyze", "pr", "--opt")
        assert code == 2 and out == ""
        assert err.endswith("error: unrecognized arguments: --opt\n")

    def test_json_flag_matches_default(self, capsys):
        _, default, _ = run(capsys, "analyze", "pr")
        code, explicit, _ = run(capsys, "analyze", "pr", "--json")
        assert code == 0
        assert explicit == default

    def test_json_and_text_conflict(self, capsys):
        code, _, err = run(capsys, "analyze", "pr", "--json", "--text")
        assert code == 2
        assert "not allowed" in err

    def test_text_mode(self, capsys):
        code, out, _ = run(capsys, "analyze", "d0_1", "--text")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "lambda_max = 4/1"
        assert "s = 1/1" in lines
        assert "C = 1/1" in lines
        assert "eta = 0/1" in lines
        assert lines[-1].startswith("flags: ")

    def test_eta_star_block(self, capsys):
        code, out, _ = run(capsys, "analyze", "pr", "--dim", "2")
        assert code == 0
        block = json.loads(out)["eta_star"]
        assert block == {"d": 2, "value": "0", "approximate": True}

    def test_eta_star_dim_four(self, capsys):
        _, out, _ = run(capsys, "analyze", "pr", "--dim", "4")
        assert json.loads(out)["eta_star"]["value"] == "-1"

    def test_isotropic_source(self, capsys):
        code, out, _ = run(capsys, "analyze", "isotropic", "--v", "3/4")
        assert code == 0
        obj = json.loads(out)
        assert obj["cost"]["c"] == "1/2"
        assert obj["chsh"]["lambda_max"] == "3/1"

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        _, stdout_text, _ = run(capsys, "analyze", "noise")
        target = tmp_path / "report.json"
        code, out, _ = run(capsys, "analyze", "noise", "--out", str(target))
        assert code == 0 and out == ""
        assert target.read_text(encoding="utf-8") == stdout_text

    def test_stdin_source(self, capsys, monkeypatch):
        payload = json.dumps(box_to_json_obj(canonical("d2_0")))
        monkeypatch.setattr("sys.stdin", io.StringIO(payload))
        code, out, _ = run(capsys, "analyze", "-")
        assert code == 0
        assert json.loads(out)["signal"]["s"] == "0/1"

    def test_missing_v_is_usage_error(self, capsys):
        code, _, err = run(capsys, "analyze", "isotropic")
        assert code == 2
        assert err.startswith("error:")

    def test_missing_angles_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "analyze", "quantum")
        assert code == 2

    def test_unknown_source_is_usage_error(self, capsys):
        code, _, err = run(capsys, "analyze", "no-such-box")
        assert code == 2
        assert "no-such-box" in err

    def test_invalid_box_file_is_usage_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"format": "box-v1", "cells": ["1"]}', encoding="utf-8")
        code, _, err = run(capsys, "analyze", str(bad))
        assert code == 2 and err.startswith("error:")


class TestBoxFileErrors:
    """A box file that is not a valid box is an input error: exit 2 and one
    error line naming what is wrong."""

    COLUMN = ["1/4", "1/4", "1/4", "1/4"]

    def analyze_file(self, capsys, tmp_path, columns):
        path = tmp_path / "box.json"
        path.write_text(json.dumps({"format": "box-v1", "p": columns}), encoding="utf-8")
        return run(capsys, "analyze", str(path))

    def test_negative_entry_message(self, capsys, tmp_path):
        columns = [["1/2", "1/2", "1/2", "-1/2"]] + [self.COLUMN] * 3
        code, out, err = self.analyze_file(capsys, tmp_path, columns)
        assert (code, out, err) == (2, "", "error: entry 3 is negative: -1/2\n")

    def test_not_normalized_message(self, capsys, tmp_path):
        columns = [["1/3"] * 4] + [self.COLUMN] * 3
        code, out, err = self.analyze_file(capsys, tmp_path, columns)
        assert (code, out, err) == (2, "", "error: setting column 0 sums to 4/3, expected 1\n")

    @pytest.mark.parametrize(
        "entry,shown", [(0.25, "0.25"), (None, "null"), ([1], "[1]"), (True, "true"), (False, "false")]
    )
    def test_entry_that_is_not_exact(self, capsys, tmp_path, entry, shown):
        columns = [self.COLUMN, [0, 0, entry, 1]] + [self.COLUMN] * 2
        code, out, err = self.analyze_file(capsys, tmp_path, columns)
        expected = (
            "error: box entry 6 must be an integer or a rational string "
            f'such as "1/4", got {shown}\n'
        )
        assert (code, out, err) == (2, "", expected)

    def test_short_column(self, capsys, tmp_path):
        columns = [self.COLUMN] * 3 + [["1/2", "1/2"]]
        code, out, err = self.analyze_file(capsys, tmp_path, columns)
        assert (code, out, err) == (2, "", "error: each setting column needs 4 outcome entries\n")

    def test_zero_denominator(self, capsys, tmp_path):
        columns = [["1/0", 0, 0, 0]] + [self.COLUMN] * 3
        code, out, err = self.analyze_file(capsys, tmp_path, columns)
        assert (code, out) == (2, "")
        assert err == "error: box entry 0: zero denominator in '1/0'\n"

    def test_zero_denominator_parameter(self, capsys):
        code, out, err = run(capsys, "analyze", "isotropic", "--v", "1/0")
        assert (code, out, err) == (2, "", "error: zero denominator in '1/0'\n")

    def test_deeply_nested_file(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 2000 + "]" * 2000, encoding="utf-8")
        code, out, err = run(capsys, "analyze", str(path))
        expected = f"error: box file {str(path)!r} nests too deeply to read\n"
        assert (code, out, err) == (2, "", expected)

    def test_deeply_nested_columns_on_stdin(self, capsys, monkeypatch):
        payload = '{"format": "box-v1", "p": ' + "[" * 1200 + "]" * 1200 + "}"
        monkeypatch.setattr("sys.stdin", io.StringIO(payload))
        code, out, err = run(capsys, "decompose", "-")
        assert (code, out, err) == (2, "", "error: the box on stdin nests too deeply to read\n")

    def test_integer_past_the_digit_limit(self, capsys, tmp_path):
        # json reads a bare integer with int(), which refuses more digits
        # than sys.get_int_max_str_digits().
        digits = sys.get_int_max_str_digits()
        rest = ", ".join([json.dumps(self.COLUMN)] * 3)
        path = tmp_path / "box.json"
        path.write_text(
            '{"format": "box-v1", "p": [[' + "1" * (digits + 1) + ", 0, 0, 0], " + rest + "]}",
            encoding="utf-8",
        )
        code, out, err = run(capsys, "analyze", str(path))
        expected = f"error: box file {str(path)!r} holds an integer of more than {digits} digits\n"
        assert (code, out, err) == (2, "", expected)


class TestOversizedNumbers:
    """A rational string whose numerator or denominator would pass Python's
    digit limit is an input error, refused before a large exponent is
    expanded: exit 2, one error line naming the limit."""

    DECIMAL = "0." + "3" * 5000

    def check(self, code, out, err):
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"limit of {sys.get_int_max_str_digits()}" in err

    @pytest.mark.parametrize(
        "v",
        ["1e-5000", "1e5000", "1e-10000000", DECIMAL, "1e4300", "1e-4300"],
        ids=["1e-5000", "1e5000", "1e-10000000", "decimal", "1e4300", "1e-4300"],
    )
    def test_parameter(self, capsys, v):
        self.check(*run(capsys, "analyze", "isotropic", "--v", v))

    @pytest.mark.parametrize("entry", ["1e-5000", DECIMAL], ids=["1e-5000", "decimal"])
    def test_box_entry(self, capsys, tmp_path, entry):
        columns = [[entry, 0, 0, 0]] + [TestBoxFileErrors.COLUMN] * 3
        code, out, err = TestBoxFileErrors().analyze_file(capsys, tmp_path, columns)
        self.check(code, out, err)
        assert err.startswith("error: box entry 0: ")

    @pytest.mark.parametrize(
        "literal, value",
        [
            # Fraction builds a 4301-digit denominator, but the reduced one
            # is under the limit.
            ("1000e-4300", Fraction(1, 10**4297)),
            ("0e-5000", 0),
            ("0e-10000000", 0),
            ("0.0e5000", 0),
            ("-00.0E+10000000", 0),
        ],
    )
    def test_accepted(self, literal, value):
        assert exact_fraction(literal) == value

    def test_no_limit_before_python_3_10_7(self, monkeypatch):
        monkeypatch.delattr(sys, "get_int_max_str_digits")
        assert exact_fraction("1e-5000") == Fraction(1, 10**5000)


class TestOneSolvePerBox:
    """Commands that need a box's cost and a decomposition solve it once."""

    @staticmethod
    def count_solves(monkeypatch):
        import corrbox.lp as lp

        calls = []
        solve = lp._solve_prepared

        def counted(*args, **kwargs):
            calls.append(1)
            return solve(*args, **kwargs)

        monkeypatch.setattr(lp, "_solve_prepared", counted)
        return calls

    def test_alt_on_unique_support(self, capsys, monkeypatch):
        calls = self.count_solves(monkeypatch)
        code, out, _ = run(capsys, "decompose", "d3_1", "--alt")
        assert code == 0 and json.loads(out)["second"] is None
        assert len(calls) == 1

    def test_analyze_with_dim(self, capsys, monkeypatch):
        calls = self.count_solves(monkeypatch)
        code, _, _ = run(capsys, "analyze", "pr", "--dim", "2")
        assert code == 0
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "argv,basis",
        [
            # pr is in the 16-box hull: the table's C is the F form
            (("analyze", "pr", "--text"), "chsh16"),
            (("analyze", "noise", "--text"), "full256"),
            (("analyze", "pr", "--text", "--dim", "2"), "chsh16"),
        ],
    )
    def test_text_report_proves_c_with_one_program(self, capsys, monkeypatch, argv, basis):
        # The program each proof runs: the chsh16 feasibility solve, or
        # _solve_cost's on its basis.
        import corrbox.cost as cost
        import corrbox.lp as lp

        solved = []
        real_solve, real_feasible = cost._solve_cost, lp._feasible

        def recorded(box, basis, *args, **kwargs):
            solved.append(basis)
            return real_solve(box, basis, *args, **kwargs)

        def feasible(*args):
            solved.append("chsh16")
            return real_feasible(*args)

        monkeypatch.setattr(cost, "_solve_cost", recorded)
        monkeypatch.setattr(lp, "_feasible", feasible)
        code, _, _ = run(capsys, *argv)
        assert code == 0
        assert solved == [basis]


class TestOneMeasurePerBox:
    def test_analyze_evaluates_chsh_and_signal_once(self, capsys, monkeypatch):
        import corrbox.measures as measures

        calls = []
        # the integer kernels behind chsh and signal
        for name in ("_chsh_values", "_signal_values"):
            real = getattr(measures, name)

            def counted(box, name=name, real=real):
                calls.append(name)
                return real(box)

            # every module that imported the function holds its own name
            for module_name, module in list(sys.modules.items()):
                if module_name.startswith("corrbox") and getattr(module, name, None) is real:
                    monkeypatch.setattr(module, name, counted)
        code, _, _ = run(capsys, "analyze", "pr")
        assert code == 0
        assert sorted(calls) == ["_chsh_values", "_signal_values"]


class TestParserLifetime:
    def test_each_parser_is_freed_by_the_next_command(self, capsys):
        # A parser is reference cycles; kept alive through its command it
        # outlived the young-generation collections and piled up in-process.
        for seed in range(30):
            run(capsys, "fuzz", "--family", "oneway_slice", "--seed", str(seed), "--count", "3")
        parsers = [
            o for o in gc.get_objects()
            if isinstance(o, argparse.ArgumentParser) and o.prog == "corrbox fuzz"
        ]
        assert len(parsers) <= 1


class TestTextOut:
    def test_text_report_goes_to_the_file(self, capsys, tmp_path):
        _, stdout_text, _ = run(capsys, "analyze", "pr", "--text", "--dim", "3")
        target = tmp_path / "report.txt"
        code, out, err = run(
            capsys, "analyze", "pr", "--text", "--dim", "3", "--out", str(target)
        )
        assert code == 0 and out == "" and err == ""
        assert target.read_text(encoding="utf-8") == stdout_text
        assert stdout_text.startswith("lambda_max = 4/1\n")


class TestInternalError:
    """A failed solver self-check exits 3 with one line on stderr, apart from
    1 (a claimed property failed) and 2 (usage or input error)."""

    def test_failed_dual_check_in_fuzz(self, capsys, monkeypatch):
        import corrbox.lp as lp

        def broken(self):
            raise RuntimeError("optimal basis is not dual-feasible")

        monkeypatch.setattr(lp._Engine, "check_dual_feasible", broken)
        code, out, err = run(capsys, "fuzz", "--family", "general", "--count", "3")
        assert code == 3 and out == ""
        assert err == "error: internal: optimal basis is not dual-feasible on general sample 0\n"

    def test_failed_proof_names_its_sample(self, capsys, monkeypatch):
        # Each general box's proof makes one basis-dual check: the third
        # fails on sample 2.
        import corrbox.lp as lp

        check, calls = lp._Engine.check_dual_feasible, []

        def third_fails(self):
            calls.append(None)
            if len(calls) >= 3:
                raise RuntimeError("optimal basis is not dual-feasible")
            check(self)

        monkeypatch.setattr(lp._Engine, "check_dual_feasible", third_fails)
        code, out, err = run(capsys, "fuzz", "--family", "general", "--count", "5")
        assert code == 3 and out == ""
        assert err.endswith(" on general sample 2\n") and err.count("\n") == 1

    @staticmethod
    def fail_resubstitution(monkeypatch):
        import corrbox.lp as lp

        def broken(self):
            raise RuntimeError("solver state fails re-substitution")

        monkeypatch.setattr(lp._Engine, "check_basic_state", broken)

    def test_failed_hull_proof_names_its_sample(self, capsys, monkeypatch):
        # A hull box's proof is the chsh16 feasibility solve, whose vertex
        # is re-substituted on its way out.
        self.fail_resubstitution(monkeypatch)
        code, out, err = run(capsys, "fuzz", "--family", "chsh16_mixture", "--count", "5")
        assert code == 3 and out == ""
        assert err == (
            "error: internal: solver state fails re-substitution on chsh16_mixture sample 0\n"
        )

    def test_failed_proof_in_text_report_has_no_sample(self, capsys, monkeypatch):
        self.fail_resubstitution(monkeypatch)
        code, out, err = run(capsys, "analyze", "pr", "--text")
        assert code == 3 and out == ""
        assert err == "error: internal: solver state fails re-substitution\n"

    def test_failed_solve_in_analyze(self, capsys, monkeypatch):
        import corrbox.lp as lp

        def broken(*args, **kwargs):
            raise RuntimeError("inexact division in basis update")

        monkeypatch.setattr(lp, "_solve_prepared", broken)
        code, out, err = run(capsys, "analyze", "pr")
        assert code == 3 and out == ""
        assert err.startswith("error: internal: ") and err.count("\n") == 1

    @staticmethod
    def run_without_last_orbit(capsys, monkeypatch, tmp_path, command, *options):
        """Run command on a box file, which must pass with the full table, with
        the orbit of 128 dropped: the table then reads 15/26 on this box, and
        the two-phase program's 8/13 refutes it."""
        import corrbox.cost as cost
        from corrbox.boxes import Box

        box = Box.from_numerators((10, 1, 1, 1, 1, 6, 5, 1, 1, 2, 7, 3, 1, 6, 5, 1), 13)
        path = tmp_path / "box.json"
        path.write_text(json.dumps(box_to_json_obj(box)), encoding="utf-8")
        assert run(capsys, command, str(path), *options)[0] == 0
        monkeypatch.setattr(cost, "_DUAL_ORBITS", cost._DUAL_ORBITS[:-1])
        cost._dual_vertices.cache_clear()
        try:
            code, out, err = run(capsys, command, str(path), *options)
        finally:
            cost._dual_vertices.cache_clear()
        assert code == 3 and out == ""
        assert err == (
            "error: internal: program value 8/13 disagrees with the dual-vertex "
            "table's 15/26\n"
        )

    def test_incomplete_vertex_table_in_analyze(self, capsys, monkeypatch, tmp_path):
        self.run_without_last_orbit(capsys, monkeypatch, tmp_path, "analyze")

    def test_incomplete_vertex_table_in_analyze_text(self, capsys, monkeypatch, tmp_path):
        # The text report proves the table's C with the full256 program.
        self.run_without_last_orbit(capsys, monkeypatch, tmp_path, "analyze", "--text")

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(("sweep", "--steps", "4"), id="sweep"),
            pytest.param(("repro",), id="repro"),
            pytest.param(("analyze", "pr", "--text"), id="analyze-text"),
            pytest.param(("fuzz", "--family", "chsh16_mixture", "--count", "3"), id="fuzz"),
        ],
    )
    def test_row_above_the_dual_polytope(self, capsys, monkeypatch, argv):
        # The orbit of 8 with its representative doubled still has 8 rows,
        # but they leave the dual polytope: read unchecked, sweep would print
        # C = 1 at v = 3/4.  The table is checked where it is built.
        import corrbox.cost as cost

        (size, rep), *rest = cost._DUAL_ORBITS
        doubled = ((size, tuple(2 * v for v in rep)), *rest)
        monkeypatch.setattr(cost, "_DUAL_ORBITS", doubled)
        cost._dual_vertices.cache_clear()
        try:
            code, out, err = run(capsys, *argv)
        finally:
            cost._dual_vertices.cache_clear()
        assert code == 3 and out == ""
        assert err.startswith("error: internal: dual-vertex table row ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("alt", [(), ("--alt",)])
    def test_incomplete_vertex_table_in_decompose(self, capsys, monkeypatch, tmp_path, alt):
        # The first decomposition, with or without the optimal-face search,
        # is checked against the table like analyze's C.
        self.run_without_last_orbit(capsys, monkeypatch, tmp_path, "decompose", *alt)

    @pytest.mark.parametrize("alt", [(), ("--alt",)])
    @pytest.mark.parametrize(
        "source,falsified,message",
        [
            # pr is in the hull: a hull form that never attains the maximum
            # puts it outside, and the feasible program refutes that.
            pytest.param(
                ("pr",), lambda form, top: form + 1,
                "program value 1 disagrees with the dual-vertex table's not-in-hull",
                id="pr-put-outside",
            ),
            # isotropic 1/4 is outside: a hull form that always attains the
            # maximum puts it inside, and the infeasible program refutes that.
            pytest.param(
                ("isotropic", "--v", "1/4"), lambda form, top: top,
                "infeasible chsh16 program disagrees with the dual-vertex table's 0",
                id="isotropic-put-inside",
            ),
        ],
    )
    def test_wrong_hull_test_in_decompose(
        self, capsys, monkeypatch, source, falsified, message, alt
    ):
        import corrbox.cost as cost

        real = cost._hull_numerator
        monkeypatch.setattr(
            cost, "_hull_numerator", lambda box: falsified(real(box), cost._cost_numerator(box))
        )
        code, out, err = run(capsys, "decompose", *source, "--basis", "chsh16", *alt)
        assert code == 3 and out == ""
        assert err == f"error: internal: {message}\n"

    def test_shifted_second_vertex_in_decompose_alt(self, capsys, monkeypatch):
        # The second decomposition is checked like the first: one weight of
        # the second vertex shifted by 1/7 makes it cost 8/7, not 1.
        import corrbox.lp as lp

        optimal = lp._optimal

        def shifted(engine, **kwargs):
            vertex = optimal(engine, **kwargs)
            if "value" not in kwargs:
                return vertex  # the two-phase exit: the first vertex
            point = list(vertex.point)
            point[next(j for j in vertex.basis if point[j] != 0)] += Fraction(1, 7)
            return lp.LpSolution(
                vertex.status, vertex.value, tuple(point), vertex.basis, vertex.certificate
            )

        monkeypatch.setattr(lp, "_optimal", shifted)
        code, out, err = run(capsys, "decompose", "pr", "--alt")
        assert code == 3 and out == ""
        assert err == "error: internal: decomposition cost disagrees with program value\n"

    def test_wrong_hull_test_in_fuzz(self, capsys, monkeypatch):
        # fuzz's cross-check asks cost's hull rule: one that puts every box
        # inside sends a general box to the chsh16 program, which refutes it.
        import corrbox.cost as cost

        monkeypatch.setattr(cost, "_hull_numerator", cost._cost_numerator)
        code, out, err = run(capsys, "fuzz", "--family", "general", "--seed", "3", "--count", "5")
        assert code == 3 and out == ""
        assert err.startswith("error: internal: infeasible chsh16 program disagrees")
        assert err.endswith(" on general sample 0\n") and err.count("\n") == 1

    def test_usage_error_keeps_code_two(self, capsys):
        code, _, err = run(capsys, "analyze", "pr", "--dim", "1")
        assert code == 2 and err.startswith("error: ")
        assert "internal" not in err


class TestGen:
    def test_single_canonical_to_stdout(self, capsys):
        code, out, _ = run(capsys, "gen", "--kind", "noise")
        assert code == 0
        assert box_from_json_obj(json.loads(out)) == canonical("noise")

    def test_single_isotropic(self, capsys):
        code, out, _ = run(capsys, "gen", "--kind", "isotropic", "--v", "0.7")
        assert code == 0
        assert box_from_json_obj(json.loads(out)) == isotropic(Fraction(7, 10))

    def test_family_writes_numbered_files(self, capsys, tmp_path):
        out_dir = tmp_path / "boxes"
        code, out, _ = run(
            capsys, "gen", "--family", "general", "--seed", "9",
            "--count", "3", "--out", str(out_dir),
        )
        assert code == 0 and out == ""
        names = sorted(p.name for p in out_dir.iterdir())
        assert names == ["box-0000.json", "box-0001.json", "box-0002.json"]
        for name in names:
            obj = json.loads((out_dir / name).read_text(encoding="utf-8"))
            box_from_json_obj(obj)  # validates

    def test_family_seed_defaults_to_zero(self, capsys):
        default = run(capsys, "gen", "--family", "general")
        assert default == run(capsys, "gen", "--family", "general", "--seed", "0")
        assert default[0] == 0

    def test_seeded_output_is_stable(self, capsys, tmp_path):
        first = tmp_path / "a"
        second = tmp_path / "b"
        for target in (first, second):
            run(capsys, "gen", "--family", "chsh16_mixture", "--seed", "11",
                "--count", "2", "--out", str(target))
        for name in ("box-0000.json", "box-0001.json"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_quantum_preset(self, capsys):
        code, out, _ = run(
            capsys, "gen", "--kind", "quantum", "--angles", "tsirelson",
            "--denom", "1000000",
        )
        assert code == 0
        box = box_from_json_obj(json.loads(out))
        from corrbox.measures import chsh

        assert abs(float(chsh(box).lambda_max) - 2 * math.sqrt(2)) < 4e-6

    def test_kind_and_family_conflict(self, capsys):
        code, _, _ = run(capsys, "gen", "--kind", "pr", "--family", "general")
        assert code == 2

    def test_neither_kind_nor_family(self, capsys):
        code, _, _ = run(capsys, "gen")
        assert code == 2

    def test_count_without_family(self, capsys):
        code, _, _ = run(capsys, "gen", "--kind", "pr", "--count", "3")
        assert code == 2

    def test_count_without_out(self, capsys):
        code, _, _ = run(capsys, "gen", "--family", "general", "--count", "2")
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["--family", "general", "--count", "0"],
            ["--kind", "pr", "--count", "0"],
            ["--family", "oneway_slice", "--count", "-1"],
        ],
    )
    def test_count_below_one(self, capsys, argv):
        code, out, err = run(capsys, "gen", *argv)
        assert code == 2 and out == ""
        assert err == "error: --count must be at least 1\n"

    def test_negative_seed_is_usage_error(self, capsys, tmp_path):
        target = tmp_path / "boxes"
        for count, out in (("1", []), ("2", ["--out", str(target)])):
            code, stdout, err = run(
                capsys, "gen", "--family", "general", "--seed", "-5", "--count",
                count, *out,
            )
            assert code == 2 and stdout == ""
            assert err == "error: seed must be nonnegative, got -5\n"
        assert not target.exists()

    def test_count_zero_writes_nothing(self, capsys, tmp_path):
        target = tmp_path / "boxes"
        code, _, err = run(
            capsys, "gen", "--family", "general", "--count", "0", "--out", str(target)
        )
        assert code == 2 and "--count must be at least 1" in err
        assert not target.exists()

    @pytest.mark.parametrize(
        "params,message",
        [
            (["isotropic"], "isotropic needs --v"),
            (["quantum"], "quantum needs --angles"),
            (["quantum", "--angles", "0", "x", "1", "2"], "--angles needs radians"),
            (["quantum", "--angles", "0.1"], "--angles takes four radians"),
        ],
    )
    def test_parametric_errors_match_analyze(self, capsys, params, message):
        kind, *rest = params
        for argv in (["gen", "--kind", kind, *rest], ["analyze", kind, *rest]):
            code, _, err = run(capsys, *argv)
            assert code == 2 and message in err, argv


class TestDecompose:
    @pytest.mark.parametrize(
        "argv,box,basis,cost",
        [
            pytest.param(("pr",), lambda: canonical("pr"), "full256", "1/1", id="pr"),
            pytest.param(
                ("pr", "--alt"), lambda: canonical("pr"), "full256", "1/1", id="pr-alt"
            ),
            pytest.param(
                ("noise", "--alt"), lambda: canonical("noise"), "full256", "0/1",
                id="noise-alt",
            ),
            pytest.param(
                ("d3_1", "--alt"), lambda: canonical("d3_1"), "full256", "1/1",
                id="d3_1-alt",
            ),
            pytest.param(
                ("isotropic", "--v", "7/10", "--basis", "chsh16", "--alt"),
                lambda: isotropic(Fraction(7, 10)), "chsh16", "2/5",
                id="isotropic-chsh16-alt",
            ),
            pytest.param(
                ("quantum", "--angles", "tsirelson", "--alt"),
                lambda: quantum_box(TSIRELSON_ANGLES, 10**6), "full256",
                "173145015233/418009044032", id="quantum-alt",
            ),
        ],
    )
    def test_every_printed_decomposition_mixes_back(self, capsys, argv, box, basis, cost):
        # Each printed decomposition, the second wherever it is not null, is
        # checked from the strategy table alone: weights summing to 1 that
        # mix back to the box, at the printed cost.
        from corrbox.boxes import enumerate_deterministic, exact_fraction, mix

        code, out, _ = run(capsys, "decompose", *argv)
        assert code == 0
        obj = json.loads(out)
        printed = [obj["first"], obj["second"]] if "--alt" in argv else [obj]
        printed = [d for d in printed if d is not None]
        dets = enumerate_deterministic()
        for decomposition in printed:
            assert decomposition["basis"] == basis and decomposition["cost"] == cost
            weights = {int(i): exact_fraction(w) for i, w in decomposition["weights"].items()}
            assert sum(weights.values()) == 1
            assert mix([(w, dets[i].as_box()) for i, w in weights.items()]) == box()
            bits = sum(w * dets[i].cost_bits for i, w in weights.items())
            assert format_fraction(bits) == cost

    def test_noise_outside_chsh16_hull(self, capsys):
        code, out, _ = run(capsys, "decompose", "noise", "--basis", "chsh16")
        assert code == 0
        assert json.loads(out) == {"basis": "chsh16", "status": "not-in-hull"}

    def test_alt_on_noise_finds_disjoint_pair(self, capsys):
        code, out, _ = run(capsys, "decompose", "noise", "--alt")
        assert code == 0
        obj = json.loads(out)
        first = set(obj["first"]["weights"])
        second = set(obj["second"]["weights"])
        assert first and second and not (first & second)
        assert obj["first"]["cost"] == "0/1" and obj["second"]["cost"] == "0/1"

    def test_alt_on_vertex_has_no_second(self, capsys):
        code, out, _ = run(capsys, "decompose", "d0_0", "--alt")
        assert code == 0
        obj = json.loads(out)
        assert obj["first"]["weights"] == {"0": "1/1"}
        assert obj["second"] is None

    def test_alt_outside_hull(self, capsys):
        code, out, _ = run(capsys, "decompose", "noise", "--basis", "chsh16", "--alt")
        assert code == 0
        assert json.loads(out)["status"] == "not-in-hull"


class TestFuzzCommand:
    def test_clean_run_exits_zero(self, capsys):
        code, out, _ = run(
            capsys, "fuzz", "--family", "chsh16_mixture", "--seed", "1",
            "--count", "20",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["format"] == "findings-v1"
        assert obj["aborted"] is False
        assert obj["checked"] == 20

    def test_negative_seed_is_usage_error(self, capsys, tmp_path):
        target = tmp_path / "findings.json"
        for out in ([], ["--out", str(target)]):
            code, stdout, err = run(
                capsys, "fuzz", "--family", "general", "--seed", "-5", "--count",
                "30", *out,
            )
            assert code == 2 and stdout == ""
            assert err == "error: seed must be nonnegative, got -5\n"
        assert not target.exists()

    def test_corrupted_run_exits_one_with_witness(self, capsys, monkeypatch):
        monkeypatch.setenv("CORRBOX_FUZZ_CORRUPT", "1")
        code, out, _ = run(capsys, "fuzz", "--count", "5", "--seed", "1")
        assert code == 1
        obj = json.loads(out)
        assert obj["aborted"] is True and obj["corrupted"] is True
        assert obj["violating_witnesses"]
        witness = obj["violating_witnesses"][0]
        assert witness["strictness"] == "asserted"
        box_from_json_obj(witness["box"])  # witness serializes as a valid box


def _rational(text: str) -> Fraction:
    """A report's rational string, which must be in lowest-terms num/den form."""
    value = Fraction(text)
    assert format_fraction(value) == text, text
    return value


def _reloads_to_the_same_bytes(text: str) -> dict:
    """The object a report's JSON text loads to; dumping it again the way
    the CLI does must give the same bytes."""
    obj = json.loads(text)
    assert json.dumps(obj, indent=2) + "\n" == text
    return obj


class TestReportJsonRoundTrip:
    """analysis-v1 and findings-v1 on sampled boxes of every family: each
    rational string reads back to the exact field it came from, each
    embedded box to an equal Box, and the loaded object dumps to the same
    bytes."""

    @settings(max_examples=40)
    @given(family=st.sampled_from(FAMILY_KINDS), seed=st.integers(0, 2**32))
    def test_analysis(self, family, seed):
        box = sample(FamilySpec(family, seed), 1)[0]
        out = io.StringIO()
        stdin = io.StringIO(json.dumps(box_to_json_obj(box)))
        with mock.patch("sys.stdin", stdin), redirect_stdout(out):
            assert main(["analyze", "-"]) == 0
        obj = _reloads_to_the_same_bytes(out.getvalue())
        assert obj["format"] == "analysis-v1"
        assert box_from_json_obj(obj["box"]) == box
        a = communication_cost(box)
        chsh, sig, unc, cost = obj["chsh"], obj["signal"], obj["uncertainty"], obj["cost"]
        assert tuple(map(_rational, chsh["values"])) == a.chsh.values
        assert _rational(chsh["lambda_max"]) == a.chsh.lambda_max
        assert _rational(sig["a_to_b"]) == a.signal.s_a_to_b
        assert _rational(sig["b_to_a"]) == a.signal.s_b_to_a
        assert _rational(sig["s"]) == a.s
        assert _rational(obj["unpredictability"]["formula"]) == a.i_formula
        assert _rational(obj["unpredictability"]["per_party"]) == a.i_per_party
        delta = {(key[0], int(key[1])): _rational(v) for key, v in unc["delta"].items()}
        assert delta == a.uncertainty.delta
        assert _rational(unc["u_a"]) == a.uncertainty.u_a
        assert _rational(unc["u_b"]) == a.uncertainty.u_b
        assert _rational(cost["c"]) == a.c
        assert _rational(cost["eta"]) == a.eta
        assert _rational(cost["lower_bound"]) == a.lower_bound
        decomposition = cost["decomposition"]
        assert decomposition["basis"] == a.decomposition.basis_kind
        assert _rational(decomposition["cost"]) == a.decomposition.cost
        weights = {int(i): _rational(w) for i, w in decomposition["weights"].items()}
        assert weights == a.decomposition.weights

    @settings(max_examples=20)
    @given(
        family=st.sampled_from(FAMILY_KINDS),
        seed=st.integers(0, 2**32),
        count=st.integers(1, 8),
        corrupt=st.booleans(),
    )
    def test_findings(self, family, seed, count, corrupt):
        # a corrupted run aborts on its planted box, so it has witnesses
        with mock.patch.dict(os.environ, {"CORRBOX_FUZZ_CORRUPT": "1" if corrupt else "0"}):
            report = fuzz(FamilySpec(family, seed), count)
        obj = _reloads_to_the_same_bytes(json.dumps(report.to_json_obj(), indent=2) + "\n")
        assert obj["format"] == "findings-v1"
        header = ("family", "seed", "samples", "checked", "aborted", "corrupted")
        assert [obj[k] for k in header] == [getattr(report, k) for k in header]
        per = {k: (v["checked"], v["held"], v["violated"]) for k, v in obj["per_property"].items()}
        assert per == report.per_property
        assert len(obj["violating_witnesses"]) == len(report.witnesses)
        assert bool(report.witnesses) == corrupt
        for got, r in zip(obj["violating_witnesses"], report.witnesses):
            assert [got["property"], got["variant"], got["strictness"]] == [
                r.property_id, r.variant, r.strictness
            ]
            assert _rational(got["slack"]) == r.slack
            assert box_from_json_obj(got["box"]) == r.witness


# Strings with quotes, backslashes, control characters, DEL, non-ASCII,
# astral and lone surrogate code points; ints past 2**64; the float edge cases.
_JSON_STRINGS = st.text(
    alphabet=st.sampled_from('"\\/\x00\x08\x1f\x7f\u00e9\u20ac\U0001f600\ud800 a') | st.characters(),
    max_size=8,
)
_JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-(2**80), 2**80)
    | st.sampled_from([2**64, -(2**64) - 1, 10**30])
    | st.floats()
    | st.sampled_from([-0.0, 5e-324, 2.0**-1030, 1e308, math.nan, math.inf, -math.inf])
    | _JSON_STRINGS
)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(_JSON_STRINGS, inner, max_size=4),
    max_leaves=12,
)


class TestJsonText:
    """The CLI writes its JSON itself; json.dumps(obj, indent=2) is the
    reference for every byte."""

    @staticmethod
    def assert_as_json(obj) -> None:
        assert _json_text(obj) == json.dumps(obj, indent=2)

    def test_every_golden_object(self, capsys, monkeypatch):
        import corrbox.cli as cli

        emitted = []
        emit = cli._emit

        def recorded(obj, handle):
            emitted.append(obj)
            emit(obj, handle)

        monkeypatch.setattr(cli, "_emit", recorded)
        for command, _ in GOLDEN:
            main(command.split())
        monkeypatch.setenv("CORRBOX_FUZZ_CORRUPT", "1")
        main("fuzz --family oneway_slice --seed 7 --count 50".split())
        capsys.readouterr()
        json_commands = [c for c, _ in GOLDEN if "--text" not in c and c.split()[0] != "sweep"]
        assert len(emitted) == len(json_commands) + 1
        for obj in emitted:
            self.assert_as_json(obj)

    @given(obj=_JSON_VALUES)
    def test_nested_values(self, obj):
        self.assert_as_json(obj)

    @pytest.mark.parametrize("obj", [{1: "a"}, [Fraction(1, 2)], {"a": {None: 1}}, b"x"])
    def test_what_a_report_never_holds_is_refused(self, obj):
        with pytest.raises(TypeError):
            _json_text(obj)


class TestRepro:
    def test_exit_zero_and_empty_failures(self, capsys):
        code, out, _ = run(capsys, "repro")
        assert code == 0
        obj = json.loads(out)
        assert obj["format"] == "repro-v1"
        assert obj["failures"] == []

    def test_wrong_hull_test_is_a_failed_expectation(self, capsys, monkeypatch):
        # A hull rule that puts every box outside is a finding of the
        # scenario (exit 1), not a usage error (2) or an internal one (3).
        import corrbox.cost as cost

        real = cost._hull_numerator
        monkeypatch.setattr(cost, "_hull_numerator", lambda box: real(box) + 1)
        code, out, err = run(capsys, "repro")
        assert code == 1 and err == ""
        obj = json.loads(out)
        assert obj["pr_panel"]["c_chsh16"] == "not-in-hull"
        assert "pr_panel: chsh16 cost 1 failed" in obj["failures"]

    def test_failures_name_not_in_hull(self, capsys, monkeypatch):
        # With every box outside the hull, the failure strings say so as the
        # JSON rows do, never as None.
        import corrbox.cost as cost

        monkeypatch.setattr(cost, "_hull_numerator", lambda box: -1)
        code, out, _ = run(capsys, "repro")
        failures = json.loads(out)["failures"]
        assert code == 1 and not any("None" in f for f in failures)
        assert "mixture_grid d0_1/d2_1 p=0: cost 1/not-in-hull != 1" in failures
        assert "isotropic_sweep v=1/2: hull cost not-in-hull" in failures


class TestSweep:
    def test_header_and_shape(self, capsys):
        code, out, _ = run(capsys, "sweep", "--steps", "4")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == EXPECTED_SWEEP_HEADER
        assert len(lines) == 6
        row = dict(zip(lines[0].split(","), lines[4].split(",")))  # v = 3/4
        assert row["param_exact"] == "3/4"
        assert row["C"] == "0.5" and row["C_exact"] == "1/2"
        assert row["lambda_max_exact"] == "3/1"

    def test_endpoint_rows(self, capsys):
        _, out, _ = run(capsys, "sweep", "--steps", "2")
        lines = out.splitlines()
        first = lines[1].split(",")
        last = lines[3].split(",")
        assert first[0] == "0" and last[0] == "1"
        assert last[3] == "1"  # C at the extreme point

    def test_csv_file_matches_stdout(self, capsys, tmp_path):
        _, stdout_text, _ = run(capsys, "sweep", "--steps", "3")
        target = tmp_path / "sweep.csv"
        code, out, _ = run(capsys, "sweep", "--steps", "3", "--csv", str(target))
        assert code == 0 and out == ""
        assert target.read_text(encoding="utf-8") == stdout_text

    def test_bad_kind(self, capsys):
        code, _, _ = run(capsys, "sweep", "--kind", "spiral")
        assert code == 2

    def test_zero_steps(self, capsys):
        code, _, _ = run(capsys, "sweep", "--steps", "0")
        assert code == 2


class TestDestinationOpenedFirst:
    """A command opens its output before any work, so an unwritable path
    exits 2 with one error line and nothing computed."""

    @staticmethod
    def missing(tmp_path, name):
        return str(tmp_path / "missing" / name)

    @staticmethod
    def counted(monkeypatch, module, name):
        calls = []
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a: calls.append(1) or real(*a))
        return calls

    def test_fuzz_draws_no_box(self, capsys, tmp_path, monkeypatch):
        from corrbox import generators

        drawn = self.counted(monkeypatch, generators, "_sample_general")
        code, out, err = run(
            capsys, "fuzz", "--family", "general", "--count", "300",
            "--out", self.missing(tmp_path, "f.json"),
        )
        assert code == 2 and out == "" and drawn == []
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_sweep_analyzes_nothing(self, capsys, tmp_path, monkeypatch):
        import corrbox.verify as verify

        calls = self.counted(monkeypatch, verify, "analyze")
        code, out, err = run(
            capsys, "sweep", "--steps", "200", "--csv", self.missing(tmp_path, "x.csv")
        )
        assert code == 2 and out == "" and calls == []
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv,name",
        [
            (("analyze", "pr"), "communication_cost"),
            (("analyze", "pr", "--text"), "analyze"),
            (("decompose", "pr"), "communication_cost"),
            (("decompose", "pr", "--alt"), "optimal_decompositions"),
            (("repro",), "reproduce_paper"),
        ],
    )
    def test_report_computes_nothing(self, capsys, tmp_path, monkeypatch, argv, name):
        import corrbox.cli as cli
        import corrbox.verify as verify

        # The handlers call verify's functions through corrbox.verify.
        module = verify if name in ("analyze", "reproduce_paper") else cli
        calls = self.counted(monkeypatch, module, name)
        code, out, err = run(capsys, *argv, "--out", self.missing(tmp_path, "r.json"))
        assert code == 2 and out == "" and calls == []
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv,message",
        [
            (("fuzz", "--count", "-1"), "count must be nonnegative, got -1"),
            (("analyze", "pr", "--dim", "1"), "alphabet dimension must be at least 2, got 1"),
        ],
    )
    def test_usage_error_leaves_the_file_alone(self, capsys, tmp_path, argv, message):
        target = tmp_path / "kept.json"
        target.write_text("kept\n", encoding="utf-8")
        code, out, err = run(capsys, *argv, "--out", str(target))
        assert code == 2 and out == "" and err == f"error: {message}\n"
        assert target.read_text(encoding="utf-8") == "kept\n"

    def test_gen_samples_nothing(self, capsys, tmp_path, monkeypatch):
        from corrbox import generators

        drawn = self.counted(monkeypatch, generators, "_sample_general")
        blocker = tmp_path / "file"
        blocker.write_text("", encoding="utf-8")
        code, out, err = run(
            capsys, "gen", "--family", "general", "--count", "50",
            "--out", str(blocker / "boxes"),
        )
        assert code == 2 and out == "" and drawn == []
        assert err.startswith("error: ") and err.count("\n") == 1


class TestSourceOptions:
    """--v, --angles and --denom, and gen's --seed, are refused where the
    source does not read them, instead of being dropped."""

    @staticmethod
    def box_file(tmp_path):
        path = tmp_path / "box.json"
        path.write_text(json.dumps(box_to_json_obj(canonical("pr"))), encoding="utf-8")
        return str(path)

    @pytest.mark.parametrize("command", ("analyze", "decompose"))
    @pytest.mark.parametrize(
        "source,options,message",
        [
            ("d0_0", ("--v", "1/2"), "--v applies only to isotropic"),
            ("pr", ("--angles", "tsirelson"), "--angles applies only to quantum"),
            ("noise", ("--denom", "10"), "--denom applies only to quantum"),
            ("isotropic", ("--v", "1/2", "--denom", "10"), "--denom applies only to quantum"),
            ("isotropic", ("--v", "1/2", "--angles", "tsirelson"),
             "--angles applies only to quantum"),
            ("quantum", ("--angles", "tsirelson", "--v", "1/2"),
             "--v applies only to isotropic"),
            (None, ("--v", "1/2"), "--v applies only to isotropic"),
            (None, ("--denom", "10"), "--denom applies only to quantum"),
        ],
    )
    def test_unread_option_is_usage_error(
        self, capsys, tmp_path, command, source, options, message
    ):
        source = self.box_file(tmp_path) if source is None else source
        code, out, err = run(capsys, command, source, *options)
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "argv,message",
        [
            (("--kind", "d0_0", "--v", "1/2"), "--v applies only to isotropic"),
            (("--kind", "isotropic", "--v", "1/2", "--denom", "9"),
             "--denom applies only to quantum"),
            (("--kind", "quantum", "--angles", "tsirelson", "--v", "1"),
             "--v applies only to isotropic"),
            (("--family", "general", "--angles", "tsirelson"),
             "--angles applies only to quantum"),
            (("--family", "oneway_slice", "--v", "1/2"), "--v applies only to isotropic"),
            (("--kind", "noise", "--seed", "3"), "--seed applies only to --family"),
            (("--kind", "isotropic", "--v", "1/2", "--seed", "0"),
             "--seed applies only to --family"),
        ],
    )
    def test_gen_refuses_unread_options(self, capsys, argv, message):
        code, out, err = run(capsys, "gen", *argv)
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"


class TestParser:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_no_subcommand(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()

    def test_handler_is_looked_up_at_dispatch(self, capsys, monkeypatch):
        import corrbox.cli as cli

        monkeypatch.setattr(cli, "_cmd_repro", lambda args: 7)
        assert main(["repro"]) == 7
        assert capsys.readouterr().out == ""

    def test_one_parser_serves_every_command(self, capsys):
        import corrbox.cli as cli

        parser = cli._PARSER
        run(capsys, "analyze", "pr", "--text")
        run(capsys, "fuzz", "--count", "2")
        assert cli._PARSER is parser
        code, first, _ = run(capsys, "analyze", "pr", "--text")
        code_again, again, _ = run(capsys, "analyze", "pr", "--text")
        assert code == code_again == 0 and first == again


COMMANDS = ("analyze", "gen", "decompose", "fuzz", "repro", "sweep")
# Every option, some abbreviations (--a is ambiguous under decompose), and
# tokens argparse treats specially.
OPTIONS = (
    "-h", "--help", "--", "--v", "--angles", "--denom", "--dim", "--json", "--text",
    "--out", "--kind", "--family", "--seed", "--count", "--basis", "--alt", "--steps",
    "--csv", "--bas", "--a", "--co", "--te", "--v=5/8", "--count=3", "-x", "--bogus",
)
VALUES = (
    *canonical_names(), "isotropic", "quantum", "tsirelson", "-", *BASIS_KINDS,
    *FAMILY_KINDS, "0", "-0", "3", "-1/2", "5/8", "1e400", "-1e-3", "nan", "-inf",
    "1" * 40, "", "extra", "out.json",
)
# Command lines over the CLI's own vocabulary: mostly a subcommand and a
# source, then options with values and stray tokens.
CLI_ARGV = st.builds(
    lambda head, words: [*head, *(token for word in words for token in word)],
    st.tuples(st.sampled_from(COMMANDS), st.sampled_from(VALUES))
    | st.tuples(st.sampled_from(COMMANDS))
    | st.tuples(st.sampled_from(OPTIONS + VALUES)),
    st.lists(
        st.tuples(st.sampled_from(OPTIONS), st.sampled_from(VALUES))
        | st.tuples(st.sampled_from(COMMANDS + OPTIONS + VALUES)),
        max_size=4,
    ),
)


def parse_outcome(parse, argv):
    """parse(argv)'s namespace, or its exit code, with what it printed."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            result = parse(list(argv))
    except SystemExit as exc:
        result = exc.code
    return result, out.getvalue(), err.getvalue()


class TestParseOnce:
    """cli._parse_args gives what the whole parser gives: the same namespace,
    or the same exit code, stdout and stderr.  It is compared with the
    running interpreter's argparse, so each Python checks its own."""

    @staticmethod
    def assert_same(argv):
        expected = parse_outcome(cli._PARSER.parse_args, argv)
        assert parse_outcome(cli._parse_args, argv) == expected, argv
        return expected

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["-h"],
            ["--help"],
            *([command, "-h"] for command in COMMANDS),
            ["bogus"],
            ["-x"],
            ["--", "analyze", "pr"],
            ["analyze", "pr", "--opt"],
            ["analyze", "pr", "extra"],
            ["analyze", "pr", "--json", "--text"],
            ["decompose", "pr", "--bas", "chsh16"],
            ["decompose", "pr", "--a"],
            ["decompose", "pr", "--basis", "bogus"],
            ["analyze", "isotropic", "--v=5/8"],
            ["analyze", "isotropic", "--v", "-1/2"],
            ["analyze", "quantum", "--angles", "0", "1", "2", "-inf"],
            ["analyze", "quantum", "--angles", "0", "1", "2", "-x"],
            ["analyze", "pr", "--", "--x"],
            ["fuzz", "--count", "2", "--count", "3"],
            ["fuzz", "--count", "two"],
            ["analyze"],
        ],
    )
    def test_corpus(self, argv):
        self.assert_same(argv)

    def test_outcomes_are_told_apart(self):
        # The comparison sees a namespace, help on stdout and an error on stderr.
        args, out, err = self.assert_same(["analyze", "pr"])
        assert args.command == "analyze" and out == err == ""
        code, out, err = self.assert_same(["analyze", "-h"])
        assert code == 0 and out.startswith("usage: corrbox analyze") and err == ""
        code, out, err = self.assert_same(["analyze", "pr", "x"])
        assert (code, out) == (2, "")
        assert err.endswith("corrbox: error: unrecognized arguments: x\n")

    @settings(max_examples=150)
    @given(CLI_ARGV)
    def test_vocabulary(self, argv):
        self.assert_same(argv)


# Options whose value sets how much work a command does, each with the
# largest value the contract test passes on.
_WORK_BOUNDS = {"--count": 4, "--co": 4, "--steps": 4, "--denom": 1000}


def _bounded(argv: list[str]) -> list[str]:
    """argv with each integer value of a _WORK_BOUNDS option clamped."""
    out = list(argv)
    for i in range(1, len(out)):
        bound = _WORK_BOUNDS.get(out[i - 1])
        if bound is not None and out[i].lstrip("-").isdigit() and abs(int(out[i])) > bound:
            out[i] = str(bound)
    return out


# Box sources the contract test writes: the file box.json and stdin.
CONTRACT_ARGV = (
    CLI_ARGV
    | st.builds(
        lambda command, source, rest: [command, source, *rest],
        st.sampled_from(("analyze", "decompose")),
        st.sampled_from(("box.json", "-")),
        st.lists(st.sampled_from(OPTIONS + VALUES), max_size=2),
    )
).map(_bounded)
# JSON tokens for a box entry: exact ones, and ones a box file may not hold.
_ENTRIES = (
    '"1/4"', "0", "1", '"-0"', '"1/0"', '"1_0/2_0"', '"1e-1"', "0.25", "-0.0", "NaN",
    "Infinity", "1e400", "1" + "0" * 5000, '"1' + "0" * 5000 + '/2"', '"\\ud800"',
    "\ud800", "true", "null", "[]", "{}", '"' + "[" * 50 + '"',
)
_VALID_COLUMNS = st.sampled_from(
    ('["1/4", "1/4", "1/4", "1/4"]', "[1, 0, 0, 0]", '["1/2", 0, "1/2", 0]')
)
_COLUMNS = _VALID_COLUMNS | st.lists(st.sampled_from(_ENTRIES), min_size=3, max_size=5).map(
    lambda entries: "[" + ", ".join(entries) + "]"
)


def _box_text(columns: list[str]) -> str:
    return '{"format": "box-v1", "p": [' + ", ".join(columns) + "]}"


# Box file texts: valid boxes, boxes with bad columns or entries, bare JSON
# tokens and short JSON-like junk.
BOX_TEXTS = (
    st.lists(_VALID_COLUMNS, min_size=4, max_size=4).map(_box_text)
    | st.lists(_COLUMNS, min_size=3, max_size=5).map(_box_text)
    | st.sampled_from(_ENTRIES)
    | st.text(st.sampled_from('[]{}",:-./0123456789eE \ud800\u00e9'), max_size=20)
)


class TestExitCodeContract:
    """No command line or box input reaches exit 3: every exit is 0, 1 (a
    claimed inequality failed, in the report) or 2, and a 2 prints nothing
    on stdout and either argparse's usage error or one "error: ..." line."""

    @settings(max_examples=100, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @example(argv=["analyze", "box.json"], text="[" * 10**4 + "]" * 10**4)
    @example(argv=["decompose", "-"], text=_box_text(["[" * 1200 + "]" * 1200]))
    @given(argv=CONTRACT_ARGV, text=BOX_TEXTS)
    def test_exit_codes(self, tmp_path, monkeypatch, argv, text):
        with monkeypatch.context() as patch:
            # A fresh directory per example: --out and gen's directories
            # land there, and no example sees another's files.
            patch.chdir(tempfile.mkdtemp(dir=tmp_path))
            with open("box.json", "w", encoding="utf-8", errors="surrogatepass") as handle:
                handle.write(text)
            patch.setattr(sys, "stdin", io.StringIO(text))
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main(list(argv))
        out, err = out.getvalue(), err.getvalue()
        assert code in (0, 1, 2), (argv, err)
        if code == 1:
            assert err == "", argv
        if code == 2:
            assert out == "", argv
            if err.startswith("usage: corrbox"):
                assert re.search(r"\ncorrbox( [a-z]+)?: error: [^\n]*\n\Z", err), err
            else:
                assert re.fullmatch(r"error: [^\n]*\n", err), (argv, err)


class TestModuleEntryPoint:
    @staticmethod
    def run_module(*argv):
        """corrbox as python -m corrbox, in a fresh interpreter."""
        src = os.path.dirname(os.path.dirname(corrbox.__file__))
        return subprocess.run(
            [sys.executable, "-m", "corrbox", *argv],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=src),
        )

    def test_output_matches_main(self, capsys):
        done = self.run_module("analyze", "pr", "--text")
        _, expected, _ = run(capsys, "analyze", "pr", "--text")
        assert done.returncode == 0 and done.stderr == ""
        assert done.stdout == expected

    def test_exit_code_and_message(self):
        done = self.run_module("gen", "--kind", "pr", "--count", "0")
        assert done.returncode == 2
        assert done.stderr == "error: --count must be at least 1\n"

    def test_unrecognized_argument(self):
        # main(None) reads sys.argv through cli._parse_args.
        done = self.run_module("analyze", "pr", "--bogus")
        assert done.returncode == 2 and done.stdout == ""
        assert done.stderr.endswith("error: unrecognized arguments: --bogus\n")


_IMPORT_PROBE = """
import dataclasses, io, json, sys
from contextlib import redirect_stdout

from corrbox import cli

loaded = {}
with redirect_stdout(io.StringIO()):
    codes = [cli.main(["analyze", "pr"]), cli.main(["decompose", "pr"])]
    loaded["reports"] = ["corrbox.verify" in sys.modules, "csv" in sys.modules]
    codes.append(cli.main(["analyze", "pr", "--text"]))
    loaded["text"] = ["corrbox.verify" in sys.modules, "csv" in sys.modules]

import corrbox

star = {}
exec("from corrbox import *", star)
modules = {
    name: module for name, module in sys.modules.items()
    if name == "corrbox" or name.startswith("corrbox.")
}
print(json.dumps({
    "modules": sorted(modules),
    "dataclasses": sorted(
        f"{name}.{key}" for name, module in modules.items()
        for key, value in vars(module).items()
        if isinstance(value, type) and value.__module__ == name
        and dataclasses.is_dataclass(value)
    ),
    "codes": codes,
    "loaded": loaded,
    "unbound": sorted(set(corrbox.__all__) - set(star)),
    "fuzz_is_verify_fuzz": corrbox.fuzz is corrbox.verify.fuzz,
    "missing_from_dir": sorted(set(corrbox.__all__) - set(dir(corrbox))),
}))
"""


class TestColdStartImports:
    """A one-shot analyze or decompose loads neither corrbox.verify nor csv;
    the package still binds every name of __all__, and no corrbox class is
    a dataclass.  One fresh interpreter runs the probe for every test here."""

    @pytest.fixture(scope="class")
    def probe(self):
        src = os.path.dirname(os.path.dirname(corrbox.__file__))
        done = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=src),
        )
        assert done.returncode == 0 and done.stderr == "", done.stderr
        return json.loads(done.stdout)

    def test_json_reports_load_neither(self, probe):
        assert probe["codes"] == [0, 0, 0]
        assert probe["loaded"]["reports"] == [False, False]

    def test_text_report_loads_verify(self, probe):
        assert probe["loaded"]["text"] == [True, False]

    def test_package_exports_every_name(self, probe):
        assert probe["unbound"] == [] and probe["missing_from_dir"] == []
        assert probe["fuzz_is_verify_fuzz"] is True

    def test_no_class_is_a_dataclass(self, probe):
        # Creating a dataclass generates and compiles its methods on every
        # cold start; the records derive from corrbox._record.Record instead.
        assert {"corrbox.boxes", "corrbox.cli", "corrbox.verify"} <= set(probe["modules"])
        assert probe["dataclasses"] == []
