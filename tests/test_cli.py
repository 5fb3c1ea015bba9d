"""Command-line surface: exit codes, JSON schemas, output values."""

import gc
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from math import floor, isqrt
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import kvacert
from kvacert.blowup import search_obstruction
from kvacert.cli import main
from kvacert.constants import certify_instance
from kvacert.hyperell import DivisorClass

#: the environment of a fresh interpreter that imports this kvacert
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    [str(Path(kvacert.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))


def python(*args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=ENV,
                          timeout=60)


@pytest.fixture()
def runner():
    return CliRunner()


def run(runner, args):
    return runner.invoke(main, args)


def parse(result):
    return json.loads(result.output)


def sqrt_decimal(x: Fraction, places: int = 6) -> str:
    """Independent fixed-point rendering of sqrt(x) via integer square roots."""
    scale = 10 ** (places + 4)
    lo = isqrt(x.numerator * scale * scale // x.denominator)
    approx = Fraction(lo, scale)
    scaled = approx * 10**places
    q, r = divmod(scaled.numerator, scaled.denominator)
    if 2 * r >= scaled.denominator:
        q += 1
    digits = str(q).rjust(places + 1, "0")
    return f"{digits[:-places]}.{digits[-places:]}"


class TestCheck:
    BASE = ["check", "-a", "12", "-b", "12", "-k", "2", "-d", "10", "-r", "28"]

    def test_certified_exit_zero(self, runner):
        result = run(runner, self.BASE)
        assert result.exit_code == 0
        assert "k-very-ample-certified" in result.output

    def test_certified_json_payload(self, runner):
        result = run(runner, self.BASE + ["--json"])
        assert result.exit_code == 0
        payload = parse(result)
        assert payload["verdict"] == "k-very-ample-certified"
        assert payload["derived"]["L2"] == 288
        assert payload["derived"]["N2"] == 36
        assert payload["derived"]["r_max"] == 28
        assert Fraction(payload["derived"]["seshadri_lower_sq"]) == Fraction(2007, 196)
        assert payload["derived"]["star_holds"] is True
        assert all(c["ok"] for c in payload["hypothesis_checks"])

    def test_too_many_points_exit_one_names_bound(self, runner):
        result = run(runner, ["check", "-a", "12", "-b", "12", "-k", "2", "-d", "10", "-r", "29", "--json"])
        assert result.exit_code == 1
        payload = parse(result)
        assert payload["verdict"] == "hypotheses-not-met"
        failed = [c["name"] for c in payload["hypothesis_checks"] if not c["ok"]]
        assert failed == ["r-le-r_max"]

    def test_c_above_certified_constant_exit_one(self, runner):
        result = run(runner, self.BASE[:-1] + ["31", "--c", "99/100", "--json"])
        assert result.exit_code == 1
        payload = parse(result)
        assert payload["verdict"] == "hypotheses-not-met"
        assert all(c["ok"] for c in payload["hypothesis_checks"])
        failed = [c["name"] for c in payload["certificate_checks"] if not c["ok"]]
        assert failed == ["star", "c-certified"]

    def test_delta_above_certified_slack_exit_one(self, runner):
        result = run(runner, self.BASE + ["--delta", "5"])
        assert result.exit_code == 1
        failed = [line.split()[1] for line in result.output.splitlines() if "[FAIL]" in line]
        assert failed == ["star:", "delta-certified:"]
        assert result.output.splitlines()[-1] == "verdict: hypotheses-not-met"

    def test_certificate_checks_follow_hypothesis_checks(self, runner):
        payload = parse(run(runner, self.BASE + ["--json"]))
        assert list(payload)[:3] == ["inputs", "hypothesis_checks", "certificate_checks"]
        assert [c["name"] for c in payload["certificate_checks"]] == [
            "star", "c-certified", "delta-certified"]
        assert all(c["ok"] for c in payload["certificate_checks"])

    def test_small_coordinate_exit_one(self, runner):
        result = run(runner, ["check", "-a", "11", "-b", "12", "-k", "2", "-d", "10", "-r", "2", "--json"])
        assert result.exit_code == 1
        failed = [c["name"] for c in parse(result)["hypothesis_checks"] if not c["ok"]]
        assert failed == ["a-ge-d+2"]

    def test_unknown_surface_exit_two(self, runner):
        result = run(runner, ["check", "--surface", "9"] + self.BASE[1:])
        assert result.exit_code == 2

    def test_non_integer_input_exit_two(self, runner):
        result = run(runner, ["check", "-a", "twelve", "-b", "12", "-k", "2", "-d", "10", "-r", "28"])
        assert result.exit_code == 2

    def test_consistency_with_max_r(self, runner):
        # with r set to the reported maximum, the remaining hypotheses certify
        for a, b, k in ((12, 12, 2), (19, 21, 3), (40, 40, 2)):
            r_max = int(run(runner, ["max-r", "-a", str(a), "-b", str(b), "-k", str(k), "--quiet"]).output.split()[0])
            d = (k + 1) ** 2 + 1
            result = run(
                runner,
                ["check", "-a", str(a), "-b", str(b), "-k", str(k), "-d", str(d), "-r", str(r_max)],
            )
            assert result.exit_code == 0, result.output


def oracle_exit(a, b, k, d, r, c, delta):
    """Exit code of the theorem's verdict, recomputed from its statement."""
    t = k + 1
    l2 = 2 * a * b
    hypotheses = k >= 2 and d > t * t and a >= d + 2 and b >= d + 2 and 2 <= r
    hypotheses = hypotheses and r <= floor(c * l2 / (t * t))
    star = r >= 1 and l2 > 0 and Fraction(l2 * (8 * r - 1), 8 * r * r) > (t + delta) ** 2
    certified_constants = c <= Fraction(887, 1000) and delta <= Fraction(178, 1000)
    return 0 if hypotheses and star and certified_constants else 1


def _ratios(*milli):
    """The given n/1000 values (boundaries of the certified pair), or any ratio in (0, 1)."""
    return st.one_of(
        st.sampled_from([Fraction(n, 1000) for n in milli]),
        st.fractions(min_value=Fraction(1, 10**6), max_value=Fraction(999999, 10**6),
                     max_denominator=10**6),
    )


class TestVerdictOracle:
    @settings(max_examples=300, deadline=None)
    @given(
        surface=st.integers(1, 7),
        k=st.sampled_from([2, 2, 2, 3, 3, 4, -1, 0, 1, 5]),
        d_gap=st.integers(-1, 3),
        a_gap=st.integers(-1, 8),
        b_gap=st.integers(-1, 8),
        r_gap=st.integers(-4, 1),
        c=_ratios(1, 500, 800, 886, 887, 887, 888, 954, 999),
        delta=st.one_of(_ratios(1, 10, 100, 177, 178, 178, 179, 500),
                        st.sampled_from([Fraction(1), Fraction(5)])),
    )
    def test_verdict_and_exit_code_match_the_oracle(
        self, surface, k, d_gap, a_gap, b_gap, r_gap, c, delta
    ):
        # parameters placed around each hypothesis boundary
        t = k + 1
        d = t * t + 1 + d_gap
        a, b = d + 2 + a_gap, d + 2 + b_gap
        r = (floor(c * 2 * a * b / (t * t)) if t > 0 else 0) + r_gap
        want = oracle_exit(a, b, k, d, r, c, delta)
        cert = certify_instance(surface, a, b, k, d, r, c, delta)
        assert (0 if cert.certified else 1) == want
        args = ["check", "--surface", str(surface), "-a", str(a), "-b", str(b), "-k", str(k),
                "-d", str(d), "-r", str(r), "--c", str(c), "--delta", str(delta)]
        result = CliRunner().invoke(main, args)
        assert result.exit_code == want, result.output
        assert result.output.splitlines()[-1] == f"verdict: {cert.verdict}"


class TestMaxR:
    def test_base_instance(self, runner):
        result = run(runner, ["max-r", "-a", "12", "-b", "12", "-k", "2"])
        assert result.exit_code == 0
        assert result.output.splitlines()[0] == "28"

    def test_thirteen(self, runner):
        # floor(887 * 338 / 9000) = 33
        result = run(runner, ["max-r", "-a", "13", "-b", "13", "-k", "2"])
        assert result.output.splitlines()[0] == "33"

    def test_small_class_warns(self, runner):
        result = run(runner, ["max-r", "-a", "4", "-b", "4", "-k", "2"])
        lines = result.output.splitlines()
        assert lines[0] == "3"
        assert any("a, b >= d+2" in line for line in lines[1:])

    def test_below_two_points_warns(self, runner):
        # floor(887 * 2 / 9000) = 0 admissible points
        result = run(runner, ["max-r", "-a", "1", "-b", "1", "-k", "2"])
        lines = result.output.splitlines()
        assert lines[0] == "0"
        assert any("r >= 2" in line for line in lines[1:])

    def test_non_ample_rejected(self, runner):
        result = run(runner, ["max-r", "-a", "0", "-b", "4", "-k", "2"])
        assert result.exit_code == 2

    def test_c_above_certified_constant_warns(self, runner):
        # floor(99/100 * 288 / 9) = 31, but check refuses to certify at this c
        result = run(runner, ["max-r", "-a", "12", "-b", "12", "-k", "2", "--c", "99/100"])
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert lines[0] == "31"
        assert any("exceeds the certified c_max = 887/1000" in line for line in lines[1:])
        payload = parse(run(runner, ["max-r", "-a", "12", "-b", "12", "-k", "2",
                                     "--c", "99/100", "--json"]))
        assert payload["r_max"] == 31
        assert any("887/1000" in w for w in payload["warnings"])

    def test_certified_constant_does_not_warn(self, runner):
        payload = parse(run(runner, ["max-r", "-a", "12", "-b", "12", "-k", "2",
                                     "--c", "887/1000", "--json"]))
        assert payload["warnings"] == []

    @pytest.mark.parametrize("c", ["5", "-1/2", "0", "1"])
    def test_c_outside_unit_interval_exit_two(self, runner, c):
        result = run(runner, ["max-r", "-a", "12", "-b", "12", "-k", "2", f"--c={c}"])
        assert result.exit_code == 2
        assert "--c must lie in (0, 1)" in result.output


class TestSeshadri:
    def test_exact_and_decimal_output(self, runner):
        result = run(runner, ["seshadri", "-a", "12", "-b", "12", "-r", "28", "--json"])
        payload = parse(result)
        assert Fraction(payload["seshadri_lower_sq"]) == Fraction(2007, 196)
        assert payload["seshadri_lower_approx"] == sqrt_decimal(Fraction(2007, 196))

    def test_single_point(self, runner):
        payload = parse(run(runner, ["seshadri", "-a", "1", "-b", "1", "-r", "1", "--json"]))
        assert Fraction(payload["seshadri_lower_sq"]) == Fraction(7, 4)
        assert payload["seshadri_lower_approx"] == sqrt_decimal(Fraction(7, 4)) == "1.322876"

    def test_one_point_large_class(self, runner):
        payload = parse(run(runner, ["seshadri", "-a", "12", "-b", "12", "-r", "1", "--json"]))
        assert Fraction(payload["seshadri_lower_sq"]) == 252
        assert payload["seshadri_lower_approx"] == sqrt_decimal(Fraction(252)) == "15.874508"

    def test_invalid_inputs(self, runner):
        assert run(runner, ["seshadri", "-a", "0", "-b", "1", "-r", "1"]).exit_code == 2
        assert run(runner, ["seshadri", "-a", "1", "-b", "1", "-r", "0"]).exit_code == 2


class TestConstants:
    def test_self_verification_defaults(self, runner):
        result = run(runner, ["constants", "verify", "--json"])
        assert result.exit_code == 0
        payload = parse(result)
        assert Fraction(payload["c_max"]) == Fraction(887, 1000)
        assert Fraction(payload["delta_max"]) == Fraction(178, 1000)
        assert Fraction(payload["c_ceiling"]) == Fraction(954, 1000)
        assert payload["feasible"] is True
        ids = {c["id"] for c in payload["per_constraint"]}
        assert {"n2-ceiling", "n2-chain", "case1-hodge", "z-interval-containment",
                "g-positive", "delta-positive", "lhs-increasing", "z1-decreasing"} <= ids
        assert any(d["id"] == "z2-threshold-value" for d in payload["discrepancies"])

    def test_action_argument_optional(self, runner):
        assert run(runner, ["constants", "--quiet"]).exit_code == 0

    def test_kmin_three(self, runner):
        result = run(runner, ["constants", "verify", "--kmin", "3", "--json"])
        assert result.exit_code == 0  # feasible (self-verification applies only at defaults)
        payload = parse(result)
        assert Fraction(payload["c_ceiling"]) == Fraction(976, 1000)
        assert Fraction(payload["c_max"]) == Fraction(926, 1000)

    def test_coarse_grid_infeasible_exit_one(self, runner):
        result = run(runner, ["constants", "verify", "--grid-step", "1/10", "--json"])
        assert result.exit_code == 1
        payload = parse(result)
        assert payload["c_max"] is None and payload["feasible"] is False

    def test_bad_grid_step_exit_two(self, runner):
        result = run(runner, ["constants", "verify", "--grid-step", "0"])
        assert result.exit_code == 2
        assert result.output.endswith("Error: grid_step must lie in (0, 1)\n")

    @pytest.mark.parametrize("step,points", [
        ("1/1000000", 954_000),
        ("1/100000000", 95_400_000),
        ("1e-400", 954 * 10**397),
    ])
    def test_oversized_scan_refused_promptly(self, runner, step, points):
        start = time.monotonic()
        result = run(runner, ["constants", "verify", "--grid-step", step])
        assert result.exit_code == 2
        assert (f"constants scan too large: {points} grid points exceed the budget of 100000"
                in result.output)
        assert time.monotonic() - start < 1.0


class TestObstructions:
    def test_certified_instance_clear(self, runner):
        result = run(runner, ["obstructions", "-a", "12", "-b", "12", "-k", "2", "-r", "28"])
        assert result.exit_code == 0
        assert "none found within proof bounds" in result.output

    def test_certified_instance_clear_standard_formula(self, runner):
        result = run(
            runner,
            ["obstructions", "-a", "12", "-b", "12", "-k", "2", "-r", "28", "--formula", "standard"],
        )
        assert result.exit_code == 0

    def test_witnesses_reported_exit_one(self, runner):
        result = run(runner, ["obstructions", "-a", "3", "-b", "3", "-k", "2", "-r", "4", "--json"])
        assert result.exit_code == 1
        payload = parse(result)
        assert payload["count"] == len(payload["witnesses"]) > 0
        assert {
            "d_s": {"a": 1, "b": 1},
            "mults": [1, 0, 0, 0],
            "nd": 3,
            "d2": 1,
        } in payload["witnesses"]

    def test_invalid_inputs(self, runner):
        assert run(runner, ["obstructions", "-a", "3", "-b", "3", "-k", "1", "-r", "4"]).exit_code == 2
        assert run(runner, ["obstructions", "-a", "3", "-b", "3", "-k", "2", "-r", "4", "--delta", "0"]).exit_code == 2

    @pytest.mark.parametrize("args,k,r,delta", [
        (["-a", "3", "-b", "3", "-k", "1", "-r", "4"], 1, 4, Fraction(178, 1000)),
        (["-a", "3", "-b", "3", "-k", "2", "-r", "-1"], 2, -1, Fraction(178, 1000)),
        (["-a", "3", "-b", "3", "-k", "2", "-r", "4", "--delta", "0"], 2, 4, Fraction(0)),
        (["-a", "0", "-b", "3", "-k", "2", "-r", "4"], 2, 4, Fraction(178, 1000)),
    ])
    def test_invalid_input_prints_the_library_message(self, runner, args, k, r, delta):
        a, b = int(args[1]), int(args[3])
        with pytest.raises(ValueError) as exc:
            search_obstruction(DivisorClass(a, b, 1), k, r, delta)
        result = run(runner, ["obstructions", *args])
        assert result.exit_code == 2
        assert result.output.endswith(f"Error: {exc.value}\n")

    def test_oversized_search_refused_with_estimate(self, runner):
        result = run(
            runner,
            ["obstructions", "-a", "12", "-b", "12", "-k", "2", "-r", "28", "--delta", "1/10000000"],
        )
        assert result.exit_code == 2
        # 112500041250001 cells of one D^2 option each, 18 steps a cell
        assert "estimated 2025000742500018 steps exceed the budget" in result.output

    def test_oversized_output_refused_promptly(self, runner):
        start = time.monotonic()
        result = run(runner, ["obstructions", "-a", "3", "-b", "3", "-k", "2", "-r", "1000000",
                              "--json"])
        assert result.exit_code == 2
        assert ("5 witnesses x 1000000 multiplicities = 5000000 exceed the bound of 1000000"
                in result.output)
        assert time.monotonic() - start < 1.0


class TestSurfaces:
    def test_seven_rows(self, runner):
        result = run(runner, ["surfaces"])
        assert result.exit_code == 0
        assert len(result.output.splitlines()) == 7

    def test_row_contents(self, runner):
        payload = parse(run(runner, ["surfaces", "--json"]))
        rows = payload["surfaces"]
        assert len(rows) == 7
        assert rows[4] == {
            "id": 5,
            "group": "Z3",
            "multiplicities": [3, 3, 3],
            "mu": 3,
            "gamma": 3,
            "basis": "A/3, B",
        }
        assert rows[1]["group"] == "Z2xZ2" and rows[1]["gamma"] == 4


class TestJsonRoundTrip:
    CASES = [
        ["check", "-a", "12", "-b", "12", "-k", "2", "-d", "10", "-r", "28", "--json"],
        ["check", "-a", "12", "-b", "12", "-k", "2", "-d", "10", "-r", "29", "--json"],
        ["constants", "verify", "--json"],
        ["obstructions", "-a", "3", "-b", "3", "-k", "2", "-r", "4", "--json"],
        ["surfaces", "--json"],
        ["seshadri", "-a", "12", "-b", "12", "-r", "28", "--json"],
        ["max-r", "-a", "12", "-b", "12", "-k", "2", "--json"],
    ]

    @pytest.mark.parametrize("args", CASES, ids=lambda a: a[0] + ("-fail" if "29" in a else ""))
    def test_parse_and_reserialize_is_byte_identical(self, runner, args):
        out = run(runner, args).output
        assert out.endswith("\n")
        body = out[:-1]
        assert json.dumps(json.loads(body), indent=2) == body


class TestGlobalFlags:
    def test_group_level_json_flag(self, runner):
        result = run(runner, ["--json", "surfaces"])
        assert parse(result)["surfaces"][0]["id"] == 1

    def test_exit_code_matrix(self, runner):
        matrix = [
            (["surfaces"], 0),
            (["check", "-a", "12", "-b", "12", "-k", "2", "-d", "10", "-r", "28"], 0),
            (["check", "-a", "12", "-b", "12", "-k", "2", "-d", "10", "-r", "29"], 1),
            (["check", "-a", "12", "-b", "12", "-k", "2", "-d", "10"], 2),  # missing -r
            (["constants", "verify"], 0),
            (["constants", "frobnicate"], 2),
            (["obstructions", "-a", "3", "-b", "3", "-k", "2", "-r", "4"], 1),
            (["obstructions", "-a", "12", "-b", "12", "-k", "2", "-r", "28"], 0),
            (["max-r", "-a", "-1", "-b", "2", "-k", "2"], 2),
            (["nonsense"], 2),
        ]
        for args, expected in matrix:
            assert run(runner, args).exit_code == expected, args


class TestEntryPoint:
    def test_import_does_not_load_dataclasses(self):
        result = python("-c", "import sys, kvacert.cli; print('dataclasses' in sys.modules)")
        assert (result.returncode, result.stdout) == (0, "False\n")

    def test_run_freezes_the_heap_and_renders_like_main(self, runner):
        code = ("import atexit, gc, sys; from kvacert.cli import run; "
                "atexit.register(lambda: print(gc.get_freeze_count() > 0, file=sys.stderr)); "
                "sys.argv = ['kvacert', 'surfaces']; run()")
        result = python("-c", code)
        assert (result.returncode, result.stderr) == (0, "True\n")
        assert result.stdout == run(runner, ["surfaces"]).output

    def test_main_does_not_freeze(self, runner):
        before = gc.get_freeze_count()
        assert run(runner, ["surfaces"]).exit_code == 0
        assert gc.get_freeze_count() == before
