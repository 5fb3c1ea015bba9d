"""Command-line surface: exit codes, JSON schemas, output values."""

import ast
import contextlib
import errno
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from math import floor, isqrt
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kvacert
from argparse_oracle import DRAWN, EDGE_LINES, EXAMPLES, TABLE, outcome, same
from kvacert.blowup import certify_instance, search_obstruction, seshadri_lower_sq
from kvacert.cli import _COMMANDS, MAX_DIGITS, MAX_EXPONENT, _help, _json, _parse, main
from kvacert.constants import DELTA_DEFAULT, c_max_search
from kvacert.hyperell import DivisorClass, surface_by_id, surface_table

#: the environment of a fresh interpreter that imports this kvacert
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    [str(Path(kvacert.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))


def python(*args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=ENV,
                          timeout=60)


def kvacert_process(args, unbuffered: bool, stdout) -> subprocess.CompletedProcess:
    """Run ``python [-u] -m kvacert.cli args`` with ``stdout`` as its stdout, buffered
    unless ``unbuffered``, and capture its stderr."""
    env = {name: value for name, value in ENV.items() if name != "PYTHONUNBUFFERED"}
    return subprocess.run(
        [sys.executable, *(["-u"] if unbuffered else []), "-m", "kvacert.cli", *args],
        stdout=stdout, stderr=subprocess.PIPE, text=True, env=env, timeout=60)


class Result(NamedTuple):
    exit_code: int
    stdout: str
    stderr: str
    output: str  # stdout and stderr interleaved, in the order they were written


class _Tee(io.StringIO):
    """A stream that also copies every write to ``both``."""

    def __init__(self, both: io.StringIO) -> None:
        super().__init__()
        self.both = both

    def write(self, s: str) -> int:
        self.both.write(s)
        return super().write(s)


def invoke(args) -> Result:
    """Run ``main(args)`` in this process and capture what it prints.

    ``main`` runs with ``standalone_mode=False``, so it returns its exit code;
    any exception it raises propagates and fails the test.
    """
    both = io.StringIO()
    out, err = _Tee(both), _Tee(both)
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(args), standalone_mode=False)
    return Result(code, out.getvalue(), err.getvalue(), both.getvalue())


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

    def test_certified_exit_zero(self):
        result = invoke(self.BASE)
        assert result.exit_code == 0
        assert "k-very-ample-certified" in result.output

    def test_certified_json_payload(self):
        result = invoke(self.BASE + ["--json"])
        assert result.exit_code == 0
        payload = parse(result)
        assert payload["verdict"] == "k-very-ample-certified"
        assert payload["derived"]["L2"] == 288
        assert payload["derived"]["N2"] == 36
        assert payload["derived"]["r_max"] == 28
        assert Fraction(payload["derived"]["seshadri_lower_sq"]) == Fraction(2007, 196)
        assert payload["derived"]["star_holds"] is True
        assert all(c["ok"] for c in payload["hypothesis_checks"])

    def test_too_many_points_exit_one_names_bound(self):
        result = invoke(["check", "-a", "12", "-b", "12", "-k", "2", "-d", "10", "-r", "29", "--json"])
        assert result.exit_code == 1
        payload = parse(result)
        assert payload["verdict"] == "hypotheses-not-met"
        failed = [c["name"] for c in payload["hypothesis_checks"] if not c["ok"]]
        assert failed == ["r-le-r_max"]

    def test_c_above_certified_constant_exit_one(self):
        result = invoke(self.BASE[:-1] + ["31", "--c", "99/100", "--json"])
        assert result.exit_code == 1
        payload = parse(result)
        assert payload["verdict"] == "hypotheses-not-met"
        assert all(c["ok"] for c in payload["hypothesis_checks"])
        failed = [c["name"] for c in payload["certificate_checks"] if not c["ok"]]
        assert failed == ["star", "c-certified"]

    def test_delta_above_certified_slack_exit_one(self):
        result = invoke(self.BASE + ["--delta", "5"])
        assert result.exit_code == 1
        failed = [line.split()[1] for line in result.output.splitlines() if "[FAIL]" in line]
        assert failed == ["star:", "delta-certified:"]
        assert result.output.splitlines()[-1] == "verdict: hypotheses-not-met"

    def test_certificate_checks_follow_hypothesis_checks(self):
        payload = parse(invoke(self.BASE + ["--json"]))
        assert list(payload)[:3] == ["inputs", "hypothesis_checks", "certificate_checks"]
        assert [c["name"] for c in payload["certificate_checks"]] == [
            "star", "c-certified", "delta-certified"]
        assert all(c["ok"] for c in payload["certificate_checks"])

    def test_small_coordinate_exit_one(self):
        result = invoke(["check", "-a", "11", "-b", "12", "-k", "2", "-d", "10", "-r", "2", "--json"])
        assert result.exit_code == 1
        failed = [c["name"] for c in parse(result)["hypothesis_checks"] if not c["ok"]]
        assert failed == ["a-ge-d+2"]

    @pytest.mark.parametrize("option,value", [("--c", Fraction(1)), ("--delta", Fraction(0))])
    def test_out_of_range_constant_prints_the_library_message(self, option, value):
        c, delta = (value, Fraction(178, 1000)) if option == "--c" else (Fraction(887, 1000), value)
        with pytest.raises(ValueError) as exc:
            certify_instance(DivisorClass(12, 12), 2, 10, 28, c, delta)
        result = invoke(self.BASE + [option, str(value)])
        assert result.exit_code == 2
        assert result.output.endswith(f"Error: {exc.value}\n")

    def test_negative_k_clears_star_but_not_the_hypotheses(self):
        # k + 1 + delta < 0 is below any Seshadri bound, so star holds; k >= 2 still fails
        args = ["check", "-a", "12", "-b", "12", "-k", "-5", "-d", "10", "-r", "28"]
        result = invoke(args)
        assert result.exit_code == 1
        assert result.output.splitlines()[-1] == "verdict: hypotheses-not-met"
        # both places name the negative threshold instead of its square
        star = "Seshadri lower bound^2 = 2007/196, k+1+delta = -1911/500 < 0"
        assert f"  [ok] star: {star}\n" in result.output
        assert "  threshold k+1+delta = -1911/500 (~-3.822000) < 0, exceeded: True\n" in result.output
        assert "(k+1+delta)^2" not in result.output
        payload = parse(invoke(args + ["--json"]))
        assert payload["derived"]["star_holds"] is True
        assert payload["certificate_checks"][0] == {"name": "star", "ok": True, "detail": star}
        assert [c["name"] for c in payload["hypothesis_checks"] if not c["ok"]] == [
            "k-ge-2", "d-gt-(k+1)^2", "r-le-r_max"]
        # k = -2 gives the first negative threshold; at k = -1 it is delta > 0, still squared
        for k, threshold in ((-2, "k+1+delta = -411/500 (~-0.822000) < 0"),
                             (-1, "(k+1+delta)^2 = 7921/250000 (~0.031684)")):
            args[args.index("-k") + 1] = str(k)
            assert f"  threshold {threshold}, exceeded: True\n" in invoke(args).output

    def test_unknown_surface_exit_two(self):
        result = invoke(["check", "--surface", "9"] + self.BASE[1:])
        assert result.exit_code == 2

    def test_non_integer_input_exit_two(self):
        result = invoke(["check", "-a", "twelve", "-b", "12", "-k", "2", "-d", "10", "-r", "28"])
        assert result.exit_code == 2

    def test_consistency_with_max_r(self):
        # with r set to the reported maximum, the remaining hypotheses certify
        for a, b, k in ((12, 12, 2), (19, 21, 3), (40, 40, 2)):
            r_max = int(invoke(["max-r", "-a", str(a), "-b", str(b), "-k", str(k), "--quiet"]).output.split()[0])
            d = (k + 1) ** 2 + 1
            result = invoke(
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
        cert = certify_instance(DivisorClass(a, b), k, d, r, c, delta)
        assert (0 if cert.certified else 1) == want
        args = ["check", "--surface", str(surface), "-a", str(a), "-b", str(b), "-k", str(k),
                "-d", str(d), "-r", str(r), "--c", str(c), "--delta", str(delta)]
        result = invoke(args)
        assert result.exit_code == want, result.output
        assert result.output.splitlines()[-1] == f"verdict: {cert.verdict}"


class TestSurfaceType:
    """The type only labels a class: every number is the same on all seven types."""

    @settings(max_examples=100, deadline=None)
    @given(a=st.integers(-3, 40), b=st.integers(-3, 40), k=st.integers(-1, 5),
           d=st.integers(-3, 40), r=st.integers(-3, 40))
    def test_surface_type_enters_no_number(self, a, b, k, d, r):
        args = ["-a", str(a), "-b", str(b), "-k", str(k), "-d", str(d), "-r", str(r)]
        base_json, base_plain = (invoke(["check", "--surface", "1", *args, *flags])
                                 for flags in (["--json"], []))
        for surface in range(1, 8):
            as_json = invoke(["check", "--surface", str(surface), *args, "--json"])
            plain = invoke(["check", "--surface", str(surface), *args])
            assert as_json.exit_code == plain.exit_code == base_json.exit_code
            # JSON: the same bytes but for the value of inputs.surface
            assert parse(as_json)["inputs"]["surface"] == surface
            assert (as_json.output.replace(f'"surface": {surface},', '"surface": 1,', 1)
                    == base_json.output)
            # plain: the same lines but for the inputs: header
            first, rest = plain.output.split("\n", 1)
            group = surface_by_id(surface).group
            assert first == f"inputs: surface={surface} ({group}) a={a} b={b} k={k} d={d} r={r}"
            assert rest == base_plain.output.split("\n", 1)[1]
        for command in (["max-r", "-a", str(a), "-b", str(b), "-k", str(k)],
                        ["seshadri", "-a", str(a), "-b", str(b), "-r", str(r)],
                        ["obstructions", "-a", str(a), "-b", str(b), "-k", str(k), "-r", str(r)]):
            result = invoke([*command, "--surface", "1"])
            assert result.exit_code == 2
            assert "Traceback" not in result.stderr
            errors = [line for line in result.stderr.splitlines() if line.startswith("Error:")]
            assert errors == ["Error: unrecognized arguments: --surface 1"]


class TestMaxR:
    def test_base_instance(self):
        result = invoke(["max-r", "-a", "12", "-b", "12", "-k", "2"])
        assert result.exit_code == 0
        assert result.output.splitlines()[0] == "28"

    def test_thirteen(self):
        # floor(887 * 338 / 9000) = 33
        result = invoke(["max-r", "-a", "13", "-b", "13", "-k", "2"])
        assert result.output.splitlines()[0] == "33"

    def test_small_class_warns(self):
        result = invoke(["max-r", "-a", "4", "-b", "4", "-k", "2"])
        lines = result.output.splitlines()
        assert lines[0] == "3"
        assert any("a, b >= d+2" in line for line in lines[1:])

    def test_below_two_points_warns(self):
        # floor(887 * 2 / 9000) = 0 admissible points
        result = invoke(["max-r", "-a", "1", "-b", "1", "-k", "2"])
        lines = result.output.splitlines()
        assert lines[0] == "0"
        assert any("r >= 2" in line for line in lines[1:])

    def test_non_ample_rejected(self):
        # the library's one ampleness rule, rendered the same by every command that needs it
        for argv in (["max-r", "-a", "0", "-b", "4", "-k", "2"],
                     ["seshadri", "-a", "0", "-b", "4", "-r", "1"],
                     ["obstructions", "-a", "0", "-b", "4", "-k", "2", "-r", "2"]):
            result = invoke(argv)
            assert result.exit_code == 2
            assert result.stderr == "Error: class (0,4) is not ample (need a > 0 and b > 0)\n"

    def test_c_above_certified_constant_warns(self):
        # floor(99/100 * 288 / 9) = 31, but check refuses to certify at this c
        result = invoke(["max-r", "-a", "12", "-b", "12", "-k", "2", "--c", "99/100"])
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert lines[0] == "31"
        assert any("exceeds the certified c_max = 887/1000" in line for line in lines[1:])
        payload = parse(invoke(["max-r", "-a", "12", "-b", "12", "-k", "2",
                                     "--c", "99/100", "--json"]))
        assert payload["r_max"] == 31
        assert any("887/1000" in w for w in payload["warnings"])

    def test_certified_constant_does_not_warn(self):
        payload = parse(invoke(["max-r", "-a", "12", "-b", "12", "-k", "2",
                                     "--c", "887/1000", "--json"]))
        assert payload["warnings"] == []

    @pytest.mark.parametrize("c", ["5", "-1/2", "0", "1"])
    def test_c_outside_unit_interval_exit_two(self, c):
        result = invoke(["max-r", "-a", "12", "-b", "12", "-k", "2", f"--c={c}"])
        assert result.exit_code == 2
        assert result.output == "Error: c must lie in (0, 1)\n"

    def test_negative_k_exit_two(self):
        result = invoke(["max-r", "-a", "12", "-b", "12", "-k", "-1"])
        assert (result.exit_code, result.output) == (2, "Error: k must be nonnegative\n")

    @pytest.mark.parametrize("k,r_max", [(0, 255), (1, 63)])
    def test_k_below_two_warns(self, k, r_max):
        # floor(887 * 288 / (1000 (k+1)^2)); the theorem needs k >= 2 whatever d and r are
        payload = parse(invoke(["max-r", "-a", "12", "-b", "12", "-k", str(k), "--json"]))
        assert payload["r_max"] == r_max
        assert payload["warnings"][0] == f"k = {k} is below the theorem's floor k >= 2"

    #: the checks of certify_instance that max-r warns about, with a phrase of each warning
    WARNED = [({"k-ge-2"}, "k >= 2"), ({"c-certified"}, "exceeds the certified c_max"),
              ({"r-ge-2"}, "r >= 2"), ({"a-ge-d+2", "b-ge-d+2"}, "a, b >= d+2")]

    @settings(max_examples=200, deadline=None)
    @given(a=st.integers(1, 60), b=st.integers(1, 60), k=st.integers(0, 6),
           c=_ratios(1, 500, 886, 887, 888, 954, 999))
    def test_warns_exactly_when_a_check_fails_for_every_d_and_r(self, a, b, k, c):
        payload = parse(invoke(["max-r", "-a", str(a), "-b", str(b), "-k", str(k), f"--c={c}",
                                "--json"]))
        d = (k + 1) ** 2 + 1  # the smallest d > (k+1)^2
        cert = certify_instance(DivisorClass(a, b), k, d, payload["r_max"], c, DELTA_DEFAULT)
        assert payload["r_max"] == cert.r_max
        failed = {name for name, ok, _ in cert.hypothesis_checks + cert.certificate_checks
                  if not ok}
        want = [phrase for names, phrase in self.WARNED if names & failed]
        assert len(payload["warnings"]) == len(want)
        assert all(any(phrase in w for w in payload["warnings"]) for phrase in want)


class TestSeshadri:
    def test_exact_and_decimal_output(self):
        result = invoke(["seshadri", "-a", "12", "-b", "12", "-r", "28", "--json"])
        payload = parse(result)
        assert Fraction(payload["seshadri_lower_sq"]) == Fraction(2007, 196)
        assert payload["seshadri_lower_approx"] == sqrt_decimal(Fraction(2007, 196))

    def test_single_point(self):
        payload = parse(invoke(["seshadri", "-a", "1", "-b", "1", "-r", "1", "--json"]))
        assert Fraction(payload["seshadri_lower_sq"]) == Fraction(7, 4)
        assert payload["seshadri_lower_approx"] == sqrt_decimal(Fraction(7, 4)) == "1.322876"

    def test_one_point_large_class(self):
        payload = parse(invoke(["seshadri", "-a", "12", "-b", "12", "-r", "1", "--json"]))
        assert Fraction(payload["seshadri_lower_sq"]) == 252
        assert payload["seshadri_lower_approx"] == sqrt_decimal(Fraction(252)) == "15.874508"

    def test_invalid_inputs(self):
        assert invoke(["seshadri", "-a", "0", "-b", "1", "-r", "1"]).exit_code == 2
        assert invoke(["seshadri", "-a", "1", "-b", "1", "-r", "0"]).exit_code == 2

    def test_too_few_points_prints_the_library_message(self):
        with pytest.raises(ValueError) as exc:
            seshadri_lower_sq(DivisorClass(1, 1), 0)
        result = invoke(["seshadri", "-a", "1", "-b", "1", "-r", "0"])
        assert (result.exit_code, result.output) == (2, f"Error: {exc.value}\n")


class TestConstants:
    def test_self_verification_defaults(self):
        result = invoke(["constants", "verify", "--json"])
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

    def test_action_argument_optional(self):
        assert invoke(["constants", "--quiet"]).exit_code == 0

    def test_kmin_three(self):
        result = invoke(["constants", "verify", "--kmin", "3", "--json"])
        assert result.exit_code == 0  # feasible (self-verification applies only at defaults)
        payload = parse(result)
        assert Fraction(payload["c_ceiling"]) == Fraction(976, 1000)
        assert Fraction(payload["c_max"]) == Fraction(926, 1000)

    def test_coarse_grid_infeasible_exit_one(self):
        result = invoke(["constants", "verify", "--grid-step", "1/10", "--json"])
        assert result.exit_code == 1
        payload = parse(result)
        assert payload["c_max"] is None and payload["feasible"] is False

    def test_bad_grid_step_exit_two(self):
        result = invoke(["constants", "verify", "--grid-step", "0"])
        assert result.exit_code == 2
        assert result.output.endswith("Error: grid_step must lie in (0, 1)\n")

    def test_kmin_below_two_prints_the_library_message(self):
        with pytest.raises(ValueError) as exc:
            c_max_search(kmin=1)
        result = invoke(["constants", "verify", "--kmin", "1"])
        assert (result.exit_code, result.output) == (2, f"Error: {exc.value}\n")

    @pytest.mark.parametrize("step,points", [
        ("1/1000000", 954_000),
        ("1/100000000", 95_400_000),
        ("1e-400", 954 * 10**397),
    ])
    def test_oversized_scan_refused_promptly(self, step, points):
        start = time.monotonic()
        result = invoke(["constants", "verify", "--grid-step", step])
        assert result.exit_code == 2
        assert (f"constants scan too large: {points} grid points exceed the budget of 100000"
                in result.output)
        assert time.monotonic() - start < 1.0


class TestObstructions:
    def test_certified_instance_clear(self):
        result = invoke(["obstructions", "-a", "12", "-b", "12", "-k", "2", "-r", "28"])
        assert result.exit_code == 0
        assert "none found within proof bounds" in result.output

    def test_certified_instance_clear_standard_formula(self):
        result = invoke(
            ["obstructions", "-a", "12", "-b", "12", "-k", "2", "-r", "28", "--formula", "standard"],
        )
        assert result.exit_code == 0

    def test_witnesses_reported_exit_one(self):
        result = invoke(["obstructions", "-a", "3", "-b", "3", "-k", "2", "-r", "4", "--json"])
        assert result.exit_code == 1
        payload = parse(result)
        assert payload["count"] == len(payload["witnesses"]) > 0
        assert {
            "d_s": {"a": 1, "b": 1},
            "mults": [1, 0, 0, 0],
            "nd": 3,
            "d2": 1,
        } in payload["witnesses"]

    def test_invalid_inputs(self):
        assert invoke(["obstructions", "-a", "3", "-b", "3", "-k", "1", "-r", "4"]).exit_code == 2
        assert invoke(["obstructions", "-a", "3", "-b", "3", "-k", "2", "-r", "4", "--delta", "0"]).exit_code == 2

    @pytest.mark.parametrize("args,k,r,delta", [
        (["-a", "3", "-b", "3", "-k", "1", "-r", "4"], 1, 4, Fraction(178, 1000)),
        (["-a", "3", "-b", "3", "-k", "2", "-r", "-1"], 2, -1, Fraction(178, 1000)),
        (["-a", "3", "-b", "3", "-k", "2", "-r", "4", "--delta", "0"], 2, 4, Fraction(0)),
        (["-a", "0", "-b", "3", "-k", "2", "-r", "4"], 2, 4, Fraction(178, 1000)),
    ])
    def test_invalid_input_prints_the_library_message(self, args, k, r, delta):
        a, b = int(args[1]), int(args[3])
        with pytest.raises(ValueError) as exc:
            search_obstruction(DivisorClass(a, b), k, r, delta)
        result = invoke(["obstructions", *args])
        assert result.exit_code == 2
        assert result.output.endswith(f"Error: {exc.value}\n")

    def test_oversized_search_refused_with_estimate(self):
        result = invoke(
            ["obstructions", "-a", "12", "-b", "12", "-k", "2", "-r", "28", "--delta", "1/10000000"],
        )
        assert result.exit_code == 2
        # 112500041250001 cells of one D^2 option each, one step a cell
        assert "estimated 112500041250001 steps exceed the budget" in result.output

    def test_oversized_output_refused_promptly(self):
        start = time.monotonic()
        result = invoke(["obstructions", "-a", "3", "-b", "3", "-k", "2", "-r", "1000000",
                              "--json"])
        assert result.exit_code == 2
        assert ("5 witnesses x 1000000 multiplicities = 5000000 exceed the bound of 1000000"
                in result.output)
        assert time.monotonic() - start < 1.0


def _dumped_obstructions(formula, witnesses) -> str:
    """The ``obstructions --json`` output as ``json.dumps`` of the whole payload renders it."""
    return json.dumps({
        "formula": formula,
        "count": len(witnesses),
        "witnesses": [
            {"d_s": {"a": w.d_s.a, "b": w.d_s.b}, "mults": list(w.mults), "nd": w.nd, "d2": w.d2}
            for w in witnesses
        ],
    }, indent=2) + "\n"


def _printed_obstructions(formula, witnesses) -> str:
    """The ``obstructions`` text output as one formatted line per witness renders it."""
    if not witnesses:
        return "none found within proof bounds\n"
    lines = [f"{len(witnesses)} witness(es) within proof bounds ({formula} formula):"]
    lines += [f"  D_S = ({w.d_s.a},{w.d_s.b}), m = {list(w.mults)}, N.D = {w.nd}, D^2 = {w.d2}"
              for w in witnesses]
    return "\n".join(lines) + "\n"


class TestStreamedObstructions:
    """The streamed witness list against the renderings it replaced, byte for byte."""

    @settings(max_examples=60, deadline=None)
    @given(a=st.integers(1, 6), b=st.integers(1, 6), k=st.sampled_from([2, 3]),
           r=st.integers(0, 8), formula=st.sampled_from(["paper", "standard"]))
    @example(a=6, b=6, k=2, r=1, formula="paper")  # no witness
    @example(a=3, b=3, k=2, r=0, formula="standard")  # witnesses with empty mults
    def test_same_bytes_as_the_whole_payload_renderings(self, a, b, k, r, formula):
        witnesses = search_obstruction(DivisorClass(a, b), k, r, formula=formula)
        args = ["obstructions", "-a", str(a), "-b", str(b), "-k", str(k), "-r", str(r),
                "--formula", formula]
        for flags, want in (["--json"], _dumped_obstructions), ([], _printed_obstructions):
            result = invoke(args + flags)
            assert (result.exit_code, result.stderr) == (1 if witnesses else 0, "")
            assert result.stdout == want(formula, witnesses)


class TestObstructionsText:
    """The text of ``obstructions``, whose every line is a top-level line of ``_show``: the
    recorded bytes, which ``--quiet`` leaves whole."""

    @pytest.mark.parametrize("args, code, first, sha256", [
        (["-a", "3", "-b", "3", "-k", "2", "-r", "4"], 1,
         "5 witness(es) within proof bounds (paper formula):",
         "57e2914132a7166ef36c8fc4d96591600126445b02d17a464624499d3d725325"),
        (["-a", "3", "-b", "3", "-k", "2", "-r", "4", "--formula", "standard"], 1,
         "78 witness(es) within proof bounds (standard formula):",
         "b7b165f6d4e6c8756fa6d6892d9a8d4539d09e8ff065b1fefd4629559b62a7b0"),
        (["-a", "12", "-b", "12", "-k", "2", "-r", "28"], 0,
         "none found within proof bounds",
         "5788f59da8a3736b8f3c7014ad96618b9a6d01bfe20edd04ae114e52d7173f6d"),
    ], ids=["paper", "standard", "none"])
    @pytest.mark.parametrize("quiet", [[], ["--quiet"]], ids=["full", "quiet"])
    def test_recorded_bytes(self, args, code, first, sha256, quiet):
        result = invoke(["obstructions", *args, *quiet])
        assert (result.exit_code, result.stderr) == (code, "")
        assert result.stdout.splitlines()[0] == first
        assert hashlib.sha256(result.stdout.encode()).hexdigest() == sha256


class TestSurfaces:
    def test_seven_rows(self):
        result = invoke(["surfaces"])
        assert result.exit_code == 0
        assert len(result.output.splitlines()) == 7

    def test_row_contents(self):
        payload = parse(invoke(["surfaces", "--json"]))
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
        # each row is the library's, field for field
        assert rows == [{**s._asdict(), "multiplicities": list(s.multiplicities)}
                        for s in surface_table()]


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
    def test_parse_and_reserialize_is_byte_identical(self, args):
        out = invoke(args).output
        assert out.endswith("\n")
        body = out[:-1]
        assert json.dumps(json.loads(body), indent=2) == body


#: one command line of each subcommand, and whether ``--quiet`` trims its text
FLAG_CASES = [
    (["check", "-a", "12", "-b", "12", "-k", "2", "-d", "10", "-r", "28"], True),
    (["max-r", "-a", "1", "-b", "1", "-k", "1", "--c", "99/100"], True),
    (["seshadri", "-a", "12", "-b", "12", "-r", "28"], True),
    (["constants", "verify"], True),
    (["obstructions", "-a", "3", "-b", "3", "-k", "2", "-r", "4"], False),
    (["surfaces"], False),
]


class TestOutputFlags:
    @pytest.mark.parametrize("args", [args for args, _ in FLAG_CASES], ids=lambda a: a[0])
    def test_json_ignores_quiet(self, args):
        assert invoke(args + ["--json", "--quiet"]) == invoke(args + ["--json"])

    @pytest.mark.parametrize("args,trims", FLAG_CASES, ids=[args[0] for args, _ in FLAG_CASES])
    def test_quiet_drops_detail_lines_only(self, args, trims):
        full, quiet = invoke(args), invoke(args + ["--quiet"])
        assert (quiet.exit_code, quiet.stderr) == (full.exit_code, full.stderr)
        full_lines, quiet_lines = full.stdout.splitlines(), quiet.stdout.splitlines()
        rest = iter(full_lines)
        assert all(line in rest for line in quiet_lines)  # a subsequence, in order
        assert (len(quiet_lines) < len(full_lines)) == trims
        assert quiet_lines[0] == full_lines[0]


class TestGlobalFlags:
    def test_group_level_json_flag(self):
        result = invoke(["--json", "surfaces"])
        assert parse(result)["surfaces"][0]["id"] == 1

    def test_exit_code_matrix(self):
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
            assert invoke(args).exit_code == expected, args


class TestEntryPoint:
    CHECK = ["check", "-a", "12", "-b", "12", "-k", "2", "-d", "10", "-r", "28"]

    #: the modules that neither the import nor any call may load: argparse and its gettext
    #: and locale, json, and two that the package dropped for their cost
    HEAVY = ("argparse", "gettext", "locale", "json", "click", "dataclasses")
    #: a well-formed call of each command
    PLAIN = [CHECK, ["max-r", "-a", "12", "-b", "12", "-k", "2", "--c", "99/100"],
             ["seshadri", "-a", "12", "-b", "12", "-r", "28"], ["constants", "verify"],
             ["obstructions", "-a", "3", "-b", "3", "-k", "2", "-r", "4"], ["surfaces"]]

    def test_import_does_not_load_dataclasses(self):
        result = python("-c", "import sys, kvacert.cli; print('dataclasses' in sys.modules)")
        assert (result.returncode, result.stdout) == (0, "False\n")

    def test_import_does_not_load_click(self):
        result = python("-c", "import sys, kvacert.cli; print('click' in sys.modules)")
        assert (result.returncode, result.stdout) == (0, "False\n")

    @pytest.mark.parametrize("calls", [
        pytest.param([], id="import"),
        pytest.param([args + flags for args in PLAIN for flags in ([], ["--json"])],
                     id="well-formed"),
        # the help texts and the usage errors are the command's own, as is its JSON writer
        pytest.param([["--help"], ["check", "--help"]], id="help"),
        pytest.param([["check", "-a", "12"], ["nonsense"]], id="usage-error"),
    ])
    def test_modules_loaded_by_import_and_calls(self, calls):
        code = "\n".join([
            "import contextlib, io, sys",
            f"heavy = {self.HEAVY!r}",
            "bare = {name for name in heavy if name in sys.modules}",
            "from kvacert.cli import main",
            "with contextlib.redirect_stdout(io.StringIO()), \\",
            "        contextlib.redirect_stderr(io.StringIO()):",
            f"    for args in {calls!r}:",
            "        main(args, standalone_mode=False)",
            "print((sorted(bare), sorted(name for name in heavy if name in sys.modules)))",
        ])
        result = python("-c", code)
        assert result.returncode == 0, result.stderr
        bare, now = map(set, ast.literal_eval(result.stdout))
        # a module that the interpreter loads at start-up is not counted
        assert now - bare == set()

    @pytest.mark.parametrize("args", [
        ["check", "-b", "12", "-k", "2", "-d", "10", "-r", "28"],  # missing -a
        CHECK + ["--surface", "8"],
        CHECK + ["--frobnicate"],
        ["obstructions", "-a", "3", "-b", "3", "-k", "2", "-r", "4", "--form", "paper"],
        ["--qui", "surfaces"],
    ], ids=["missing-a", "surface-8", "unknown-option", "abbreviated-formula", "abbreviated-quiet"])
    def test_usage_error_returns_two(self, args):
        result = invoke(args)  # main(args, standalone_mode=False); nothing may escape it
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr.splitlines()[-1].startswith("Error: ")

    @pytest.mark.parametrize("args", [["--help"], ["check", "--help"]])
    def test_help_returns_zero(self, args):
        result = invoke(args)
        assert (result.exit_code, result.stderr) == (0, "")
        assert result.stdout.startswith("usage: kvacert")

    @pytest.mark.parametrize("command, flag, default", [
        ("check", "--c", "887/1000"), ("check", "--delta", "178/1000"),
        ("obstructions", "--delta", "178/1000"), ("constants", "--grid-step", "1/1000"),
    ])
    def test_help_gives_the_rational_defaults_in_thousandths(self, command, flag, default):
        # as the paper and the README write them; the canonical JSON keeps lowest terms
        lines = invoke([command, "--help"]).stdout.splitlines()
        assert [line for line in lines if line.split()[:1] == [flag]][0].endswith(
            f"(default {default}).")

    @pytest.mark.parametrize("flags", [["--json"], ["--quiet"], ["--json", "--quiet"]])
    def test_group_and_subcommand_flags_print_identical_bytes(self, flags):
        before, after = invoke([*flags, *self.CHECK]), invoke([*self.CHECK, *flags])
        assert before.exit_code == after.exit_code == 0
        assert before.stdout == after.stdout != invoke(self.CHECK).stdout
        split = invoke([flags[0], *self.CHECK, *flags[1:]])
        assert split.stdout == before.stdout

    def test_standalone_mode_exits_with_the_code(self):
        for args, code in ((self.CHECK, 0), (self.CHECK[:-1] + ["29"], 1), (["nonsense"], 2)):
            with pytest.raises(SystemExit) as exc, contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                main(args)
            assert exc.value.code == code

    def test_run_exits_with_the_code_and_bytes_of_main(self):
        # run ends the process with os._exit, after which no buffer is flushed
        for args, code in ((self.CHECK, 0), (self.CHECK[:-1] + ["29"], 1), (["nonsense"], 2)):
            result, want = kvacert_process(args, False, subprocess.PIPE), invoke(args)
            assert want.exit_code == code
            assert (result.returncode, result.stdout, result.stderr) == want[:3]

    #: short and long text, dumped and streamed JSON, and the help text
    OUTPUTS = [
        pytest.param(["surfaces"], id="surfaces"),
        pytest.param(["surfaces", "--json"], id="surfaces-json"),
        pytest.param(["constants"], id="constants"),
        pytest.param(["obstructions", "-a", "3", "-b", "3", "-k", "2", "-r", "4", "--json"],
                     id="obstructions-json"),
        pytest.param(["--help"], id="help"),
    ]

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("args", OUTPUTS + [pytest.param(["check", "--help"], id="check-help")])
    def test_a_closed_stdout_exits_141_without_a_traceback(self, args, unbuffered):
        # the read end is closed before the child starts, so even an output that would fit
        # in the pipe's buffer meets a broken pipe: in the command when stdout is
        # unbuffered, in the flush after it when stdout is buffered
        read, write = os.pipe()
        os.close(read)
        try:
            proc = kvacert_process(args, unbuffered, write)
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (141, "")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("args", OUTPUTS)
    def test_a_full_device_exits_74_with_one_error_line(self, args, unbuffered):
        # every write to /dev/full fails with ENOSPC: no traceback, no "Exception ignored"
        # from a flush at exit, only the one line that names the error
        with open("/dev/full", "w") as full:
            proc = kvacert_process(args, unbuffered, full)
        error = f"Error: cannot write the output: {os.strerror(errno.ENOSPC)}\n"
        assert (proc.returncode, proc.stderr) == (74, error)

    @pytest.mark.parametrize("args", [OUTPUTS[0], OUTPUTS[3], OUTPUTS[4]])
    def test_a_stdout_closed_before_the_start_exits_74_with_one_error_line(self, args):
        # Python then sets sys.stdout to None, on which print writes nothing and flush does
        # not exist: run reports the lost output as a failed write, before main runs
        proc = subprocess.run(
            [sys.executable, "-m", "kvacert.cli", *args], stderr=subprocess.PIPE, text=True,
            env=ENV, timeout=60, preexec_fn=lambda: os.close(1))
        error = f"Error: cannot write the output: {os.strerror(errno.EBADF)}\n"
        assert (proc.returncode, proc.stderr) == (74, error)


#: a number of 4000 digits: Python refuses to convert an int of over 4300 digits to str
_HUGE = "1" + "0" * 3999
CAP_ERROR = f"numbers are limited to {MAX_DIGITS} digits and exponents to {MAX_EXPONENT}"


class TestDigitCap:
    @pytest.mark.parametrize("args", [
        ["max-r", "-a", "12", "-b", "12", "-k", "2", "--c", "1e-5000", "--json"],
        ["max-r", "-a", _HUGE, "-b", _HUGE, "-k", "2"],
        ["seshadri", "-a", _HUGE, "-b", _HUGE, "-r", "28"],
        ["check", "-a", _HUGE, "-b", _HUGE, "-k", "2", "-d", "10", "-r", "28"],
        ["constants", "verify", "--kmin", "1" + "0" * 999],
        ["constants", "verify", "--grid-step", "1e-10000000"],
    ], ids=["max-r-c", "max-r-ab", "seshadri-ab", "check-ab", "constants-kmin",
            "constants-grid-step"])
    def test_oversized_number_refused_promptly(self, args):
        start = time.monotonic()
        result = invoke(args)  # an exception escaping main fails the test
        assert time.monotonic() - start < 1.0
        assert (result.exit_code, result.stdout) == (2, "")
        assert "Traceback" not in result.stderr
        errors = [line for line in result.stderr.splitlines() if line.startswith("Error:")]
        assert len(errors) == 1 and errors[0].endswith(CAP_ERROR)

    def test_at_the_cap_the_library_decides(self):
        at_cap = "9" * MAX_DIGITS
        result = invoke(["check", "-a", at_cap, "-b", at_cap, "-k", "2", "-d", "10", "-r", at_cap])
        assert result.exit_code == 0 and result.output.endswith("verdict: k-very-ample-certified\n")
        result = invoke(["max-r", "-a", "12", "-b", "12", "-k", "2", f"--c=1e-{MAX_EXPONENT}"])
        assert result.output.splitlines()[0] == "0"

    @pytest.mark.parametrize("option,args", [
        ("-a", ["-a", "1" + "0" * MAX_DIGITS, "-b", "12"]),
        ("--c", ["-a", "12", "-b", "12", "--c=1/" + "9" * MAX_DIGITS]),
        ("--c", ["-a", "12", "-b", "12", f"--c=1e-{MAX_EXPONENT + 1}"]),
        ("--c", ["-a", "12", "-b", "12", f"--c=1e-0000{MAX_EXPONENT + 1}"]),
        # int and Fraction read the decimal digits of every script, so the cap counts them
        # all, and leading zeros of every script are skipped
        ("-a", ["-a", "١" + "٠" * MAX_DIGITS, "-b", "12"]),
        ("--c", ["-a", "12", "-b", "12", "--c", "1e-" + "٠" * 4 + "٤٠١"]),
    ], ids=["int", "rational", "exponent", "exponent-leading-zeros", "arabic-indic-int",
            "arabic-indic-leading-zeros"])
    def test_just_past_the_cap_refused(self, option, args):
        result = invoke(["max-r", "-k", "2", *args])
        assert result.exit_code == 2
        assert result.stderr.splitlines()[-1] == f"Error: argument {option}: {CAP_ERROR}"

    def test_only_what_int_reads_is_a_digit(self):
        # "²" is a digit to str.isdigit, but not to int or Fraction: the value is no rational
        result = invoke(["max-r", "-a", "1", "-b", "1", "-k", "2", "--c", "1e²"])
        assert result.exit_code == 2
        assert result.stderr.splitlines()[-1] == (
            "Error: argument --c: '1e²' is not an exact rational like 887/1000 or 0.887")
        # while "٣" (Arabic-Indic three) is a digit to both
        assert invoke(["max-r", "-a", "١٢", "-b", "12", "-k", "٢", "--c", "٨٨٧/١٠٠٠"]) == invoke(
            ["max-r", "-a", "12", "-b", "12", "-k", "2"])


#: integers at and just past the digit cap
_CAP_INTS = st.sampled_from([10**MAX_DIGITS - 1, 10**MAX_DIGITS, -(10**MAX_DIGITS)])
_INTS = st.one_of(st.integers(-3, 40), _CAP_INTS)
#: exact rationals on both sides of every range check and of the digit cap, and
#: strings that are none
_RATIONALS = st.one_of(
    st.fractions(min_value=-1, max_value=2, max_denominator=1000).map(str),
    st.sampled_from(["0.887", "178/1000", "1e-400", "1/0", "abc", "", "1e²",
                     f"1e-{MAX_EXPONENT + 1}", "1/" + "9" * (MAX_DIGITS - 1),
                     "1/" + "9" * MAX_DIGITS]),
)
_SURFACE = st.integers(0, 8)
#: each subcommand's options; the ranges keep every search well under a second and
#: every scan within the scan budget (a k or r at the digit cap meets the work or
#: output budget, or leaves nothing to search)
_OPTIONS = {
    "check": {"--surface": _SURFACE, "-a": _INTS, "-b": _INTS,
              "-k": st.one_of(st.integers(-1, 5), _CAP_INTS), "-d": _INTS, "-r": _INTS,
              "--c": _RATIONALS, "--delta": _RATIONALS},
    "max-r": {"-a": _INTS, "-b": _INTS,
              "-k": st.one_of(st.integers(-1, 5), _CAP_INTS), "--c": _RATIONALS},
    "seshadri": {"-a": _INTS, "-b": _INTS, "-r": _INTS},
    "constants": {"--grid-step": st.one_of(_RATIONALS, st.just("1/1000000")),
                  "--kmin": st.one_of(st.integers(-1, 12), _CAP_INTS)},
    "obstructions": {"-a": st.integers(0, 30), "-b": st.integers(0, 30),
                     "-k": st.one_of(st.integers(1, 3), _CAP_INTS),
                     "-r": st.one_of(st.integers(-1, 40), _CAP_INTS),
                     "--delta": st.sampled_from(["1/2", "1/4", "178/1000", "1", "3/2", "0",
                                                 "-1/3", "1/10000000", "abc"]),
                     "--formula": st.sampled_from(["paper", "standard"] * 4 + ["other"])},
    "surfaces": {},
}


@st.composite
def _argv(draw):
    """A command line of one subcommand: random values, now and then an option left out,
    and ``--json``/``--quiet`` before or after the subcommand."""
    name = draw(st.sampled_from(sorted(_OPTIONS)))
    args = [name]
    for option, values in _OPTIONS[name].items():
        if draw(st.integers(0, 19)):  # one option in twenty is left out
            value = str(draw(values))
            # ``--c=-1/2`` passes a negative rational; ``--c -1/2`` reads as two options
            args += [f"{option}={value}"] if option.startswith("--") else [option, value]
    flags = draw(st.lists(st.sampled_from(["--json", "--quiet"]), max_size=2))
    return [*flags, *args] if draw(st.booleans()) else [*args, *flags]


class TestExitCodes:
    @settings(max_examples=300, deadline=None)
    @given(args=_argv())
    def test_every_command_line_exits_zero_one_or_two(self, args):
        result = invoke(args)  # an exception escaping main fails the test
        assert result.exit_code in (0, 1, 2)
        assert "Traceback" not in result.stderr
        if result.exit_code == 2:
            assert result.stderr.splitlines()[-1].startswith("Error: ")
        else:
            assert result.stderr == ""


_MAX_R = ["max-r", "-a", "12", "-b", "12", "-k", "2"]
_COMMAND_CHOICES = "'check', 'max-r', 'seshadri', 'constants', 'obstructions', 'surfaces'"


class TestUsageErrors:
    """One line of each kind of usage error, with the message of argparse 3.11.7."""

    @pytest.mark.parametrize("args,message", [
        (["check", "-a", "12"], "the following arguments are required: -b, -k, -d, -r"),
        (["--json"], "the following arguments are required: COMMAND"),
        (["frobnicate"], f"argument COMMAND: invalid choice: 'frobnicate' (choose from"
                         f" {_COMMAND_CHOICES})"),
        # every word left over, in order, "--" included
        (["surfaces", "x", "--frob", "-a=1", "--", "-b"],
         "unrecognized arguments: x --frob -a=1 -- -b"),
        (["max-r", "-a", "12", "-b", "12", "-k"], "argument -k: expected one argument"),
        (_MAX_R + ["--c", "-1/2"], "argument --c: expected one argument"),
        (["max-r", "-a", "twelve", "-b", "12", "-k", "2"],
         "argument -a: invalid int value: 'twelve'"),
        (TestEntryPoint.CHECK + ["--surface", "9"],
         "argument --surface: invalid choice: 9 (choose from 1, 2, 3, 4, 5, 6, 7)"),
        (["obstructions", "-a", "3", "-b", "3", "-k", "2", "-r", "4", "--formula", "other"],
         "argument --formula: invalid choice: 'other' (choose from 'paper', 'standard')"),
        (["constants", "frobnicate"],
         "argument action: invalid choice: 'frobnicate' (choose from 'verify')"),
        (["max-r", "-a", "1" + "0" * MAX_DIGITS, "-b", "12", "-k", "2"],
         f"argument -a: {CAP_ERROR}"),
        (_MAX_R + ["--c", "abc"],
         "argument --c: 'abc' is not an exact rational like 887/1000 or 0.887"),
        (["--json=1", "surfaces"], "argument --json: ignored explicit argument '1'"),
    ], ids=["required", "required-command", "unknown-command", "unrecognized",
            "expected-one", "expected-one-negative", "invalid-int", "invalid-int-choice",
            "invalid-str-choice", "invalid-positional-choice", "digit-cap", "rational",
            "explicit-flag-value"])
    def test_message(self, args, message):
        result = invoke(args)
        assert (result.exit_code, result.stdout) == (2, "")
        usage, error = result.stderr.rsplit("Error: ", 1)
        assert usage.startswith("usage: kvacert") and error == f"{message}\n"


class TestParse:
    """``_parse`` against argparse, the parser it replaced: both take a line with the same
    typed values, or print help, or refuse it with the same message, each after the same
    usage paragraph.  argparse's side is the table that ``tests/argparse_oracle.py``
    recorded under Python 3.11.7, so no later argparse release moves these tests; the
    script compares the two parsers live."""

    RECORDED = json.loads(TABLE.read_text())
    OUTCOMES = {json.dumps(row["argv"]): row["outcome"] for row in RECORDED["lines"]}

    def test_takes_every_plain_line_and_agrees_with_argparse(self):
        rows, explicit = self.RECORDED["lines"], EXAMPLES + EDGE_LINES
        # the explicit lines, then the lines drawn once: about half plain, half edited
        assert [row["argv"] for row in rows[:len(explicit)]] == explicit
        assert len(rows) == len(explicit) + DRAWN
        for row in rows:
            got = outcome(_parse, row["argv"])
            assert same(got, row["outcome"]), (row["argv"], got, row["outcome"])
            assert got[0] == "namespace" or not row["plain"], row["argv"]

    @pytest.mark.parametrize("argv", EXAMPLES, ids=" ".join)
    def test_agrees_with_argparse_on_each_spelling(self, argv):
        want = self.OUTCOMES[json.dumps(argv)]
        assert same(outcome(_parse, argv), want), want

    @pytest.mark.parametrize("command", [None, *_COMMANDS], ids=str)
    def test_usage_paragraph_is_argparses_at_80_columns(self, command):
        assert _help(command).partition("\n\n")[0] == self.RECORDED["usage"][command or ""]

    def test_usage_wraps_under_the_first_option(self):
        lines = invoke(["check", "--help"]).stdout.splitlines()
        assert lines[1] == " " * 21 + "-a A -b B -k K -d D -r R [--c C] [--delta DELTA]"


#: the characters of the strings ``_json`` writes: printable ASCII but ``"`` and ``\``
_PLAIN = "".join(chr(code) for code in range(0x20, 0x7F) if chr(code) not in '"\\')
#: JSON-native values: nested and empty containers, big and negative ints, and text
_JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.sampled_from([10**40, -10**40]),
              st.text(alphabet=_PLAIN), st.just(_PLAIN)),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.text(alphabet=_PLAIN, max_size=4), inner,
                                            max_size=4)),
    max_leaves=12)
GOLDEN_JSON_ARGS = [golden["args"] for golden in json.loads(
    (Path(__file__).parent / "cli_goldens.json").read_text()) if "--json" in golden["args"]]
JSON_PAYLOAD_ARGS = GOLDEN_JSON_ARGS + [["surfaces", "--json"]]


def _strings(value):
    """Every string of a JSON value, its keys included."""
    if isinstance(value, str):
        yield value
    elif isinstance(value, dict):
        for key, item in value.items():
            yield key
            yield from _strings(item)
    elif isinstance(value, list):
        for item in value:
            yield from _strings(item)


class TestJsonWriter:
    """``_json`` against ``json.dumps(..., indent=2)``, whose bytes it writes.

    It writes only strings of printable ASCII without ``"`` or ``\\``, which ``json``
    leaves as they are, and refuses any other with an error that ``main`` does not
    report as a usage error.
    """

    @pytest.mark.parametrize("args", JSON_PAYLOAD_ARGS, ids=" ".join)
    def test_every_golden_payload(self, args):
        out = invoke(args).stdout
        payload = json.loads(out)
        assert _json(payload) + "\n" == json.dumps(payload, indent=2) + "\n" == out

    def test_every_payload_string_is_one_it_writes(self):
        strings = {text for args in JSON_PAYLOAD_ARGS
                   for text in _strings(json.loads(invoke(args).stdout))}
        assert len(strings) > 100
        assert [text for text in strings if not set(text) <= set(_PLAIN)] == []

    @settings(max_examples=500, deadline=None)
    @given(value=_JSON_VALUES)
    def test_drawn_values(self, value):
        assert _json(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize("text", ["\n", "\x7f", "é", "😀", '"', "\\"],
                             ids=["control", "delete", "non-ascii", "non-bmp", "quote",
                                  "backslash"])
    def test_refuses_a_string_it_does_not_escape(self, text):
        for value in (f"a{text}b", {"key": [text]}, {text: 1}):
            with pytest.raises(AssertionError, match="does not escape"):
                _json(value)

    def test_main_lets_a_refused_string_through(self, monkeypatch):
        # a bug, not a refused input: no exit 2 with an Error: line
        row = surface_table()[0]._replace(group="Z/2 \u00d7 Z/2")
        monkeypatch.setattr("kvacert.cli.surface_table", lambda: [row])
        with pytest.raises(AssertionError, match="does not escape"):
            main(["surfaces", "--json"], standalone_mode=False)
