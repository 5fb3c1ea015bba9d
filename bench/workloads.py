"""Workloads of the kvacert benchmark: job lists and the checks on their output.

A job is one ``kvacert`` command line.  A workload is a list of jobs built
from a seed: the seed fixes the job order and, for ``cli-instances``, the
jobs themselves.  Every job's output is checked.  Where the expectation is
cheap it is computed here, independently of the program; otherwise it is
a golden (exit code, witness count or scan length, SHA-256 of stdout)
recorded by ``record_goldens.py``.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import floor, isqrt
from pathlib import Path

GOLDENS_PATH = Path(__file__).resolve().parent / "goldens.json"

#: constants the pipeline certifies at default settings
C_CERT = Fraction(887, 1000)
DELTA_CERT = Fraction(178, 1000)
CEILING_DEFAULT = Fraction(954, 1000)

#: a job still running after this many seconds is killed and counted as failed
JOB_TIMEOUT_S = 60.0
#: refusing oversized work must be prompt; the oversized probe gets this long
REFUSAL_TIMEOUT_S = 3.0


@dataclass
class Job:
    """One CLI call, what kind of output it produces, and its parameters."""

    args: tuple[str, ...]
    kind: str
    params: dict = field(default_factory=dict)
    timeout_s: float = JOB_TIMEOUT_S

    @property
    def key(self) -> str:
        return " ".join(self.args)


# ---------------------------------------------------------------------------
# job builders
# ---------------------------------------------------------------------------


def _flag(json_out: bool) -> tuple[str, ...]:
    return ("--json",) if json_out else ()


def check_job(a, b, k, d, r, *, surface=1, c=None, delta=None, json_out=True) -> Job:
    args = ("check", "--surface", str(surface), "-a", str(a), "-b", str(b),
            "-k", str(k), "-d", str(d), "-r", str(r))
    if c is not None:
        args += ("--c", c)
    if delta is not None:
        args += ("--delta", delta)
    params = dict(a=a, b=b, k=k, d=d, r=r,
                  c=Fraction(c) if c else C_CERT,
                  delta=Fraction(delta) if delta else DELTA_CERT,
                  json=json_out)
    return Job(args + _flag(json_out), "check", params)


def obstructions_job(a, b, k, r, formula="paper") -> Job:
    args = ("obstructions", "-a", str(a), "-b", str(b), "-k", str(k), "-r", str(r),
            "--formula", formula, "--json")
    return Job(args, "obstructions", dict(a=a, b=b, k=k, r=r, formula=formula, delta=DELTA_CERT))


def constants_job(kmin=None, step=None) -> Job:
    args = ("constants", "verify", "--json")
    if kmin is not None:
        args += ("--kmin", str(kmin), "--grid-step", step)
    params = dict(kmin=kmin or 2, step=Fraction(step) if step else Fraction(1, 1000))
    return Job(args, "constants", params)


# The ladders are fixed job sets (their outputs have goldens); the seed only
# orders them.

#: kmin ladder at both grid steps; 68 grid points at the default, ~660 at 1/10000
CONSTANTS_LADDER = [constants_job()] + [
    constants_job(kmin, step)
    for step in ("1/1000", "1/10000")
    for kmin in (2, 3, 5, 8, 11)
    if (kmin, step) != (2, "1/1000")
]

#: the (alpha, beta) box walk grows with k and shrinks with a*b
PAPER_LADDER = (
    [obstructions_job(3, 3, k, r) for k, r in ((2, 4), (4, 10), (8, 20), (20, 100))]
    + [obstructions_job(12, 12, k, 28) for k in (2, 4, 8, 20, 40)]
    + [obstructions_job(30, 30, k, 28) for k in (2, 8, 20, 40)]
)

#: the partition walk is exponential in the total multiplicity; k stops at 7 so
#: that a run holds several passes ((3,3), k=8 alone takes about 6 s)
STANDARD_LADDER = (
    [obstructions_job(3, 3, k, r, "standard")
     for k, r in ((2, 4), (3, 10), (4, 10), (5, 20), (6, 20), (7, 30))]
    + [obstructions_job(12, 12, k, 28, "standard") for k in (2, 4, 5, 6, 7)]
)

#: small obstruction searches that cli-instances draws from (each has a golden)
SMALL_OBSTRUCTIONS = [
    obstructions_job(a, b, k, r, formula)
    for a, b, k, r in ((3, 3, 2, 4), (3, 3, 3, 6), (4, 5, 2, 8), (6, 6, 2, 10),
                       (8, 12, 2, 20), (12, 12, 2, 28), (12, 12, 3, 28), (20, 20, 4, 28))
    for formula in ("paper", "standard")
]

SURFACES_JOBS = [Job(("surfaces",), "golden"), Job(("surfaces", "--json"), "surfaces")]

#: inputs that show the defects listed as open in the roadmap; each fails today
KNOWN_DEFECTS = [
    # c above the certified 887/1000 (and above the 954/1000 ceiling) still certifies
    check_job(12, 12, 2, 10, 31, c="99/100"),
    # the Seshadri star condition fails for delta = 5, yet the instance certifies
    check_job(12, 12, 2, 10, 28, delta="5"),
    # oversized search box: should be refused promptly with exit 2, instead it runs on
    Job(("obstructions", "-a", "12", "-b", "12", "-k", "2", "-r", "28", "--delta", "1/10000000"),
        "refusal", timeout_s=REFUSAL_TIMEOUT_S),
]


def _random_check(rng: random.Random) -> Job:
    k = rng.choice((2, 3, 4))
    t = k + 1
    d = t * t + rng.randint(1, 4)
    a = d + 2 + rng.randint(0, 12)
    b = d + 2 + rng.randint(0, 12)
    if rng.random() < 0.15:  # break a >= d+2
        a = d + rng.randint(-3, 1)
    r_max = floor(C_CERT * 2 * a * b / (t * t))
    r = max(1, r_max + rng.randint(-2, 2))  # both sides of r_max
    return check_job(a, b, k, d, r, surface=rng.randint(1, 7), json_out=rng.random() < 0.5)


def _random_max_r(rng: random.Random) -> Job:
    a, b, k = rng.randint(1, 60), rng.randint(1, 60), rng.randint(2, 6)
    json_out = rng.random() < 0.5
    args = ("max-r", "-a", str(a), "-b", str(b), "-k", str(k)) + _flag(json_out)
    return Job(args, "max-r", dict(a=a, b=b, k=k, json=json_out))


def _random_seshadri(rng: random.Random) -> Job:
    a, b, r = rng.randint(1, 60), rng.randint(1, 60), rng.randint(1, 80)
    json_out = rng.random() < 0.5
    args = ("seshadri", "-a", str(a), "-b", str(b), "-r", str(r)) + _flag(json_out)
    return Job(args, "seshadri", dict(a=a, b=b, r=r, json=json_out))


def cli_instances(rng: random.Random) -> list[Job]:
    """110 short calls; the mix is fixed so that p50 and p90 compare across seeds."""
    jobs = [_random_check(rng) for _ in range(35)]
    jobs += [_random_max_r(rng) for _ in range(20)]
    jobs += [_random_seshadri(rng) for _ in range(20)]
    jobs += [rng.choice(SURFACES_JOBS) for _ in range(10)]
    jobs += [rng.choice(SMALL_OBSTRUCTIONS) for _ in range(25)]
    return jobs


WORKLOADS = {
    "constants-scan": lambda rng: list(CONSTANTS_LADDER),
    "obstructions-paper": lambda rng: list(PAPER_LADDER),
    "obstructions-standard": lambda rng: list(STANDARD_LADDER),
    "cli-instances": cli_instances,
    "known-defects": lambda rng: list(KNOWN_DEFECTS),
}


def build_jobs(workload: str, seed: int) -> list[Job]:
    """The job list of a workload, in the order the seed gives."""
    rng = random.Random(seed)
    jobs = WORKLOADS[workload](rng)
    rng.shuffle(jobs)
    return jobs


def golden_jobs() -> list[Job]:
    """Every job whose output is checked against a recorded golden."""
    return CONSTANTS_LADDER + PAPER_LADDER + STANDARD_LADDER + SMALL_OBSTRUCTIONS + SURFACES_JOBS


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def load_goldens() -> dict:
    return json.loads(GOLDENS_PATH.read_text())


def golden_record(job: Job, exit_code: int, stdout: bytes) -> dict:
    """What is recorded for a job: exit code, digest and its size figure."""
    rec = {"exit": exit_code, "sha256": hashlib.sha256(stdout).hexdigest()}
    if job.kind == "obstructions":
        rec["count"] = json.loads(stdout)["count"]
    elif job.kind == "constants":
        rec["scanned"] = json.loads(stdout)["scanned"]
    return rec


def frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _canonical(stdout: bytes) -> dict:
    text = stdout.decode()
    payload = json.loads(text)
    if json.dumps(payload, indent=2) + "\n" != text:
        raise ValueError("JSON output is not in canonical form")
    return payload


def expected_check_exit(p: dict) -> int:
    """Verdict of the theorem: hypotheses, the star condition, certified constants."""
    a, b, k, d, r, c, delta = (p[x] for x in ("a", "b", "k", "d", "r", "c", "delta"))
    t = k + 1
    l2 = 2 * a * b
    hypotheses = (k >= 2 and d > t * t and a >= d + 2 and b >= d + 2
                  and 2 <= r <= floor(c * l2 / (t * t)))
    star = Fraction(l2 * (8 * r - 1), 8 * r * r) > (t + delta) ** 2
    sound = hypotheses and star and c <= C_CERT and delta <= DELTA_CERT
    return 0 if sound else 1


def _check_check(job, exit_code, stdout):
    p = job.params
    want = expected_check_exit(p)
    if exit_code != want:
        return f"exit {exit_code}, expected {want}"
    t = p["k"] + 1
    l2 = 2 * p["a"] * p["b"]
    r_max = floor(p["c"] * l2 / (t * t))
    verdict = "k-very-ample-certified" if want == 0 else "hypotheses-not-met"
    if not p["json"]:
        lines = stdout.decode().splitlines()
        if lines[-1] != f"verdict: {verdict}":
            return f"last line {lines[-1]!r}"
        return None
    out = _canonical(stdout)
    derived = out["derived"]
    ses_sq = Fraction(l2 * (8 * p["r"] - 1), 8 * p["r"] ** 2)
    expected = {
        "L2": l2,
        "r_max": r_max,
        "N2": l2 - t * t * p["r"],
        "seshadri_lower_sq": frac_str(ses_sq),
        "star_holds": ses_sq > (t + p["delta"]) ** 2,
    }
    for name, value in expected.items():
        if derived[name] != value:
            return f"{name} = {derived[name]!r}, expected {value!r}"
    if out["verdict"] != verdict:
        return f"verdict {out['verdict']!r}, expected {verdict!r}"
    return None


def _check_max_r(job, exit_code, stdout):
    p = job.params
    t = p["k"] + 1
    r_max = floor(C_CERT * 2 * p["a"] * p["b"] / (t * t))
    if exit_code != 0:
        return f"exit {exit_code}"
    if p["json"]:
        out = _canonical(stdout)
        got = out["r_max"]
        if out["L2"] != 2 * p["a"] * p["b"]:
            return f"L2 = {out['L2']}"
    else:
        got = int(stdout.decode().splitlines()[0])
    return None if got == r_max else f"r_max {got}, expected {r_max}"


def _check_seshadri(job, exit_code, stdout):
    p = job.params
    sq = frac_str(Fraction(2 * p["a"] * p["b"] * (8 * p["r"] - 1), 8 * p["r"] ** 2))
    if exit_code != 0:
        return f"exit {exit_code}"
    if p["json"]:
        got = _canonical(stdout)["seshadri_lower_sq"]
    else:
        got = stdout.decode().split(" = ", 1)[1].split(" ", 1)[0]
    return None if got == sq else f"seshadri_lower_sq {got}, expected {sq}"


def _check_surfaces(job, exit_code, stdout):
    ids = [s["id"] for s in _canonical(stdout)["surfaces"]]
    return None if exit_code == 0 and ids == list(range(1, 8)) else f"exit {exit_code}, ids {ids}"


def _witness_error(w: dict, p: dict) -> str | None:
    """Re-derive one witness's numbers from (alpha, beta) and its multiplicities."""
    a, b, k, r = p["a"], p["b"], p["k"], p["r"]
    t = k + 1
    alpha, beta, mults = w["d_s"]["a"], w["d_s"]["b"], w["mults"]
    m = sum(mults)
    if len(mults) != r or min(mults, default=0) < 0 or alpha < 0 or beta < 0 or alpha == beta == 0:
        return f"malformed witness {w}"
    lds = a * beta + b * alpha
    nd = lds - t * m
    sq = m * m if p["formula"] == "paper" else sum(x * x for x in mults)
    d2 = 2 * alpha * beta - sq
    if (w["nd"], w["d2"]) != (nd, d2):
        return f"witness {w}: recomputed nd={nd}, d2={d2}"
    if not (nd - k - 1 <= d2 and 2 * d2 < nd and nd < 2 * t):
        return f"witness {w} fails nd-k-1 <= d2 < nd/2 < k+1"
    if not (m <= t / p["delta"] and lds <= t * (1 + m) and nd >= 1):
        return f"witness {w} lies outside the search bounds"
    return None


def _check_obstructions(job, exit_code, stdout):
    out = _canonical(stdout)
    witnesses = out["witnesses"]
    if out["formula"] != job.params["formula"] or out["count"] != len(witnesses):
        return f"formula {out['formula']!r}, count {out['count']} of {len(witnesses)}"
    if exit_code != (1 if witnesses else 0):
        return f"exit {exit_code} with {len(witnesses)} witnesses"
    for w in witnesses:
        err = _witness_error(w, job.params)
        if err:
            return err
    return None


def expected_ceiling(kmin: int) -> Fraction:
    """Largest n/1000 with (1-c)*2(t0^2+3)^2 >= 4t0+1 at t0 = kmin+1."""
    t0 = kmin + 1
    c_exact = 1 - Fraction(4 * t0 + 1, 2 * (t0 * t0 + 3) ** 2)
    return Fraction(floor(c_exact * 1000), 1000)


def expected_delta(c: Fraction, kmin: int) -> Fraction:
    """3-decimal round-down of t0*((1/c)*sqrt(c - t0^2/(16(t0^2+3)^2)) - 1)."""
    t0 = kmin + 1
    rad = c - Fraction(t0 * t0, 16 * (t0 * t0 + 3) ** 2)
    x_sq = (1000 * t0 / c) ** 2 * rad  # floor(sqrt(x_sq)) == isqrt(floor(x_sq))
    return Fraction(isqrt(floor(x_sq)) - 1000 * t0, 1000)


def _check_constants(job, exit_code, stdout):
    out = _canonical(stdout)
    kmin, step = job.params["kmin"], job.params["step"]
    if out["c_ceiling"] != frac_str(expected_ceiling(kmin)):
        return f"c_ceiling {out['c_ceiling']}"
    if not out["feasible"]:
        return "no feasible constant"
    c_max = Fraction(out["c_max"])
    if out["delta_max"] != frac_str(expected_delta(c_max, kmin)):
        return f"delta_max {out['delta_max']} at c_max {out['c_max']}"
    if (kmin, step) == (2, Fraction(1, 1000)):
        want = (frac_str(C_CERT), frac_str(DELTA_CERT), frac_str(CEILING_DEFAULT))
        if (out["c_max"], out["delta_max"], out["c_ceiling"]) != want:
            return f"default run gave {out['c_max']}, {out['delta_max']}, {out['c_ceiling']}"
    return None if exit_code == 0 else f"exit {exit_code}"


CHECKS = {
    "check": _check_check,
    "max-r": _check_max_r,
    "seshadri": _check_seshadri,
    "surfaces": _check_surfaces,
    "obstructions": _check_obstructions,
    "constants": _check_constants,
    "golden": lambda job, exit_code, stdout: None,
    "refusal": lambda job, exit_code, stdout: None if exit_code == 2 else f"exit {exit_code}",
}


def check_output(job: Job, exit_code: int | None, stdout: bytes, goldens: dict) -> str | None:
    """None when the job's output is right, else the reason it is wrong.

    ``exit_code`` is None when the job was killed at its timeout.
    """
    if exit_code is None:
        return f"killed after {job.timeout_s} s"
    try:
        err = CHECKS[job.kind](job, exit_code, stdout)
    except (ValueError, KeyError, IndexError, TypeError) as exc:  # unparsable output
        return f"unreadable output: {exc!r}"
    if err is None and job.kind in ("obstructions", "constants", "surfaces", "golden"):
        want = goldens.get(job.key)
        if want is None:
            return "no golden recorded"
        got = golden_record(job, exit_code, stdout)
        if got != want:
            return f"differs from golden: {got} != {want}"
    return err
