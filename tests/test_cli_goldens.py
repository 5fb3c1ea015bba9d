"""Recorded CLI outputs that later rewrites must reproduce.

``cli_goldens.json`` holds the exit code and stdout of the README's ``check``,
``max-r`` and ``seshadri`` commands and of two inputs that used to certify
unsoundly, recorded before ``check`` rendered ``certify_instance``; and of
``constants verify`` at the defaults and at ``--kmin 3 --grid-step 1/10000``,
recorded before the exact kernel moved to integer arithmetic.  Each is there
plain and with ``--json``.  Everything but ``check`` must be byte-identical.
``check`` now adds the certificate checks; with them removed, its output must
be byte-identical except for the verdict of the two inputs whose
certification was unsound.  The entries marked ``full`` were recorded later,
with every line of today's output, before the commands were rewritten to build
each output once: ``--quiet`` forms, the empty feasible set of a coarse scan,
every ``max-r`` warning, a negative ``k+1+delta``, a class that is not ample,
and ``surfaces``.  They must be byte-identical, ``check`` included.  All but
the two 1/10000 scans also run in a fresh ``python -m kvacert.cli`` process,
which must print what ``main`` prints in process.
"""

import json
from pathlib import Path

import pytest
from test_cli import invoke, python

GOLDENS = json.loads((Path(__file__).parent / "cli_goldens.json").read_text())
CERTIFICATE_CHECKS = ("star", "c-certified", "delta-certified")
#: c above the certified constant; delta above the certified slack
FIXED_VERDICTS = ({"--c", "99/100"}, {"--delta", "5"})


def _fixed(args) -> bool:
    return any(flags <= set(args) for flags in FIXED_VERDICTS)


def _without_certificate_checks(args, output: str) -> str:
    if "--json" in args:
        payload = json.loads(output)
        assert [c["name"] for c in payload.pop("certificate_checks")] == list(CERTIFICATE_CHECKS)
        return json.dumps(payload, indent=2) + "\n"
    lines = output.splitlines(keepends=True)
    kept = [line for line in lines if not line.lstrip().startswith(
        tuple(f"[{mark}] {name}:" for mark in ("ok", "FAIL") for name in CERTIFICATE_CHECKS))]
    assert len(lines) - len(kept) == len(CERTIFICATE_CHECKS)
    return "".join(kept)


@pytest.mark.parametrize("golden", GOLDENS, ids=lambda g: " ".join(g["args"]))
def test_output_matches_golden(golden):
    args = golden["args"]
    result = invoke(args)
    if args[0] != "check" or golden.get("full"):
        assert (result.exit_code, result.output) == (golden["exit"], golden["output"])
        return
    expected_exit, expected = golden["exit"], golden["output"]
    if _fixed(args):
        assert expected_exit == 0
        expected_exit = 1
        expected = expected.replace("k-very-ample-certified", "hypotheses-not-met")
    assert result.exit_code == expected_exit
    assert _without_certificate_checks(args, result.output) == expected


#: every golden but the slow 1/10000 scans, through ``python -m kvacert.cli``
MODULE_GOLDENS = [g for g in GOLDENS if "1/10000" not in g["args"]]


@pytest.mark.parametrize("golden", MODULE_GOLDENS, ids=lambda g: " ".join(g["args"]))
def test_module_entry_point_renders_like_main(golden):
    """A fresh ``python -m kvacert.cli`` process (it goes through ``run``) prints what
    ``main`` prints in process, which :func:`test_output_matches_golden` checks."""
    proc = python("-m", "kvacert.cli", *golden["args"])
    result = invoke(golden["args"])
    assert (proc.returncode, proc.stdout) == (result.exit_code, result.output)
    if golden["args"][0] != "check" or golden.get("full"):
        assert (proc.returncode, proc.stdout) == (golden["exit"], golden["output"])
