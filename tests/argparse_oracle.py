"""The ``argparse`` reading of a ``kvacert`` command line, kept as the oracle of
``kvacert.cli._parse``, and the table of what it made of a fixed corpus of lines.

:func:`parse_with_argparse` is the parser that ``_parse`` replaced, built from the same
table, ``kvacert.cli._COMMANDS``, as :func:`top_parser` and one :func:`command_parser` per
command.  :func:`outcome` is what a parser makes of a line: its typed namespace, its help,
or its error message, each after the usage paragraph that the parser prints.  The two
parsers must agree on every line but in the body of the help text, which is each parser's
own; ``_parse`` also leaves out argparse's ``args``, the rest of the line after COMMAND,
which no command reads.

The corpus is the explicit lines :data:`EXAMPLES` and :data:`EDGE_LINES` and
:data:`DRAWN` lines from :func:`draw` at :data:`SEED`.  ``argparse_outcomes.json`` holds
argparse's outcome of each, recorded once under Python 3.11.7 at 80 columns, with the
usage paragraph of each command; ``TestParse`` in ``tests/test_cli.py`` compares
``_parse`` with that table, so that a later ``argparse`` release cannot fail it when
nothing in kvacert changed.  Run as a script, the module compares the two parsers live on
the lines of the table and on COUNT more lines drawn at SEED, and reports every line on
which this interpreter's argparse differs from the table; ``--record`` writes it anew::

    PYTHONPATH=src python tests/argparse_oracle.py [COUNT] [SEED]
    PYTHONPATH=src python tests/argparse_oracle.py --record

A disagreement of the two parsers stops the comparison with an ``AssertionError`` that
names its line.
"""

import argparse
import contextlib
import io
import json
import os
import random
import sys
from fractions import Fraction
from pathlib import Path

from kvacert.cli import _COMMANDS, MAX_DIGITS, MAX_EXPONENT, _help, _over_cap, _parse
from kvacert.exactmath import as_rat


def _capped(parse):
    """The argparse type ``parse``, refusing a number over the digit cap before it is built."""

    def capped(value: str):
        if _over_cap(value):
            raise argparse.ArgumentTypeError(
                f"numbers are limited to {MAX_DIGITS} digits and exponents to {MAX_EXPONENT}")
        return parse(value)

    capped.__name__ = parse.__name__  # argparse names the type in its errors: "invalid int value"
    return capped


@_capped
def _rational(value: str) -> Fraction:
    try:
        return as_rat(value)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"{value!r} is not an exact rational like 887/1000 or 0.887") from None


class _Parser(argparse.ArgumentParser):
    """``argparse`` parser whose errors print the usage line and raise ``ValueError``, as
    ``_parse`` does."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValueError(message)

    def _print_message(self, message, file=None):  # argparse's own swallows a failed write
        (file or sys.stderr).write(message)


def top_parser() -> _Parser:
    """The ``argparse`` parser of ``kvacert [--json] [--quiet] COMMAND ...``."""
    table = "\n".join(f"  {name:14}{run.__doc__.splitlines()[0]}"
                      for name, (run, _) in _COMMANDS.items())
    top = _Parser(prog="kvacert", allow_abbrev=False, add_help=False,
                  formatter_class=argparse.RawDescriptionHelpFormatter, description=(
                      "Exact-arithmetic k-very-ampleness certification on blown-up"
                      f" bielliptic surfaces.\n\ncommands:\n{table}"))
    top.add_argument("--help", action="help", help="Show this message and exit.")
    top.add_argument("--json", action="store_true", help="Emit JSON from subcommands.")
    top.add_argument("--quiet", action="store_true", help="Suppress detail lines.")
    top.add_argument("command", metavar="COMMAND", choices=_COMMANDS,
                     help="One of the commands listed above.")
    # may be empty (``kvacert surfaces``), so never reported as a missing argument
    top.add_argument("args", nargs=argparse.REMAINDER,
                     help="Its options; see kvacert COMMAND --help.").required = False
    return top


def command_parser(command: str) -> _Parser:
    """The ``argparse`` parser of the options of ``command``, ``--json`` and ``--quiet``
    among them."""
    run, options = _COMMANDS[command]
    sub = _Parser(prog=f"kvacert {command}", description=run.__doc__, allow_abbrev=False,
                  add_help=False)
    sub.add_argument("--help", action="help", help="Show this message and exit.")
    sub.add_argument("--json", action="store_true", help="Emit a single JSON object.")
    sub.add_argument("--quiet", action="store_true", help="Suppress detail lines.")
    for flag, parse, default, choices, what in options:
        kind = None if parse is None else _rational if parse is as_rat else _capped(parse)
        sub.add_argument(flag, type=kind, choices=choices, default=default, help=what,
                         **({"required": default is None} if flag[0] == "-" else {"nargs": "?"}))
    return sub


def parse_with_argparse(argv: list[str]):
    """``argv`` read by ``argparse``: ``kvacert [--json] [--quiet] COMMAND ...``, then the
    options of COMMAND, ``--json`` and ``--quiet`` again among them.  It prints ``--help``
    and exits, and prints the usage and raises ``ValueError`` for a malformed line."""
    args = top_parser().parse_args(argv)
    # The group-level flags are already in ``args``, so the subcommand's
    # parser does not reset them to False: the two placements merge.
    return command_parser(args.command).parse_args(args.args, namespace=args)


def outcome(parse, argv: list[str]) -> list:
    """What ``parse`` makes of ``argv``, in JSON values: ``["namespace", {name: value}]``
    with a rational as "n/d", ``["help", usage]`` or ``["error", usage, message]``, where
    ``usage`` is the paragraph that the parser prints first."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            args = parse(list(argv))
        except ValueError as exc:
            return ["error", err.getvalue().removesuffix("\n"), str(exc)]
        except SystemExit:  # argparse, once it has printed the help
            args = None
    if args is None:
        return ["help", out.getvalue().partition("\n\n")[0]]
    # argparse's "args", the words after COMMAND, is left out: no command reads it
    return ["namespace", {name: f"{value.numerator}/{value.denominator}"
                          if isinstance(value, Fraction) else value
                          for name, value in sorted(vars(args).items()) if name != "args"}]


def same(got: list, want: list) -> bool:
    """Whether two outcomes are equal as JSON, where ``true`` is not ``1``."""
    return json.dumps(got) == json.dumps(want)


def agree(argv: list[str]) -> list:
    """The outcome of ``argv`` under both parsers, which must be the same."""
    got, want = outcome(_parse, argv), outcome(parse_with_argparse, argv)
    assert same(got, want), (argv, got, want)
    return want


#: lines that name each spelling the parsers take, and some they refuse
EXAMPLES = [
    ["max-r", "-a=12", "-b", "12", "-k", "2"],
    ["max-r", "-a12", "-b", "12", "-k", "2"],
    ["max-r", "-a", "12", "-b", "12", "-k", "2", "--c=-1/2"],
    ["max-r", "-a", "11", "-a", "12", "-b", "12", "-k", "2"],
    ["check", "-a", "12", "-b", "12", "-k", "-5", "-d", "10", "-r", "28"],
    ["check", "-a", "12", "-b", "12", "-k", "-٣", "-d", "10", "-r", "28"],
    ["--", "check", "-a", "12", "-b", "12", "-k", "2", "-d", "10", "-r", "28"],
    ["check", "--", "-a", "12", "-b", "12", "-k", "2", "-d", "10", "-r", "28"],
    ["constants", "--json", "verify"],
    ["constants", "verify", "--", "x"],
    ["constants", "--kmin", "3", "--", "verify"],
    ["--help", "check"],
    ["check", "-a", "x", "--help"],
    ["check", "--frobnicate", "--help"],
    ["max-r", "-a", "12", "-b", "12", "-k", "2", "--c", "-1/2"],
    ["max-r", "-a", "12", "-b", "12", "-k", "2", "--c", "-.5\n"],
    ["max-r", "-a", "12", "-b", "12", "-k", "-5."],
    ["max-r", "-a", "12", "-b", "12", "-k", "- 5"],
    ["max-r", "-a", "12", "-b", "12", "-k", "-"],
    ["--json=1", "surfaces"],
    ["surfaces", "x", "-y", "--", "z"],
]
#: edited lines: a positional after an option, a required option left out, a bad choice, a
#: negative value that argparse reads as an option, and one just past the digit cap
EDGE_LINES = [
    ["constants", "--kmin", "3", "verify"],
    ["seshadri", "-a", "1", "-b", "1"],
    ["obstructions", "-a", "1", "-b", "1", "-k", "2", "-r", "1", "--formula", "other"],
    ["max-r", "-a", "1", "-b", "1", "-k", "2", "--c", "-1/2"],
    ["max-r", "-a", "1" + "0" * MAX_DIGITS, "-b", "1", "-k", "2"],
]
#: the drawn lines of the corpus: how many, and the seed of their generator
DRAWN, SEED = 1000, 0
#: argparse's outcome of each line of the corpus, and each command's usage paragraph
TABLE = Path(__file__).with_name("argparse_outcomes.json")

#: values that an option may not take: negative, past the digit cap, in other scripts, of
#: another option, or junk
ODD_VALUES = ["-1", "-1/2", "-0.5", "-.5", "-5.", "-٣", "-²", "1e²", "٣", "", " 7", "- 7",
              "-5\n", "1/0", "abc", "0", "8", "paper", "other", "verify",
              f"1e-{MAX_EXPONENT + 1}", "1e-" + "٠" * 4 + "٤٠١", "1" + "0" * MAX_DIGITS,
              "1/" + "9" * MAX_DIGITS]
#: words out of place in a plain command line, besides the options and the odd values
ODD_WORDS = ["--json", "--quiet", "--help", "verify", "nonsense", "--", "-", "-a12", "-a=12",
             "--c=1/2", "--jso", "--surface=2", "--json=", "--help=x", "-a=", "-ak"]


def _taken(rng: random.Random, parse, choices) -> str:
    """A value that an option of this type and choices takes, though the library may not."""
    if choices is not None:
        return str(rng.choice(list(choices)))
    if parse is int:
        return rng.choice([str(rng.randint(0, 40)), "9" * MAX_DIGITS, "١٢", "1_000", "007"])
    return rng.choice([str(Fraction(rng.randint(0, 10**6), rng.randint(1, 10**6))), "0.887",
                       "1e-400", "1E-3", "٨٨٧/١٠٠٠"])


def _odd(rng: random.Random) -> str:
    alphabet = "-=. \n0123456789٣abk/"
    return rng.choice([rng.choice(ODD_VALUES), str(rng.randint(-3, 40)),
                       "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 3)))])


def draw(rng: random.Random) -> tuple[list[str], bool]:
    """A plain command line (flags, a command, ``verify`` or not, its required options and
    some others in any order, flags), edited one to three times in half of the draws, and
    whether it was edited."""
    name = rng.choice(sorted(_COMMANDS))
    pairs = [[flag, _taken(rng, parse, choices)]
             for flag, parse, default, choices, _ in _COMMANDS[name][1]
             if flag[0] == "-" and (default is None or rng.random() < 0.5)]
    rng.shuffle(pairs)
    flags = lambda: rng.choices(["--json", "--quiet"], k=rng.randint(0, 2))
    verify = ["verify"] if name == "constants" and rng.random() < 0.5 else []
    argv = [*flags(), name, *verify, *(word for pair in pairs for word in pair), *flags()]
    options = {flag for _, table in _COMMANDS.values() for flag, *_ in table if flag[0] == "-"}
    edits = rng.choice([0, 0, 0, 1, 2, 3])
    for _ in range(edits):
        at, edit = rng.randint(0, len(argv)), rng.choice(
            ["value", "value", "omit", "drop", "insert", "replace", "repeat", "join"])
        values = [i for i in range(1, len(argv)) if argv[i - 1] in options]
        if edit in ("value", "omit") and values:
            at = rng.choice(values)
            argv[at - (edit == "omit"):at + 1] = [_odd(rng)] if edit == "value" else []
        elif edit == "drop":
            argv[at:at + 1] = []
        elif edit in ("insert", "replace"):
            word = rng.choice([rng.choice(sorted(options)), rng.choice(ODD_WORDS), _odd(rng)])
            argv[at:at + (edit == "replace")] = [word]
        elif edit == "repeat":
            argv[at:at] = argv[at:at + 2]
        elif edit == "join":
            argv[at:at + 2] = ["=".join(argv[at:at + 2])]
    return argv, edits > 0


def corpus() -> list[tuple[list[str], bool]]:
    """The explicit lines, then ``DRAWN`` lines drawn at ``SEED``, each with whether the
    parsers may refuse it: every explicit line may, and a drawn one once edited."""
    rng = random.Random(SEED)
    return [(argv, True) for argv in EXAMPLES + EDGE_LINES] + [draw(rng) for _ in range(DRAWN)]


def usage(command: str | None) -> str:
    """argparse's usage paragraph of ``kvacert [COMMAND]``, without its newline."""
    parser = command_parser(command) if command else top_parser()
    return parser.format_usage().removesuffix("\n")


def record() -> dict:
    """The table: this interpreter's version, each command's usage paragraph (under ""
    for the top level) and argparse's outcome of each line of the corpus, which ``_parse``
    must take when the line is plain."""
    return {"python": sys.version.split()[0],
            "usage": {command or "": usage(command) for command in [None, *_COMMANDS]},
            "lines": [{"argv": argv, "plain": not edited,
                       "outcome": outcome(parse_with_argparse, argv)}
                      for argv, edited in corpus()]}


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"  # argparse wraps its usage at the terminal's width
    if sys.argv[1:] == ["--record"]:
        table = record()
        rows = table.pop("lines")  # one line of the file each
        TABLE.write_text(json.dumps(table, indent=1)[:-2] + ',\n "lines": [\n'
                         + ",\n".join(map(json.dumps, rows)) + "\n ]\n}\n")
        print(f"Python {table['python']}: recorded {len(rows)} lines in {TABLE.name}")
        sys.exit()
    count = int(sys.argv[1]) if len(sys.argv) > 1 else 4000
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 1
    recorded = json.loads(TABLE.read_text())
    for command in [None, *_COMMANDS]:
        assert _help(command).partition("\n\n")[0] == usage(command), command
    moved = [row["argv"] for row in recorded["lines"]
             if not same(agree(row["argv"]), row["outcome"])]
    rng, kinds = random.Random(seed), {"namespace": 0, "help": 0, "error": 0}
    for _ in range(count):
        kinds[agree(draw(rng)[0])[0]] += 1
    print(f"Python {sys.version.split()[0]}: the {len(recorded['lines'])} lines of {TABLE.name}"
          f" and {count} drawn at seed {seed} agree;",
          ", ".join(f"{n} {kind}" for kind, n in kinds.items()), "among those drawn")
    print(f"{len(moved)} lines of the table differ from this argparse (recorded under"
          f" Python {recorded['python']})", *map(repr, moved), sep="\n")
