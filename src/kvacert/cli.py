"""Command-line front end: certify instances, verify constants, search obstructions.

Subcommands: ``check``, ``max-r``, ``seshadri``, ``constants``, ``obstructions``,
``surfaces``.  Exit codes are uniform: 0 for success/certified, 1 for a check
that ran and failed, 2 for usage errors; a failed write ends ``kvacert`` with
141 (128 + SIGPIPE) if the reader has gone, else 74.  ``--json`` emits a
single canonical JSON object (fixed key order, exact rationals as "num/den"
strings, decimal fields suffixed ``_approx``); ``--quiet`` drops the detail
lines of the text, and ``--json`` ignores it.  Both flags are accepted before
and after the subcommand.  Each command builds its JSON payload once and
passes it, with its text lines, to one output helper, ``_show``, which alone
reads ``--quiet`` and writes the bytes of ``json.dumps(payload, indent=2)``
without ``json``; ``obstructions`` alone streams its JSON with a writer of its
own.  One table, ``_COMMANDS``, holds every option; ``_parse`` reads a command
line from it as the standard library's ``ArgumentParser`` does, abbreviations
refused, and ``_help`` renders the help and usage lines from it.  Every
verdict, bound, warning and range check is the library's, and the commands call
it directly; so is every table shown: ``surfaces`` prints the ``surface_table()``
rows as they are, and ``--surface`` and ``--formula`` choose from its ids and
``FORMULAS``.  The parser refuses only a malformed line and numbers over the digit
cap, with a plain ``ValueError``, and ``main`` turns every ``ValueError`` into exit 2.
"""

from __future__ import annotations

import errno
import os
import sys
from fractions import Fraction
from types import SimpleNamespace

from .blowup import FORMULAS, certify_instance, point_bound, search_obstruction, seshadri_lower_sq
from .constants import (C_MAX_DEFAULT, DELTA_DEFAULT, GRID_STEP_DEFAULT, c_max_search,
                        margin_fields, render_margin)
from .exactmath import QuadExpr, as_rat, decimal_str, frac_str
from .hyperell import DivisorClass, surface_by_id, surface_table

#: The digit cap on numbers in arguments (1e-400 is within it).  It keeps every number
#: derived from them cheap and far below Python's 4300-digit int-to-str limit: the
#: largest, the obstruction search's estimate, grows like k^6 / delta^4 (< 2700 digits).
MAX_DIGITS, MAX_EXPONENT = 100, 400


def _over_cap(value: str) -> bool:
    """Whether the number ``value`` has over ``MAX_DIGITS`` digits or an exponent over
    ``MAX_EXPONENT``; a digit is any character that ``int`` and ``Fraction`` read as one."""
    mantissa, _, exponent = value.lower().partition("e")
    # read by value, so zeros of any script lead; four digits exceed MAX_EXPONENT already
    power = "".join(str(int(ch)) for ch in exponent if ch.isdecimal()).lstrip("0")[:4]
    return sum(ch.isdecimal() for ch in mantissa) > MAX_DIGITS or int(power or 0) > MAX_EXPONENT


def _exact_fields(name: str, value) -> dict:
    """``name`` and ``name_approx`` keys: the exact and decimal renderings of a rational or surd."""
    exact, approx = margin_fields(value)
    return {name: exact, f"{name}_approx": approx}


def _bound_fields(ses_sq: Fraction | None) -> dict:
    """The keys of the Seshadri lower bound: its exact square and the decimals of both."""
    root = QuadExpr(0, 1, ses_sq).approx_str() if ses_sq is not None else None
    return {**_exact_fields("seshadri_lower_sq", ses_sq), "seshadri_lower_approx": root}


def _json(value, indent: str = "") -> str:
    """``value`` (dicts with str keys, lists or tuples, str, int, bool and None) in the
    bytes of ``json.dumps(value, indent=2)``, nested at ``indent``: a tuple as an array.

    Every string the program writes is its own, printable ASCII without ``"`` or ``\\``,
    which ``json`` writes as it is; any other string is a bug, refused with an
    ``AssertionError``, which ``main`` does not turn into exit 2.
    """
    if isinstance(value, str):
        if value.isascii() and value.isprintable() and '"' not in value and "\\" not in value:
            return f'"{value}"'
        raise AssertionError(f"a string that the JSON writer does not escape: {value!r}")
    if value is None or isinstance(value, bool):  # before int: a bool is an int
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = indent + "  "
    if isinstance(value, dict):
        brackets, items = "{}", [f"{_json(k)}: {_json(v, inner)}" for k, v in value.items()]
    else:
        brackets, items = "[]", [_json(v, inner) for v in value]
    if not items:
        return brackets
    return f"{brackets[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}{brackets[1]}"


def _show(args, payload: dict | None, text, code: int = 0) -> int:
    """Print ``payload`` as JSON under ``--json``, else the lines of ``text()``; return ``code``.

    In that list a string is a line, and any other item an iterable of detail lines,
    which ``--quiet`` drops.  A JSON run never calls ``text``, and a quiet one never
    iterates the details.  No other code reads ``--quiet``, and ``--json`` only
    ``obstructions``, which streams its JSON itself and passes its text lines here.
    """
    if args.json:
        print(_json(payload))
    else:
        for part in text():
            for line in [part] if isinstance(part, str) else (() if args.quiet else part):
                print(line)
    return code


def check(args) -> int:
    """Certify k-very ampleness of pi^*(a,b) - k*sum(E_i) on the blow-up at r points.

    Exit 0 when every hypothesis and certificate check holds (certified), 1
    otherwise; the output lists each check either way.
    """
    surface, a, b, k, d, r = args.surface, args.a, args.b, args.k, args.d, args.r
    cert = certify_instance(DivisorClass(a, b), k, d, r, args.c, args.delta)
    derived = {
        "L2": cert.l2,
        "r_max": cert.r_max,
        "N2": cert.n2,
        **_bound_fields(cert.seshadri_lower_sq),
        **_exact_fields("threshold_sq", cert.threshold_sq),
        "star_holds": cert.star,
        "c": frac_str(args.c),
        "delta": frac_str(args.delta),
    }
    payload = {
        "inputs": {"surface": surface, "a": a, "b": b, "k": k, "d": d, "r": r},
        "hypothesis_checks": [{"name": name, "ok": ok, "detail": detail}
                              for name, ok, detail in cert.hypothesis_checks],
        "certificate_checks": [{"name": name, "ok": ok, "detail": detail}
                               for name, ok, detail in cert.certificate_checks],
        "derived": derived,
        "verdict": cert.verdict,
    }
    threshold = k + 1 + args.delta
    return _show(args, payload, lambda: [
        f"inputs: surface={surface} ({surface_by_id(surface).group})"
        f" a={a} b={b} k={k} d={d} r={r}",
        (f"  [{'ok' if ok else 'FAIL'}] {name}: {detail}"
         for name, ok, detail in cert.hypothesis_checks + cert.certificate_checks),
        [f"  L^2 = {cert.l2}, r_max = {cert.r_max}, N^2 = {cert.n2}"],
        [
            f"  Seshadri lower bound^2 = {derived['seshadri_lower_sq']}"
            f" (~{derived['seshadri_lower_sq_approx']}),"
            f" bound ~ {derived['seshadri_lower_approx']}",
            # a negative k+1+delta is exceeded by any bound, so its square is beside the point
            (f"  threshold k+1+delta = {frac_str(threshold)} (~{decimal_str(threshold)}) < 0,"
             f" exceeded: {cert.star}") if threshold < 0 else
            (f"  threshold (k+1+delta)^2 = {derived['threshold_sq']}"
             f" (~{derived['threshold_sq_approx']}), exceeded: {cert.star}"),
        ] if cert.seshadri_lower_sq is not None else (),
        f"verdict: {cert.verdict}",
    ], 0 if cert.certified else 1)


def max_r(args) -> int:
    """Largest admissible number of points, floor(c * L^2 / (k+1)^2)."""
    l2, r_max, warnings = point_bound(DivisorClass(args.a, args.b), args.k, args.c)
    payload = {"r_max": r_max, "L2": l2, "k": args.k, "c": frac_str(args.c), "warnings": warnings}
    return _show(args, payload, lambda: [str(r_max), (f"warning: {w}" for w in warnings)])


def seshadri(args) -> int:
    """Exact square of the multi-point Seshadri lower bound at r very general points."""
    payload = _bound_fields(seshadri_lower_sq(DivisorClass(args.a, args.b), args.r))
    return _show(args, payload, lambda: [
        f"seshadri lower bound^2 = {payload['seshadri_lower_sq']}"
        f" (~{payload['seshadri_lower_sq_approx']})",
        [f"seshadri lower bound   ~ {payload['seshadri_lower_approx']}"],
    ])


def constants(args) -> int:
    """Re-derive the point-count constant, its slack and the hard ceiling.

    With default settings this is a self-verification: exit 0 only when the
    scan reproduces c_max = 887/1000, delta_max = 178/1000 and a ceiling of
    954/1000 exactly.  With a non-default grid or kmin, exit 0 simply means
    a feasible constant was found.  Exit 2 when the grid has more points
    below the ceiling than the scan budget (the count is printed).
    """
    report = c_max_search(args.grid_step, args.kmin)
    payload = {
        **_exact_fields("c_max", report.c_max),
        **_exact_fields("delta_max", report.delta_max),
        **_exact_fields("c_ceiling", report.c_ceiling),
        "grid_step": frac_str(report.grid_step),
        "kmin": report.kmin,
        "feasible": report.feasible,
        "scanned": report.scanned,
        "per_constraint": [
            {
                "id": rec.id,
                "status": rec.status,
                **_exact_fields("margin", rec.margin),
                "side_conditions": list(rec.side_conditions),
                "counterexample": (frac_str(rec.counterexample)
                                   if rec.counterexample is not None else None),
            }
            for rec in report.per_constraint
        ],
        "discrepancies": [
            {
                "id": d.id,
                "quoted": d.quoted,
                "recomputed": d.recomputed,
                **_exact_fields("exact", d.exact),
                "note": d.note,
                "alternatives": dict(d.alternatives),
            }
            for d in report.discrepancies
        ],
    }
    return _show(args, payload, lambda: [
        *(f"{name}: none (empty feasible set)" if payload[name] is None
          else f"{name} = {payload[name]} (~{payload[f'{name}_approx']})"
          for name in ("c_max", "delta_max", "c_ceiling")),
        [f"grid step {payload['grid_step']}, kmin {report.kmin},"
         f" {report.scanned} grid points scanned"],
        (f"  [{rec.status}] {rec.id}: margin {render_margin(rec.margin)}"
         for rec in report.per_constraint),
        (f"  [recomputed] {disc.id}: quoted {disc.quoted!r}; {disc.recomputed}"
         for disc in report.discrepancies),
    ], 0 if report.verified else 1)


def obstructions(args) -> int:
    """Brute-force search for numerical obstruction divisors within the proof bounds.

    Exit 0 when no candidate exists inside the bounds, 1 when witnesses are
    found (each is printed with its intersection numbers), 2 when the
    estimated search exceeds the work budget or its witnesses would carry more
    than the output budget of multiplicities (the size is printed).
    """
    formula = args.formula
    witnesses = search_obstruction(DivisorClass(args.a, args.b), args.k, args.r, args.delta,
                                   formula=formula)
    code = 1 if witnesses else 0
    if not args.json:
        shown = {m: str(list(m)) for m in {w.mults for w in witnesses}}  # each vector once
        return _show(args, None, lambda: [
            f"{len(witnesses)} witness(es) within proof bounds ({formula} formula):"
            if witnesses else "none found within proof bounds",
            *(f"  D_S = ({w.d_s.a},{w.d_s.b}), m = {shown[w.mults]}, N.D = {w.nd}, D^2 = {w.d2}"
              for w in witnesses)], code)
    # the bytes of json.dumps(payload, indent=2) and a newline (the formula is a plain word),
    # streamed one witness at a time.  Each distinct vector is rendered once, as the repr of
    # its list with each ", " broken onto the next line, and never copied into a line
    rendered = {m: "[\n        " + str(list(m))[1:-1].replace(", ", ",\n        ") + "\n      ]"
                if m else "[]" for m in {w.mults for w in witnesses}}
    write = sys.stdout.write
    write(f'{{\n  "formula": "{formula}",\n  "count": {len(witnesses)},\n  "witnesses": [')
    for i, w in enumerate(witnesses):
        write(f'{"," if i else ""}\n    {{\n      "d_s": {{\n        "a": {w.d_s.a},\n'
              f'        "b": {w.d_s.b}\n      }},\n      "mults": ')
        write(rendered[w.mults])
        write(f',\n      "nd": {w.nd},\n      "d2": {w.d2}\n    }}')
    write("\n  ]\n}\n" if witnesses else "]\n}\n")
    return code


def surfaces(args) -> int:
    """The seven types of bielliptic surfaces with their lattice metadata."""
    rows = surface_table()
    return _show(args, {"surfaces": [s._asdict() for s in rows]}, lambda: [
        f"{s.id}: G = {s.group}; fibres {','.join(map(str, s.multiplicities))}; "
        f"mu = {s.mu}, gamma = {s.gamma}; basis {s.basis}" for s in rows])


_A = ("-a", int, None, None, "First coordinate of the polarization.")
_B = ("-b", int, None, None, "Second coordinate of the polarization.")
_K = ("-k", int, None, None, "Order of the embedding to certify.")
_R = ("-r", int, None, None, "Number of blown-up (very general) points.")
# the rational defaults are shown in thousandths, as the paper gives them
_C = ("--c", as_rat, C_MAX_DEFAULT, None,
      f"Point-count constant (default {C_MAX_DEFAULT * 1000}/1000).")
_DELTA = ("--delta", as_rat, DELTA_DEFAULT, None,
          f"Seshadri slack (default {DELTA_DEFAULT * 1000}/1000).")

#: subcommand -> (its function, its options as (flag, type, default, choices, help)).  The
#: type is ``int`` or ``as_rat``, both under the digit cap, or None for a word; a default
#: of None makes the option required; the dest is the flag without its dashes, ``_`` for
#: ``-``; a name without a dash is an optional positional.
_COMMANDS = {
    "check": (check, (
        # shown in its output only: no number depends on the type
        ("--surface", int, 1, tuple(s.id for s in surface_table()),
         "Bielliptic surface type (default 1)."),
        _A, _B, _K, ("-d", int, None, None, "Very-ampleness order of the polarization."), _R,
        _C, _DELTA)),
    "max-r": (max_r, (_A, _B, _K, _C)),
    "seshadri": (seshadri, (_A, _B, _R)),
    "constants": (constants, (
        ("action", None, "verify", ("verify",), "The one action, and the default."),
        ("--grid-step", as_rat, GRID_STEP_DEFAULT, None,
         f"Scan resolution for c (default {GRID_STEP_DEFAULT * 1000}/1000)."),
        ("--kmin", int, 2, None, "Smallest k of the scan (default 2)."))),
    "obstructions": (obstructions, (_A, _B, _K, _R, _DELTA, (
        "--formula", None, "paper", FORMULAS,
        "D^2 convention: D_S^2 - (sum m_i)^2 or D_S^2 - sum m_i^2 (default paper)."))),
    "surfaces": (surfaces, ()),
}
#: the options of both levels of a command line, none of which takes a value
_FLAGS = {"--help": "Show this message and exit.", "--json": "Emit a single JSON object.",
          "--quiet": "Suppress detail lines."}


def _help(command: str | None) -> str:
    """The text of ``kvacert [COMMAND] --help``, whose first paragraph is the usage line."""
    run, table = _COMMANDS.get(command, (None, ()))
    rows, words = list(_FLAGS.items()), [f"[{flag}]" for flag in _FLAGS]
    tail = [] if run else ["COMMAND", "..."]  # the positionals, which come last
    for flag, _, default, choices, what in table:
        meta = ("{" + ",".join(map(str, choices)) + "}" if choices
                else flag.lstrip("-").replace("-", "_").upper())
        word = f"{flag} {meta}" if flag[0] == "-" else meta
        rows.append((word, what))
        (words if flag[0] == "-" else tail).append(word if default is None else f"[{word}]")
    head = f"usage: kvacert {command}" if run else "usage: kvacert"
    lines = [" ".join([head, *words, *tail])]
    if len(lines[0]) > 78:  # argparse's layout at 80 columns: wrapped at column 78 under
        lines = [head]  # the first option, and the positionals start a line of their own
        for i, word in enumerate(words + tail):
            if len(lines[-1]) + len(word) >= 78 or i == len(words):
                lines.append(" " * len(head))
            lines[-1] += " " + word
    about = [line.strip() for line in run.__doc__.strip().splitlines()] if run else [
        "Exact-arithmetic k-very-ampleness certification on blown-up bielliptic surfaces.",
        "", "commands (see kvacert COMMAND --help):",
        *(f"  {name:14}{call.__doc__.splitlines()[0]}" for name, (call, _) in _COMMANDS.items())]
    return "\n".join([*lines, "", *about, "", "options:",
                      *(f"  {left:27}{what}" for left, what in rows)])


def _option(token: str, options) -> tuple[str | None, str | None] | None:
    """None if ``token`` is a value where ``options`` are known, else the option that it names
    (None if unknown) and the value joined to it (None if none)."""
    if len(token) < 2 or token[0] != "-":
        return None
    flag, joined, value = token.partition("=")
    if flag in options:
        return flag, value if joined else None
    if token[:2] in options:  # a short option and its value: -a12
        return token[:2], token[2:]
    number = token[1:].removesuffix("\n")  # as the "$" of ArgumentParser's pattern allows
    if " " in token or number.replace(".", "", 1).isdecimal() and number[-1] != ".":
        return None  # a negative number, or words with a space
    return None, None


def _parse(argv: list[str]) -> SimpleNamespace | None:
    """``argv`` read from the left as ``ArgumentParser`` reads ``kvacert [--json] [--quiet]
    COMMAND ...`` and then COMMAND's options in ``_COMMANDS``: the namespace, or None once
    ``--help`` has printed its text.  Any other line prints its usage line on stderr and
    raises ``ValueError`` with ``ArgumentParser``'s message."""
    ns, command, i = {"json": False, "quiet": False}, None, 0
    try:
        while True:  # the words up to COMMAND, then COMMAND's own
            table = (_COMMANDS[command][1] if command
                     else (("COMMAND", None, None, _COMMANDS, None),))
            options, positional, extras, dashdash = dict.fromkeys(_FLAGS), None, [], False
            for flag, parse, default, choices, _ in table:
                options[flag] = flag.lstrip("-").replace("-", "_").lower(), parse, choices
                positional = positional if flag[0] == "-" else flag
                if default is not None:
                    ns[options[flag][0]] = default
            while i < len(argv):
                token, i = argv[i], i + 1
                # the first "--" makes every later word a value; a positional takes one
                # next to it.  A value is the positional's while it has none, else an extra
                if token == "--" and not dashdash:
                    dashdash = True
                    extras += [] if positional else [token]
                    continue
                flag, text = (None if dashdash else _option(token, options)) or (positional, token)
                if flag is None:
                    extras.append(token)
                    continue
                if flag in _FLAGS:
                    if text is not None:
                        raise ValueError(f"argument {flag}: ignored explicit argument {text!r}")
                    if flag == "--help":
                        print(_help(command))
                        return None
                    ns[flag[2:]] = True
                    continue
                if text is None:
                    if i == len(argv) or _option(argv[i], options):  # "--" is one
                        raise ValueError(f"argument {flag}: expected one argument")
                    text, i = argv[i], i + 1
                dest, parse, choices = options[flag]
                if parse and _over_cap(text):
                    raise ValueError(f"argument {flag}: numbers are limited to {MAX_DIGITS}"
                                     f" digits and exponents to {MAX_EXPONENT}")
                try:
                    ns[dest] = value = parse(text) if parse else text
                except (ValueError, ZeroDivisionError):
                    raise ValueError(f"argument {flag}: " + (
                        f"invalid int value: {text!r}" if parse is int else
                        f"{text!r} is not an exact rational like 887/1000 or 0.887")) from None
                if choices is not None and value not in choices:
                    raise ValueError(f"argument {flag}: invalid choice: {value!r}"
                                     f" (choose from {', '.join(map(repr, choices))})")
                if flag == positional:
                    positional = None
                    if not dashdash and argv[i:i + 1] == ["--"]:
                        dashdash, i = True, i + 1
                    if not command:
                        break  # the rest of the line is COMMAND's
            missing = [flag for flag, *_ in table if options[flag][0] not in ns]  # required
            if missing:
                raise ValueError(f"the following arguments are required: {', '.join(missing)}")
            if extras:
                raise ValueError(f"unrecognized arguments: {' '.join(extras)}")
            if command:
                return SimpleNamespace(**ns)
            command = ns["command"]
    except ValueError:
        print(_help(command).partition("\n\n")[0], file=sys.stderr)
        raise


def main(argv: list[str] | None = None, standalone_mode: bool = True) -> int:
    """Parse ``argv`` (default ``sys.argv[1:]``), run the subcommand and exit with its code.

    A refused input ends here alone: a ``ValueError`` of the parser and every refusal of
    the library alike (``SearchTooLarge`` too), prints
    ``Error: <message>`` on stderr and gives code 2; ``--help`` gives 0.  With
    ``standalone_mode=False`` the code is returned instead of passed to
    ``sys.exit``, so in-process callers never see ``SystemExit``.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parse(argv)
        code = 0 if args is None else _COMMANDS[args.command][0](args)
    except ValueError as exc:
        print(f"Error: {exc}", file=sys.stderr)
        code = 2
    if standalone_mode:
        sys.exit(code)
    return code


def run() -> None:
    """Entry point of the ``kvacert`` process and the one place where it ends: :func:`main`,
    one flush of stdout and stderr, then ``os._exit``, with no teardown and no ``atexit``
    handler.  A failed write exits 141 (128 + SIGPIPE) when the reader has gone, else 74
    (``EX_IOERR``) with one ``Error:`` line on stderr.
    """
    try:
        if sys.stdout is None:  # stdout was closed before the process started
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        code, message = main(standalone_mode=False), ""
        sys.stdout.flush()
    except BrokenPipeError:
        code, message = 141, ""
    except OSError as exc:
        code, message = 74, f"Error: cannot write the output: {exc.strerror}\n"
    try:
        print(message, end="", file=sys.stderr, flush=True)
    except OSError:
        pass  # stderr has failed too: the code alone reports it
    os._exit(code)


if __name__ == "__main__":
    run()
