"""Command-line front end: certify instances, verify constants, search obstructions.

Subcommands: ``check``, ``max-r``, ``seshadri``, ``constants``, ``obstructions``,
``surfaces``.  Exit codes are uniform: 0 for success/certified, 1 for a check
that ran and failed, 2 for usage errors.  ``--json`` emits a single canonical
JSON object (fixed key order, exact rationals as "num/den" strings, decimal
fields suffixed ``_approx``); ``--quiet`` trims the human-readable detail.
"""

from __future__ import annotations

import gc
import json
from fractions import Fraction

import click

from .blowup import search_obstruction, seshadri_lower_sq
from .constants import (
    C_MAX_DEFAULT,
    CertRecord,
    ConstantsReport,
    c_max_search,
    certify_instance,
    margin_fields,
    max_points,
    render_margin,
)
from .exactmath import QuadExpr, as_rat, decimal_str, frac_str
from .hyperell import DivisorClass, is_ample, self_intersection, surface_by_id, surface_table


def _rat_arg(value: str, name: str) -> Fraction:
    try:
        return as_rat(value)
    except (ValueError, ZeroDivisionError, TypeError):
        raise click.UsageError(f"{name} must be an exact rational like 887/1000 or 0.887")


def _sqrt_approx(x: Fraction) -> str:
    return QuadExpr(0, 1, x).approx_str()


def output_options(f):
    f = click.option("--json", "json_out", is_flag=True, help="Emit a single JSON object.")(f)
    f = click.option("--quiet", is_flag=True, help="Suppress detail lines.")(f)
    return f


def _merged_flags(ctx: click.Context, json_out: bool, quiet: bool) -> tuple[bool, bool]:
    obj = ctx.obj or {}
    return json_out or obj.get("json", False), quiet or obj.get("quiet", False)


def _emit_json(payload: dict) -> None:
    click.echo(json.dumps(payload, indent=2))


def _exact_fields(name: str, value) -> dict:
    """``name`` and ``name_approx`` keys: the exact and decimal renderings of a rational or surd."""
    exact, approx = margin_fields(value)
    return {name: exact, f"{name}_approx": approx}


def _checks_to_list(checks: list[tuple[str, bool, str]]) -> list[dict]:
    return [{"name": name, "ok": ok, "detail": detail} for name, ok, detail in checks]


def _cert_to_dict(rec: CertRecord) -> dict:
    return {
        "id": rec.id,
        "status": rec.status,
        **_exact_fields("margin", rec.margin),
        "side_conditions": list(rec.side_conditions),
        "counterexample": frac_str(rec.counterexample) if rec.counterexample is not None else None,
    }


def _report_to_dict(report: ConstantsReport) -> dict:
    return {
        **_exact_fields("c_max", report.c_max),
        **_exact_fields("delta_max", report.delta_max),
        **_exact_fields("c_ceiling", report.c_ceiling),
        "grid_step": frac_str(report.grid_step),
        "kmin": report.kmin,
        "feasible": report.feasible,
        "scanned": report.scanned,
        "per_constraint": [_cert_to_dict(r) for r in report.per_constraint],
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


@click.group()
@click.option("--json", "json_out", is_flag=True, help="Emit JSON from subcommands.")
@click.option("--quiet", is_flag=True, help="Suppress detail lines.")
@click.pass_context
def main(ctx: click.Context, json_out: bool, quiet: bool) -> None:
    """Exact-arithmetic k-very-ampleness certification on blown-up bielliptic surfaces."""
    ctx.obj = {"json": json_out, "quiet": quiet}


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


@main.command()
@click.option("--surface", type=click.IntRange(1, 7), default=1, show_default=True)
@click.option("-a", "a", type=int, required=True, help="First coordinate of the polarization.")
@click.option("-b", "b", type=int, required=True, help="Second coordinate of the polarization.")
@click.option("-k", "k", type=int, required=True, help="Order of the embedding to certify.")
@click.option("-d", "d", type=int, required=True, help="Very-ampleness order of the polarization.")
@click.option("-r", "r", type=int, required=True, help="Number of blown-up (very general) points.")
@click.option("--c", "c_str", default="887/1000", show_default=True, help="Point-count constant.")
@click.option("--delta", "delta_str", default="178/1000", show_default=True, help="Seshadri slack.")
@output_options
@click.pass_context
def check(ctx, surface, a, b, k, d, r, c_str, delta_str, json_out, quiet):
    """Certify k-very ampleness of pi^*(a,b) - k*sum(E_i) on the blow-up at r points.

    Exit 0 when every hypothesis and certificate check holds (certified), 1
    otherwise; the output lists each check either way.
    """
    json_out, quiet = _merged_flags(ctx, json_out, quiet)
    c = _rat_arg(c_str, "--c")
    delta = _rat_arg(delta_str, "--delta")
    if not (0 < c < 1):
        raise click.UsageError("--c must lie in (0, 1)")
    if delta <= 0:
        raise click.UsageError("--delta must be positive")
    cert = certify_instance(surface, a, b, k, d, r, c, delta)
    ses_sq, threshold_sq = cert.seshadri_lower_sq, cert.threshold_sq

    if json_out:
        _emit_json(
            {
                "inputs": {"surface": surface, "a": a, "b": b, "k": k, "d": d, "r": r},
                "hypothesis_checks": _checks_to_list(cert.hypothesis_checks),
                "certificate_checks": _checks_to_list(cert.certificate_checks),
                "derived": {
                    "L2": cert.l2,
                    "r_max": cert.r_max,
                    "N2": cert.n2,
                    **_exact_fields("seshadri_lower_sq", ses_sq),
                    "seshadri_lower_approx": _sqrt_approx(ses_sq) if ses_sq is not None else None,
                    **_exact_fields("threshold_sq", threshold_sq),
                    "star_holds": cert.star,
                    "c": frac_str(c),
                    "delta": frac_str(delta),
                },
                "verdict": cert.verdict,
            }
        )
    else:
        group = surface_by_id(surface).group_name
        click.echo(f"inputs: surface={surface} ({group}) a={a} b={b} k={k} d={d} r={r}")
        if not quiet:
            for name, ok, detail in cert.hypothesis_checks + cert.certificate_checks:
                click.echo(f"  [{'ok' if ok else 'FAIL'}] {name}: {detail}")
            click.echo(f"  L^2 = {cert.l2}, r_max = {cert.r_max}, N^2 = {cert.n2}")
            if ses_sq is not None:
                click.echo(
                    f"  Seshadri lower bound^2 = {frac_str(ses_sq)}"
                    f" (~{decimal_str(ses_sq)}), bound ~ {_sqrt_approx(ses_sq)}"
                )
                click.echo(
                    f"  threshold (k+1+delta)^2 = {frac_str(threshold_sq)}"
                    f" (~{decimal_str(threshold_sq)}), exceeded: {cert.star}"
                )
        click.echo(f"verdict: {cert.verdict}")
    ctx.exit(0 if cert.certified else 1)


# ---------------------------------------------------------------------------
# max-r
# ---------------------------------------------------------------------------


@main.command(name="max-r")
@click.option("--surface", type=click.IntRange(1, 7), default=1, show_default=True)
@click.option("-a", "a", type=int, required=True)
@click.option("-b", "b", type=int, required=True)
@click.option("-k", "k", type=int, required=True)
@click.option("--c", "c_str", default="887/1000", show_default=True)
@output_options
@click.pass_context
def max_r(ctx, surface, a, b, k, c_str, json_out, quiet):
    """Largest admissible number of points, floor(c * L^2 / (k+1)^2)."""
    json_out, quiet = _merged_flags(ctx, json_out, quiet)
    c = _rat_arg(c_str, "--c")
    if not (0 < c < 1):
        raise click.UsageError("--c must lie in (0, 1)")
    if k < 0:
        raise click.UsageError("k must be nonnegative")
    l_s = DivisorClass(a, b, surface)
    if not is_ample(l_s):
        raise click.UsageError(f"class ({a},{b}) is not ample (need a > 0 and b > 0)")
    l2 = self_intersection(l_s)
    r_max = max_points(l2, k, c)
    warnings = []
    if c > C_MAX_DEFAULT:
        warnings.append(
            f"c = {frac_str(c)} exceeds the certified c_max = {frac_str(C_MAX_DEFAULT)};"
            " check does not certify at this c"
        )
    if r_max < 2:
        warnings.append(f"r_max = {r_max} is below the theorem's floor r >= 2")
    min_coord = (k + 1) ** 2 + 3  # smallest admissible d+2
    if a < min_coord or b < min_coord:
        warnings.append(
            f"full hypotheses also need a, b >= d+2 > (k+1)^2+2; here that means >= {min_coord}"
        )
    if json_out:
        _emit_json({"r_max": r_max, "L2": l2, "k": k, "c": frac_str(c), "warnings": warnings})
    else:
        click.echo(str(r_max))
        if not quiet:
            for w in warnings:
                click.echo(f"warning: {w}")
    ctx.exit(0)


# ---------------------------------------------------------------------------
# seshadri
# ---------------------------------------------------------------------------


@main.command()
@click.option("--surface", type=click.IntRange(1, 7), default=1, show_default=True)
@click.option("-a", "a", type=int, required=True)
@click.option("-b", "b", type=int, required=True)
@click.option("-r", "r", type=int, required=True)
@output_options
@click.pass_context
def seshadri(ctx, surface, a, b, r, json_out, quiet):
    """Exact square of the multi-point Seshadri lower bound at r very general points."""
    json_out, quiet = _merged_flags(ctx, json_out, quiet)
    l_s = DivisorClass(a, b, surface)
    if not is_ample(l_s):
        raise click.UsageError(f"class ({a},{b}) is not ample (need a > 0 and b > 0)")
    if r < 1:
        raise click.UsageError("r must be at least 1")
    ses_sq = seshadri_lower_sq(l_s, r)
    if json_out:
        _emit_json(
            {
                **_exact_fields("seshadri_lower_sq", ses_sq),
                "seshadri_lower_approx": _sqrt_approx(ses_sq),
            }
        )
    else:
        click.echo(f"seshadri lower bound^2 = {frac_str(ses_sq)} (~{decimal_str(ses_sq)})")
        if not quiet:
            click.echo(f"seshadri lower bound   ~ {_sqrt_approx(ses_sq)}")
    ctx.exit(0)


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------


@main.command()
@click.argument("action", type=click.Choice(["verify"]), default="verify")
@click.option("--grid-step", default="1/1000", show_default=True, help="Scan resolution for c.")
@click.option("--kmin", type=click.IntRange(min=2), default=2, show_default=True)
@output_options
@click.pass_context
def constants(ctx, action, grid_step, kmin, json_out, quiet):
    """Re-derive the point-count constant, its slack and the hard ceiling.

    With default settings this is a self-verification: exit 0 only when the
    scan reproduces c_max = 887/1000, delta_max = 178/1000 and a ceiling of
    954/1000 exactly.  With a non-default grid or kmin, exit 0 simply means
    a feasible constant was found.  Exit 2 when the grid has more points
    below the ceiling than the scan budget (the count is printed).
    """
    json_out, quiet = _merged_flags(ctx, json_out, quiet)
    step = _rat_arg(grid_step, "--grid-step")
    try:
        report = c_max_search(step, kmin)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from None
    if json_out:
        _emit_json(_report_to_dict(report))
    else:
        def show(label, value):
            if value is None:
                click.echo(f"{label}: none (empty feasible set)")
            else:
                click.echo(f"{label} = {frac_str(value)} (~{decimal_str(value)})")

        show("c_max", report.c_max)
        show("delta_max", report.delta_max)
        show("c_ceiling", report.c_ceiling)
        if not quiet:
            click.echo(f"grid step {frac_str(report.grid_step)}, kmin {report.kmin}, "
                       f"{report.scanned} grid points scanned")
            for rec in report.per_constraint:
                click.echo(f"  [{rec.status}] {rec.id}: margin {render_margin(rec.margin)}")
            for disc in report.discrepancies:
                click.echo(f"  [recomputed] {disc.id}: quoted {disc.quoted!r}; {disc.recomputed}")
    ctx.exit(0 if report.verified else 1)


# ---------------------------------------------------------------------------
# obstructions
# ---------------------------------------------------------------------------


@main.command()
@click.option("--surface", type=click.IntRange(1, 7), default=1, show_default=True)
@click.option("-a", "a", type=int, required=True)
@click.option("-b", "b", type=int, required=True)
@click.option("-k", "k", type=int, required=True)
@click.option("-r", "r", type=int, required=True)
@click.option("--delta", "delta_str", default="178/1000", show_default=True)
@click.option(
    "--formula",
    type=click.Choice(["paper", "standard"]),
    default="paper",
    show_default=True,
    help="D^2 convention: D_S^2 - (sum m_i)^2 or D_S^2 - sum m_i^2.",
)
@output_options
@click.pass_context
def obstructions(ctx, surface, a, b, k, r, delta_str, formula, json_out, quiet):
    """Brute-force search for numerical obstruction divisors within the proof bounds.

    Exit 0 when no candidate exists inside the bounds, 1 when witnesses are
    found (each is printed with its intersection numbers), 2 when the
    estimated search exceeds the work budget or its witnesses would carry more
    than the output budget of multiplicities (the size is printed).
    """
    json_out, quiet = _merged_flags(ctx, json_out, quiet)
    delta = _rat_arg(delta_str, "--delta")
    try:
        witnesses = search_obstruction(DivisorClass(a, b, surface), k, r, delta, formula=formula)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from None
    if json_out:
        _emit_json(
            {
                "formula": formula,
                "count": len(witnesses),
                "witnesses": [
                    {
                        "d_s": {"a": w.d_s.a, "b": w.d_s.b},
                        "mults": list(w.mults),
                        "nd": w.nd,
                        "d2": w.d2,
                    }
                    for w in witnesses
                ],
            }
        )
    else:
        if not witnesses:
            click.echo("none found within proof bounds")
        else:
            click.echo(f"{len(witnesses)} witness(es) within proof bounds ({formula} formula):")
            for w in witnesses:
                click.echo(
                    f"  D_S = ({w.d_s.a},{w.d_s.b}), m = {list(w.mults)}, "
                    f"N.D = {w.nd}, D^2 = {w.d2}"
                )
    ctx.exit(0 if not witnesses else 1)


# ---------------------------------------------------------------------------
# surfaces
# ---------------------------------------------------------------------------


@main.command()
@output_options
@click.pass_context
def surfaces(ctx, json_out, quiet):
    """The seven types of bielliptic surfaces with their lattice metadata."""
    json_out, quiet = _merged_flags(ctx, json_out, quiet)
    rows = surface_table()
    if json_out:
        _emit_json(
            {
                "surfaces": [
                    {
                        "id": s.id,
                        "group": s.group_name,
                        "multiplicities": list(s.fiber_multiplicities),
                        "mu": s.mu,
                        "gamma": s.gamma,
                        "basis": s.basis_label,
                    }
                    for s in rows
                ]
            }
        )
    else:
        for s in rows:
            mults = ",".join(str(m) for m in s.fiber_multiplicities)
            click.echo(
                f"{s.id}: G = {s.group_name}; fibres {mults}; "
                f"mu = {s.mu}, gamma = {s.gamma}; basis {s.basis_label}"
            )
    ctx.exit(0)


def run() -> None:
    """Entry point of the ``kvacert`` process: :func:`main` with the import-time heap frozen.

    What the imports built (click, the modules, their constants) lives until
    exit.  ``gc.freeze()`` moves it to the permanent generation, so neither a
    collection during the command nor the ones at interpreter shutdown
    traverse it again.  ``main`` itself never freezes, so ``CliRunner`` and
    other in-process callers keep an ordinary heap.
    """
    gc.freeze()
    main()


if __name__ == "__main__":
    run()
