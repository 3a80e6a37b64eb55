"""Command-line front end.

    star eval    evaluate one star product from the catalog or a table file
    star verify  run verification suites and emit a machine-readable report
    star report  merge report files into one summary table
    star gram    Gram matrix of a deformed evaluation functional
    star gns     quotient representation data built from such a functional

Exit codes: 0 success, 1 a failed verdict (a probe of ``verify``, the PSD
check of ``gram``).  For an error, ``_guarded``, the one wrapper around every
command, gives 1 when rewriting hit the step limit, a coefficient has a
genuine pole or a float computation overflowed, and 2 for ``CONFIG_ERRORS``:
usage, parse, config or table-file errors (a non-finite hbar among them) and
any other ``ValueError``, from whichever step of the command it comes (numpy's
``LinAlgError`` in the PSD check of ``gram`` is one).  The message goes to
stderr as ``error: ...``; an input file of malformed JSON, or of JSON that is
no object, exits 2 and names the file (``read_json``).

``star eval`` turns its flags into one run-spec entry and builds its
instance through ``context_from_run``, as ``star verify`` does.
"""

from __future__ import annotations

import cmath
import contextlib
import csv
import functools
import json
import os
import sys
from typing import Dict, List, Optional, Tuple

import click

from .catalog import CATALOG_IDS, CatalogError
from .params import ParameterError
from .parsing import ParseError, format_poly, parse_poly
from .qcomb import PoleAtRootOfUnity
from .reduction import StepLimitExceeded, TableError, star_by_reduction
from .scalars import RingError
from .states import StateFunctional, WickPoint, gns_build, gram_matrix, psd_check
from .tableio import TableFileError
from .verify import (
    DEFAULT_RUNSPEC,
    SCHEMA,
    ConfigError,
    assemble_report,
    cases_to_csv_rows,
    context_from_run,
    finite_hbar,
    read_json,
    report_to_json,
    run_suites,
)

CONFIG_ERRORS = (ParseError, ParameterError, CatalogError, ConfigError,
                 TableFileError, TableError, RingError, ValueError)


class FloatOverflow(ArithmeticError):
    """A float computation overflowed in the named catalog at hbar."""

    def __init__(self, label: str, hbar):
        super().__init__(f"float overflow in {label} at hbar={hbar!r}")


def _guarded(command):
    """The command, with a failure (exit 1) or a ``CONFIG_ERRORS`` error (exit 2)
    printed and exited on."""
    @functools.wraps(command)
    def run(*args, **kwargs):
        try:
            return command(*args, **kwargs)
        except (StepLimitExceeded, PoleAtRootOfUnity, FloatOverflow) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(1)
        except CONFIG_ERRORS as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)
    return run


@contextlib.contextmanager
def _overflow_in(label: str, hbar):
    """Re-raise an OverflowError as a FloatOverflow naming label and hbar."""
    try:
        yield
    except OverflowError:
        raise FloatOverflow(label, hbar) from None


def _emit(text: str, path: Optional[str]) -> None:
    """Write ``text`` to the file at ``path``, or echo it when there is none."""
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


def _parse_params(params: Tuple[str, ...]) -> Dict:
    spec = {}
    for chunk in params:
        for piece in chunk.split(","):
            piece = piece.strip()
            if not piece:
                continue
            name, _, rule = piece.partition("=")
            if not rule:
                raise ParameterError(f"bad --param entry {piece!r}; expected NAME=RULE")
            spec[name.strip()] = rule.strip()
    return spec


def _parse_complex(text: str) -> complex:
    cleaned = text.strip().replace(" ", "").replace("i", "j")
    try:
        return complex(cleaned)
    except ValueError:
        raise ParameterError(f"bad complex literal {text!r}") from None


def _finite_hbar_flag(ctx, param, value) -> float:
    try:
        return finite_hbar(value)
    except ConfigError as exc:
        raise click.BadParameter(str(exc)) from None


def _hbar_list(text: str) -> List[float]:
    """The hbars of a comma-separated --hbar value."""
    try:
        return [finite_hbar(h) for h in text.split(",")]
    except ConfigError:
        raise
    except ValueError:
        raise ConfigError(f"bad --hbar value {text!r}") from None


def _overflowed(f) -> bool:
    """Whether a float result holds an infinite or NaN coefficient."""
    return not f.ring.exact and not all(cmath.isfinite(c) for c in f.terms.values())


def _resolve_seed(seed: Optional[int], spec: Dict) -> int:
    """--seed beats STARPROD_SEED beats the spec's own seed beats 42."""
    if seed is not None:
        return seed
    env = os.environ.get("STARPROD_SEED")
    if env:
        return int(env)
    return int(spec.get("seed", 42))


def _run_from_flags(catalog, phi, d, params, ring_name, truncation) -> Dict:
    """The run-spec entry the eval flags describe; of the --param bindings,
    N, lambda and c are catalog options."""
    if phi:
        run = {"phi": phi}
    else:
        options, plain = {}, {}
        for name, rule in _parse_params(params).items():
            if name == "N":
                options["N"] = int(rule)
            elif name in ("lambda", "lam"):
                options["lambda"] = rule
            elif name == "c":
                options["c"] = rule.split(";")
            else:
                plain[name] = rule
        run = {"catalog": catalog, "d": d, "params": plain, "options": options}
    run["truncation"] = truncation
    if ring_name:
        run["ring"] = ring_name
    return run


@click.group()
@click.version_option(package_name="starprod", prog_name="star")
def main():
    """Star products: evaluation, verification, states."""


@main.command("eval")
@click.option("--catalog", type=click.Choice(CATALOG_IDS), default=None)
@click.option("--phi", type=click.Path(), default=None,
              help="JSON file with a relation table")
@click.option("--d", type=int, default=None, help="dimension")
@click.option("--param", "params", multiple=True, help="NAME=RULE[,NAME=RULE...]")
@click.option("--hbar", "hbar_text", default=None,
              help="a float or a comma-separated list of floats")
@click.option("--ring", "ring_name", default=None,
              type=click.Choice(["rational", "complex", "series", "rational_q"]),
              help="defaults to complex, or to the table file's declared ring")
@click.option("--truncation", type=int, default=8)
@click.option("--lhs", required=True, help="left factor, polynomial text")
@click.option("--rhs", required=True, help="right factor, polynomial text")
@click.option("--json", "as_json", is_flag=True, default=False)
@click.option("--exact", is_flag=True, default=False, help="full-precision output")
@_guarded
def cmd_eval(catalog, phi, d, params, hbar_text, ring_name, truncation, lhs, rhs,
             as_json, exact):
    """Evaluate LHS * RHS and print the canonical result."""
    hbars = _hbar_list(hbar_text) if hbar_text is not None else [None]
    digits = None if exact else 5
    ctx = context_from_run(_run_from_flags(catalog, phi, d, params, ring_name, truncation))
    payloads = []
    for hbar in hbars:
        with _overflow_in(ctx.label, hbar):
            inst = ctx.instance(hbar=hbar)
            f = parse_poly(lhs, inst.dim, inst.ring, inst.kind, params=inst.params)
            g = parse_poly(rhs, inst.dim, inst.ring, inst.kind, params=inst.params)
            if inst.table is not None:
                trace = star_by_reduction(f, g, inst.table)
                result, count = trace.result, trace.reduction_count
            else:
                result, count = inst.star(f, g), None
        if _overflowed(result):
            raise FloatOverflow(ctx.label, hbar)
        payloads.append({"schema": SCHEMA, "catalog": catalog or "phi",
                         "hbar": hbar, "result": format_poly(result, digits=digits),
                         "reduction_count": count})
    if as_json:
        out = payloads[0] if len(payloads) == 1 else payloads
        click.echo(json.dumps(out, sort_keys=True))
        return
    for payload in payloads:
        prefix = f"hbar={payload['hbar']}: " if len(payloads) > 1 else ""
        click.echo(prefix + payload["result"])
        if payload["reduction_count"] is not None:
            click.echo(f"# reductions: {payload['reduction_count']}", err=True)


@main.command("verify")
@click.option("--spec", "spec_path", type=click.Path(exists=True), default=None,
              help="run-spec JSON; defaults to the bundled suite")
@click.option("--seed", type=int, default=None)
@click.option("--out", "out_path", type=click.Path(), default=None)
@click.option("--csv", "csv_path", type=click.Path(), default=None,
              help="write per-case rows to this CSV file")
@click.option("--json", "as_json", is_flag=True, default=False,
              help="print the JSON report to stdout")
@click.option("--cases", "include_cases", is_flag=True, default=False,
              help="include per-case rows in the JSON report")
@click.option("--timings", "include_timings", is_flag=True, default=False,
              help="include wall-clock timings (breaks byte-for-byte determinism)")
@_guarded
def cmd_verify(spec_path, seed, out_path, csv_path, as_json,
               include_cases, include_timings):
    """Run verification suites; exit 0 only if every probe passes."""
    spec = read_json(spec_path) if spec_path else DEFAULT_RUNSPEC
    actual_seed = _resolve_seed(seed, spec)
    # digests are computed only for the outputs that show them
    results = run_suites(spec, seed=actual_seed, digests=include_cases or bool(csv_path))
    report = assemble_report(results, actual_seed, include_cases, include_timings)
    text = report_to_json(report)
    _emit(text, out_path)
    if csv_path:
        with open(csv_path, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh).writerows(cases_to_csv_rows(results))
    if as_json and out_path:
        click.echo(text, nl=False)
    for row in report["suites"]:
        status = "pass" if row["pass"] else "FAIL"
        click.echo(f"{status}  {row['catalog']:28s} {row['probe']:22s} "
                   f"hbar={row['hbar']}", err=True)
    sys.exit(0 if report["pass"] else 1)


@main.command("report")
@click.argument("inputs", nargs=-1, type=click.Path(exists=True))
@click.option("--out", "out_path", type=click.Path(), default=None)
@click.option("--json", "as_json", is_flag=True, default=False)
@_guarded
def cmd_report(inputs, out_path, as_json):
    """Merge verify reports into one summary; later files win duplicate keys."""
    merged: Dict[Tuple, Dict] = {}
    for path in inputs:
        data = read_json(path)
        if data.get("schema") != SCHEMA:
            raise ConfigError(f"{path}: schema mismatch (want {SCHEMA})")
        for row in data.get("suites", []):
            key = (row.get("catalog"), row.get("probe"), repr(row.get("hbar")))
            if key in merged:
                click.echo(f"warning: duplicate key {key}; {path} wins", err=True)
            merged[key] = row
    rows = [merged[k] for k in sorted(merged)]
    if as_json:
        _emit(report_to_json({"schema": SCHEMA, "suites": rows}), out_path)
        return
    header = ["catalog", "probe", "hbar", "pass", "worst_margin", "case_count"]
    lines = [header] + [[str(r.get(h)) for h in header] for r in rows]
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh).writerows(lines)
    else:
        for line in lines:
            click.echo(",".join(line))


def _state_from_flags(hbar: float, z_text: str) -> StateFunctional:
    z = tuple(_parse_complex(part) for part in z_text.split(","))
    return StateFunctional(WickPoint(z), hbar)


def _state_payload(catalog: str, state: StateFunctional, degree: int, basis) -> Dict:
    """The fields that open the gram and gns payloads."""
    return {"schema": SCHEMA, "catalog": catalog, "hbar": state.hbar,
            "z": [[v.real, v.imag] for v in state.point.z],
            "degree": degree, "basis": [list(K) for K in basis]}


def _matrix_payload(M) -> Dict:
    """Shape and (real, imaginary) entries of a complex numpy matrix."""
    return {"shape": list(M.shape),
            "entries": [[float(v.real), float(v.imag)] for v in M.reshape(-1)]}


@main.command("gram")
@click.option("--catalog", default="wick_log_canonical",
              type=click.Choice(["wick_log_canonical"]))
@click.option("--hbar", type=float, required=True, callback=_finite_hbar_flag)
@click.option("--z", "z_text", required=True, help="comma-separated complex entries")
@click.option("--degree", type=int, default=3)
@click.option("--out", "out_path", type=click.Path(), default=None)
@_guarded
def cmd_gram(catalog, hbar, z_text, degree, out_path):
    """Gram matrix of the deformed evaluation at z."""
    with _overflow_in(catalog, hbar):
        state = _state_from_flags(hbar, z_text)
        basis, M = gram_matrix(state, degree)
    check = psd_check(M)
    _emit(report_to_json({**_state_payload(catalog, state, degree, basis),
                          "gram": _matrix_payload(M),
                          "psd": {"pass": check.passed,
                                  "min_eigenvalue": check.min_eigenvalue}}),
          out_path)
    sys.exit(0 if check.passed else 1)


@main.command("gns")
@click.option("--catalog", default="wick_log_canonical",
              type=click.Choice(["wick_log_canonical"]))
@click.option("--hbar", type=float, required=True, callback=_finite_hbar_flag)
@click.option("--z", "z_text", required=True)
@click.option("--degree", type=int, default=3)
@click.option("--report", "report_path", type=click.Path(), default=None)
@_guarded
def cmd_gns(catalog, hbar, z_text, degree, report_path):
    """Quotient representation data from the deformed evaluation at z."""
    with _overflow_in(catalog, hbar):
        state = _state_from_flags(hbar, z_text)
        data = gns_build(state, degree)
    _emit(report_to_json({**_state_payload(catalog, state, degree, data.basis),
                          "eigenvalues": [float(v) for v in data.eigenvalues],
                          "rank": data.rank,
                          "rank_gap_warning": data.rank_gap_warning,
                          "adjoint_residual": data.adjoint_residual,
                          "gram": _matrix_payload(data.gram),
                          "operators": {f"w{i}": _matrix_payload(op)
                                        for i, op in data.operators.items()}}),
          report_path)


if __name__ == "__main__":
    main()
