"""Command line front end.

Exit codes: 0 on success, 1 when a run was incomplete or a check
failed, 2 on unusable input (parse errors, open terms, malformed
derivation files, bad flags).
"""

from __future__ import annotations

import json
import sys

import click

from .checker import (
    check as check_derivation,
    derivation_from_json,
    derivation_to_json,
    render_derivation,
    reweight,
)
from .extractor import IncompleteRun, extract, extract_kam
from .harness import fuzz as run_fuzz
from .harness import verify as run_verify
from .kam import OpenTerm, StuckState, kam_run, run_summary, run_trace_rows
from .kam import compile as kam_compile
from .space_kam import skam_run
from .terms import ParseError, parse_term, print_term, whnf_eval


def _read_input(path: str, errors: str = "strict") -> str:
    """The text of path, or of stdin for '-', decoded from UTF-8 with
    errors; unreadable input is a usage error.  Terms are read with
    surrogateescape, as argv is decoded, so a byte that is not UTF-8
    reaches the parser, which counts it as one byte."""
    try:
        if path == "-":
            return sys.stdin.buffer.read().decode("utf-8", errors)
        with open(path, encoding="utf-8", errors=errors) as f:
            return f.read()
    except (OSError, UnicodeDecodeError) as ex:
        raise click.UsageError(f"cannot read {path}: {ex}")


def _load_term(term: str | None, path: str | None):
    if (term is None) == (path is None):
        raise click.UsageError("give a term inline or with --file, not both or neither")
    text = term if path is None else _read_input(path, "surrogateescape")
    try:
        return parse_term(text)
    except ParseError as ex:
        raise click.UsageError(str(ex))


def _compile(t):
    try:
        return kam_compile(t)
    except OpenTerm as ex:
        raise click.UsageError(str(ex))


def _write_file(path: str, lines) -> None:
    """Write lines to the file at path; an unwritable path is a usage error."""
    try:
        with open(path, "w", encoding="utf-8") as f:
            for line in lines:
                f.write(line + "\n")
    except OSError as ex:
        raise click.UsageError(f"cannot write {path}: {ex}")


def _write_trace(lines, path):
    if path == "-":
        for line in lines:
            sys.stdout.write(line + "\n")
    else:
        _write_file(path, lines)


_term_argument = click.argument("term", required=False)
_file_option = click.option(
    "--file", "-f", "path", default=None,
    help="read the term from this file ('-' for stdin)",
)


def _fuel_option(default: int):
    return click.option(
        "--fuel", type=click.IntRange(min=0), default=default, show_default=True,
        envvar="SPACEKAM_FUEL",
        help="transition budget; SPACEKAM_FUEL overrides the default, the flag wins",
    )


_json_option = click.option("--json", "as_json", is_flag=True, help="machine-readable output")


@click.group()
def main():
    """Weak head evaluation, two Krivine-style machines, and weighted
    derivations that measure their runs."""


@main.command("eval")
@_term_argument
@_file_option
@_fuel_option(10000)
@_json_option
def eval_cmd(term, path, fuel, as_json):
    """Reduce a term to weak head normal form."""
    t = _load_term(term, path)
    res = whnf_eval(t, fuel)
    if as_json:
        click.echo(json.dumps({
            "result": print_term(res.result),
            "steps": res.steps,
            "exhausted": res.exhausted,
        }))
    else:
        click.echo(print_term(res.result))
        click.echo(f"steps: {res.steps}")
    if res.exhausted:
        click.echo(f"fuel exhausted after {res.steps} steps", err=True)
        sys.exit(1)


def _machine_command(name, machine_run, doc):
    @main.command(name, help=doc)
    @_term_argument
    @_file_option
    @_fuel_option(10000)
    @_json_option
    @click.option("--trace", default=None, help="write the trace as JSON lines here ('-' for stdout)")
    def machine_cmd(term, path, fuel, as_json, trace):
        t = _load_term(term, path)
        try:
            run = machine_run(_compile(t), fuel)
        except StuckState as ex:
            raise click.UsageError(str(ex))
        if trace:
            _write_trace(run_trace_rows(run), trace)
        if as_json:
            click.echo(json.dumps(run_summary(run)))
        else:
            counts = ", ".join(f"{label} {n}" for label, n in run.counts.items())
            click.echo(f"transitions: {run.transitions} ({counts})")
            if run.space is not None:
                click.echo(f"space: {run.space}")
                click.echo(f"time: {run.time}")
            click.echo(f"complete: {str(run.final_reached).lower()}")
        if not run.final_reached:
            sys.exit(1)

    return machine_cmd


kam_cmd = _machine_command("kam", kam_run, "Run the plain machine on a closed term.")
skam_cmd = _machine_command("skam", skam_run, "Run the space machine on a closed term.")


@main.command("infer")
@_term_argument
@_file_option
@click.option(
    "--mode", type=click.Choice(["space", "time", "kam"]), default="space",
    show_default=True, help="which weights the derivation carries",
)
@click.option("--out", "-o", default=None, help="write the derivation JSON here")
@click.option("--pretty", is_flag=True, help="render the derivation as an indented tree instead of JSON")
@_fuel_option(10000)
def infer_cmd(term, path, mode, out, pretty, fuel):
    """Rebuild the weighted derivation for a term's complete run."""
    t = _load_term(term, path)
    s = _compile(t)
    try:
        if mode == "kam":
            d = extract_kam(kam_run(s, fuel))
        else:
            d = extract(skam_run(s, fuel))
            if mode == "time":
                d = reweight(d, "time")
    except IncompleteRun as ex:
        click.echo(str(ex), err=True)
        sys.exit(1)
    blob = render_derivation(d) if pretty else json.dumps(derivation_to_json(d))
    if out:
        _write_file(out, [blob])
        click.echo(f"weight: {d.conclusion.weight}")
    else:
        click.echo(blob)


@main.command("check")
@click.argument("path")
@click.option(
    "--mode", type=click.Choice(["space", "time", "kam"]), default="space",
    show_default=True,
)
@click.option("--full-scan", is_flag=True, help="report every failing node, not just the first")
def check_cmd(path, mode, full_scan):
    """Validate a derivation JSON file ('-' for stdin)."""
    text = _read_input(path)
    try:
        obj = json.loads(text)
    except ValueError as ex:  # JSONDecodeError, or an integer literal over the digit limit
        raise click.UsageError(f"not JSON: {ex}")
    except RecursionError:
        raise click.UsageError("JSON nested too deep to read")
    try:
        d = derivation_from_json(obj)
    except ValueError as ex:
        raise click.UsageError(str(ex))
    res = check_derivation(d, mode, full_scan=full_scan)
    if res.ok:
        click.echo(f"ok: weight {d.conclusion.weight}")
    else:
        for e in res.errors:
            click.echo(str(e))
        sys.exit(1)


@main.command("verify")
@_term_argument
@_file_option
@_fuel_option(10000)
@_json_option
def verify_cmd(term, path, fuel, as_json):
    """Cross-check machines, reduction and derivations on one term."""
    t = _load_term(term, path)
    try:
        rep = run_verify(t, fuel)
    except OpenTerm as ex:
        raise click.UsageError(str(ex))
    if as_json:
        click.echo(json.dumps(rep.to_json()))
    else:
        click.echo(f"term: {print_term(rep.term)}")
        click.echo(f"complete: {str(rep.complete).lower()}")
        if rep.complete:
            click.echo(
                f"wh steps {rep.wh_steps}, kam transitions "
                f"{rep.kam['transitions']}, skam transitions "
                f"{rep.skam['transitions']}, space {rep.skam['space']}, "
                f"time {rep.skam['time']}"
            )
        for name, ok in rep.checks:
            click.echo(f"{'pass' if ok else 'FAIL'}  {name}")
            if not ok and name in rep.notes:
                click.echo(f"      {rep.notes[name]}")
    if not rep.all_pass:
        sys.exit(1)


@main.command("fuzz")
@click.option("--count", type=click.IntRange(min=1), default=100, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--budget", type=click.IntRange(min=1), default=25, show_default=True,
              help="size budget per generated term")
@_fuel_option(2000)
@_json_option
def fuzz_cmd(count, seed, budget, fuel, as_json):
    """verify a batch of random closed terms."""
    summary = run_fuzz(count, seed, size_budget=budget, fuel=fuel)
    if as_json:
        click.echo(json.dumps(summary))
    else:
        click.echo(
            f"count {summary['count']}  complete {summary['complete']}  "
            f"incomplete {summary['incomplete']}  failed {summary['failed']}"
        )
        for f in summary["failures"]:
            click.echo(f"seed {f['seed']}: {f['term']}")
            if "failed" in f:
                click.echo(f"  failed: {', '.join(f['failed'])}")
            if f.get("notes"):
                for name, note in f["notes"].items():
                    click.echo(f"  {name}: {note}")
            if "error" in f:
                click.echo(f"  error: {f['error']}")
    if summary["failed"]:
        sys.exit(1)


if __name__ == "__main__":
    main()
