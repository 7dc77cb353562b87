"""Command-line interface.

Subcommands: validate, analyze, table, oracle, batch, catalog.
Exit codes: 0 success, 1 failed checks, 2 unparseable input, an unknown
name, conflicting oracle selectors, a graph above graphs.MAX_VERTICES
vertices or graphs.MAX_WORK = n*m, an unreadable file or a report too
long to print, 3 validation failure (the report is still printed), 141
when stdout closes early.  A command refuses input by raising _Refusal;
`main` alone turns it into exit code 2 and an `error:` line on stderr.

validate and analyze build one record per array (`_record`), a dict that
keeps exact `Fraction`, `TraceStep` and `BoundTrace` values.  `--json`
prints it with `_to_json`, which writes what `json.dumps(record,
indent=2)` would, each rational as {"num", "den"} strings and each
audited inequality, an analysis check or a trace step alike, in the one
shape `_json_default` gives a `TraceStep`; the text form is rendered
from the same dict by `_text_lines`.  The ratio bounds are the rows of
`proofs.BOUNDS`: `--prove` takes their names, and batch marks and counts
each target.  Only `oracle` imports the graph side (`graphs` and
`oracle`), when it runs, so the other commands start without it.
"""

from __future__ import annotations

import argparse
import codecs
import functools
import os
import sys
from collections.abc import Iterator
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _json_str

from .arrays import (
    CHECKS,
    ArrayFormatError,
    IntersectionArray,
    derive,
    format_array,
    parse_array,
    validate,
)
from .catalog import CatalogEntry, catalog_list, lookup
from .fmt import approx_str, decimal_str, frac_str
from .potentials import compute_potentials_explicit, compute_profile, compute_ratio
from . import proofs
from .proofs import BoundTrace, TraceStep, check_resistance_cap, step_inequalities, tail_sum_check


class _Refusal(Exception):
    """Bad input: `main` prints `error: <message>` on stderr and returns 2."""


def _read_text(path: str, what: str) -> str:
    """The file at `path` decoded as UTF-8, less one leading byte-order
    mark; `what` names it in a refusal.

    A file that cannot be read is refused with `cannot read <what>: ...`,
    and one that is not UTF-8 with `path:line: cannot read <what>: ...`,
    the line of its first bad byte.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read().removeprefix(codecs.BOM_UTF8)
    except OSError as exc:
        raise _Refusal(f"cannot read {what}: {exc}") from exc
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:  # exc.start counts from after the mark
        line = data.count(b"\n", 0, exc.start) + 1
        raise _Refusal(f"{path}:{line}: cannot read {what}: {exc}") from exc


def _resolve(target: str) -> tuple[IntersectionArray, CatalogEntry | None]:
    """An argument with a ';' is array text; anything else is a catalog name."""
    if ";" in target:
        try:
            return parse_array(target), None
        except ArrayFormatError as exc:
            raise _Refusal(str(exc)) from exc
    entry = lookup(target)
    if entry is None:
        raise _Refusal(f"unknown catalog name {target!r} (try `drg catalog list`)")
    return entry.array, entry


# ----------------------------------------------------------------------
# validate / analyze: one record, rendered as JSON or as text

def _fields(obj, *names: str) -> dict:
    """The named attributes of `obj`, in the order given (the JSON key order)."""
    return {name: getattr(obj, name) for name in names}


def _record(
    arr: IntersectionArray, entry: CatalogEntry | None, analyze: bool, prove: str | None
) -> tuple[dict, str | None]:
    """The report on one array and the rendered text of its proof trace.

    The record keeps Fraction, TraceStep and BoundTrace values as they
    are; the text is None when there is no trace.  Keys are in JSON
    output order.  The analysis keys (from "derived" on) are present only
    when `analyze` is set and the validation passed.
    """
    report = validate(arr)
    validation = _fields(report, *(key for key, _ in CHECKS), "k_ge_3", "b1_ge_2", "passed")
    validation["failures"] = report.failure_messages()
    record = {
        "array": format_array(arr),
        "name": entry.name if entry else None,
        "validation": validation,
    }
    if not (analyze and report.passed):
        return record, None

    params = derive(arr)
    profile = compute_profile(params)
    record["derived"] = _fields(params, "k", "n", "D", "a", "sphere_sizes", "j")
    record["potentials"] = {
        "phi": profile.phi,
        "methods_agree": compute_potentials_explicit(params) == profile.phi,
    }
    record["resistances"] = profile.resistances
    record["ratio"] = profile.ratio
    record["k_effective"] = profile.k_effective
    record["resistance_cap"] = check_resistance_cap(profile)
    record["tail_bound"] = tail_sum_check(profile)
    record["step_inequalities"] = step_inequalities(profile) if report.b1_ge_2 else None
    record["trace"] = None
    text = None
    if prove:
        bound = next(b for b in proofs.BOUNDS if b.name == prove)
        try:
            trace = bound.prove(profile)
            text = trace.render()  # str() refuses an integer of more than 4300 digits
        except ValueError as exc:
            record["trace_note"] = str(exc)
        else:
            record["trace"] = trace
    return record, text


def _json_default(x):
    """A rational as {"num", "den"} strings, a step or a trace as a dict; TypeError otherwise."""
    if isinstance(x, Fraction):
        return {"num": str(x.numerator), "den": str(x.denominator)}
    if isinstance(x, TraceStep):
        return _fields(x, "label", "lhs", "relation", "rhs", "holds")
    if isinstance(x, BoundTrace):
        return {
            "case_id": x.case_id.value,
            **_fields(x, "branch", "alpha", "target", "rho"),
            "steps": x.steps,
            **_fields(x, "verdict", "extremal", "proof_path_available", "assumption_dependent"),
            "notes": x.notes,
        }
    raise TypeError(f"{type(x).__name__} is not JSON serializable")


def _to_json(x, ind: str = "\n") -> str:
    """`json.dumps(x, indent=2, default=_json_default)`, written directly.

    `ind` is the newline and indentation that precede x's closing bracket.
    An int past the interpreter's digit limit raises ValueError.
    """
    t = type(x)
    if t is Fraction:
        return f'{{{ind}  "num": "{x.numerator}",{ind}  "den": "{x.denominator}"{ind}}}'
    if t is int:
        return int.__repr__(x)
    if t is str:
        return _json_str(x)
    if t is bool:
        return "true" if x else "false"
    if x is None:
        return "null"
    if t is dict:
        if not x:
            return "{}"
        inner = ind + "  "
        items = [f"{_json_str(k)}: {_to_json(v, inner)}" for k, v in x.items()]
        return "{" + inner + ("," + inner).join(items) + ind + "}"
    if t is list or t is tuple:
        if not x:
            return "[]"
        inner = ind + "  "
        return "[" + inner + ("," + inner).join([_to_json(v, inner) for v in x]) + ind + "]"
    if isinstance(x, str):
        return _json_str(x)
    return _to_json(_json_default(x), ind)


def _text_lines(record: dict, prove: str | None, trace_text: str | None):
    """The lines of a record's text form; `trace_text` is the rendered trace."""

    def mark(ok: bool, yes: str = "ok") -> str:
        return yes if ok else "FAIL"

    yn = lambda flag: "yes" if flag else "no"

    if record["name"] is not None:
        yield f"name: {record['name']}"
    yield f"array: {record['array']}"
    v = record["validation"]
    yield f"validation: {mark(v['passed'], 'PASS')}"
    for key, label in CHECKS:
        yield f"  {label}: {mark(v[key])}"
    yield f"  flags: k>=3 {yn(v['k_ge_3'])}; b1>=2 {yn(v['b1_ge_2'])}"
    for message in v["failures"]:
        yield f"  ! {message}"
    if "derived" not in record:
        return

    d = record["derived"]
    yield f"derived: k={d['k']}  n={d['n']}  D={d['D']}  j={d['j']}"
    yield f"  a_i: {','.join(map(str, d['a']))}"
    yield f"  sphere sizes: {','.join(map(str, d['sphere_sizes']))}"
    yield "potentials: " + ", ".join(map(str, record["potentials"]["phi"]))
    yield f"  recursion == closed form: {mark(record['potentials']['methods_agree'])}"
    yield "resistances:"
    for i, r in enumerate(record["resistances"], start=1):
        yield f"  r_{i} = {approx_str(r)}"
    yield f"rho: {approx_str(record['ratio'])}"
    yield f"k_effective: {approx_str(record['k_effective'])}"
    cap = record["resistance_cap"]
    yield (
        f"max-resistance cap: r_D = {approx_str(cap.lhs)} {cap.relation} "
        f"4/k = {approx_str(cap.rhs)} [{mark(cap.holds, 'OK')}]"
    )
    tail = record["tail_bound"]
    yield (
        f"tail bound (j={d['j']}): {approx_str(tail.lhs)} {tail.relation} "
        f"{approx_str(tail.rhs)} [{mark(tail.holds, 'OK')}]"
    )
    if record["step_inequalities"] is None:
        yield "step inequalities: skipped (require D >= 2 and b_1 >= 2)"
    else:
        yield "step inequalities:"
        for step in record["step_inequalities"]:
            yield "  " + step.render()
    if trace_text is not None:
        yield f"proof trace ({prove}):"
        for line in trace_text.splitlines():
            yield f"  {line}"
    elif "trace_note" in record:
        yield f"proof trace: unavailable ({record['trace_note']})"


def _report(args) -> int:
    """validate or analyze, as `args.analyze` says."""
    arr, entry = _resolve(args.target)
    try:  # str() refuses an integer of more than 4300 digits
        record, trace_text = _record(arr, entry, args.analyze, args.prove)
        if args.json:
            out = _to_json(record)
        else:
            out = "\n".join(_text_lines(record, args.prove, trace_text))
    except ValueError as exc:
        raise _Refusal(f"the report cannot be printed: {exc}") from exc
    print(out)
    return 0 if record["validation"]["passed"] else 3


# ----------------------------------------------------------------------
# table / catalog

def _print_columns(rows: list[tuple[str, ...]], right: int | None = None) -> None:
    """Print rows in columns two spaces apart; column number `right` is right-aligned."""
    widths = [max(map(len, column)) for column in zip(*rows)]
    for row in rows:
        cells = (
            cell.rjust(w) if col == right else cell.ljust(w)
            for col, (cell, w) in enumerate(zip(row, widths))
        )
        print("  ".join(cells).rstrip())


def cmd_table(args) -> int:
    rows = [("Name", "Vertices", "Intersection array", "rho", "rho (6 dp)", "")]
    for e in catalog_list():
        if e.supplementary and not args.extras:
            continue
        marks = []
        if e.extremal:
            marks.append("extremal")
        if e.supplementary:
            marks.append("supplementary")
        rows.append(
            (
                e.name,
                str(e.vertices),
                format_array(e.array),
                frac_str(e.ratio),
                decimal_str(e.ratio, 6),
                " ".join(marks),
            )
        )
    _print_columns(rows)
    return 0


def cmd_catalog(args) -> int:
    rows = []
    for e in catalog_list():
        note = "supplementary" if e.supplementary else "table row"
        if e.extremal:
            note += ", extremal"
        if e.constructible:
            note += f", constructible ({e.constructible})"
        rows.append((e.slug, e.name, str(e.vertices), format_array(e.array), note))
    _print_columns(rows, right=2)
    return 0


# ----------------------------------------------------------------------
# oracle

def _oracle_one(g) -> bool:
    from .oracle import NotDistanceRegular, cross_validate

    print(f"== {g.name} [n={g.n}, m={len(g.edges)}]")
    if g.claimed_array is not None:
        print(f"   claimed array: {format_array(g.claimed_array)}")
    try:
        result = cross_validate(g)
    except ValueError as exc:
        print(f"   {exc}")
        # a disconnected or one-vertex graph raises a plain ValueError
        violations = exc.report.violations if isinstance(exc, NotDistanceRegular) else ()
        for violation in violations[:5]:
            print(
                f"   violation: base={violation.base} target={violation.target} "
                f"{violation.kind}: expected {violation.expected}, "
                f"observed {violation.observed}"
            )
        if len(violations) > 5:
            print(f"   ... {len(violations) - 5} more violation(s)")
        print("   result: FAIL")
        return False
    observed = result.drg_report.observed_array
    print(f"   distance-regular: yes; observed array: {format_array(observed)}")
    for cls in result.classes:
        status = "OK" if cls.ok else "FAIL"
        print(
            f"   d={cls.distance}: formula {approx_str(cls.expected)}, "
            f"{cls.pairs_checked} pair(s) [{status}]"
        )
        for u, v, got in cls.mismatches[:5]:
            print(f"      mismatch at ({u},{v}): solver {approx_str(got)}")
        if len(cls.mismatches) > 5:
            print(f"      ... {len(cls.mismatches) - 5} more mismatch(es)")
    print(f"   result: {'PASS' if result.ok else 'FAIL'}")
    return result.ok


def cmd_oracle(args) -> int:
    from .graphs import construct, parse_edge_list, registry_names

    selectors = (("NAME", args.name), ("--all", args.all), ("--graph-file", args.graph_file))
    given = [flag for flag, value in selectors if value]
    if not given:
        raise _Refusal("oracle needs a construction name, --all, or --graph-file")
    if len(given) > 1:
        raise _Refusal(
            f"oracle takes one of NAME, --all and --graph-file; got {' and '.join(given)}"
        )
    if args.param is not None and not args.name:  # only the three families take a parameter
        raise _Refusal(
            f"--param applies to one construction; it cannot be combined with {given[0]}"
        )

    if args.graph_file:
        text = _read_text(args.graph_file, "graph file")
        try:
            g = parse_edge_list(text, name=args.graph_file)
        except ValueError as exc:
            raise _Refusal(str(exc)) from exc
        return 0 if _oracle_one(g) else 1

    names = registry_names() if args.all else (args.name,)
    passed = 0
    for name in names:
        try:
            g = construct(name, args.param)
        except ValueError as exc:
            raise _Refusal(str(exc)) from exc
        passed += _oracle_one(g)
    print(f"oracle summary: {passed}/{len(names)} PASS")
    return 0 if passed == len(names) else 1


# ----------------------------------------------------------------------
# batch

def _or_too_long(render) -> str:
    """render(), or a note when str() refuses an integer of more than 4300 digits."""
    try:
        return render()
    except ValueError:
        return "too long to print"


def _named_array_lines(text: str) -> Iterator[tuple[int, str, str]]:
    """(lineno, name, array) per `name | array` or bare-array line; `#` comments.

    A line with an empty name is named by its array text, or by the
    whole line when that is empty too.  A label longer than 80 characters
    is cut to its first 77 characters and "...".
    Lines end at "\n", as in the line numbers of _read_text.
    """
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            name, bar, array_text = (part.strip() for part in line.partition("|"))
            label = name or array_text or line
            if len(label) > 80:
                label = label[:77] + "..."
            yield lineno, label, array_text if bar else line


def cmd_batch(args) -> int:
    text = _read_text(args.file, "batch file")

    bounds = proofs.BOUNDS
    # each target in a line's marks, as a decimal with no trailing zeros: 0.93, 2
    marks = [decimal_str(b.target).rstrip("0").rstrip(".") for b in bounds]
    below = [0] * len(bounds)  # how many valid lines meet each target
    total = valid = invalid = 0
    extremal_entries: list[str] = []
    for lineno, label, array_text in _named_array_lines(text):
        total += 1
        try:
            arr = parse_array(array_text)
        except ArrayFormatError as exc:
            invalid += 1
            print(f"line {lineno}: {label}: parse error: {exc}")
            continue
        report = validate(arr)
        if not report.passed:
            invalid += 1
            reasons = _or_too_long(lambda: "; ".join(report.failure_messages()))
            print(f"line {lineno}: {label}: INVALID ({reasons})")
            continue
        valid += 1
        rho = compute_ratio(derive(arr))
        holds = [rho < b.target for b in bounds]
        below = [n + h for n, h in zip(below, holds)]
        if not holds[0]:
            extremal_entries.append(f"{label} (rho = {_or_too_long(lambda: frac_str(rho))})")
        print(
            f"line {lineno}: {label}: valid rho={_or_too_long(lambda: approx_str(rho))} "
            + " ".join(f"[rho<{mark} {'yes' if h else 'NO'}]" for mark, h in zip(marks, holds))
        )
    print(
        f"batch summary: {total} entr{'y' if total == 1 else 'ies'}, "
        f"{valid} valid, {invalid} invalid"
    )
    for b, n in zip(bounds, below):
        print(f"  rho < {b.target}: {n}")
    if extremal_entries:
        print(f"  extremal entries (rho >= {bounds[0].target}): " + "; ".join(extremal_entries))
    return 0 if below[-1] == valid else 1


# ----------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once: `parse_args` gives a fresh namespace each call."""
    parser = argparse.ArgumentParser(
        prog="drg",
        description=(
            "Exact resistance computations and bound checks for "
            "distance-regular graphs given by intersection arrays."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the feasibility conditions")
    p.add_argument("target", help="array text like '3,2,1;1,2,3' or a catalog name")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_report, analyze=False, prove=None)

    p = sub.add_parser("analyze", help="full exact analysis of one array")
    p.add_argument("target", help="array text or catalog name")
    p.add_argument("--prove", choices=sorted(b.name for b in proofs.BOUNDS))
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_report, analyze=True)

    p = sub.add_parser("table", help="recompute the embedded valency-3/4 table")
    p.add_argument("--extras", action="store_true", help="include supplementary rows")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("oracle", help="cross-validate resistances on explicit graphs")
    p.add_argument("name", nargs="?", help="construction name from the registry")
    p.add_argument("--all", action="store_true", help="run the whole registry")
    p.add_argument("--param", type=int, help="parameter for parameterized families")
    p.add_argument("--graph-file", help="edge list file, one 'u v' pair per line")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("batch", help="analyze a file of arrays")
    p.add_argument("file", help="one `name | array` or bare array per line")
    p.set_defaults(func=cmd_batch)

    p = sub.add_parser("catalog", help="catalog operations")
    p.add_argument("action", choices=("list",))
    p.set_defaults(func=cmd_catalog)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _Refusal as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    """The `drg` command; 141 = 128 + SIGPIPE when stdout closes early, as under `| head`."""
    try:
        try:
            code = main()
        finally:  # also when argparse exits, after --help
            sys.stdout.flush()
    except BrokenPipeError:  # the interpreter flushes stdout again at exit: to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    raise SystemExit(code)


if __name__ == "__main__":
    entrypoint()
