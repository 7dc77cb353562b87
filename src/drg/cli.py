"""Command-line interface.

Subcommands: validate, analyze, table, oracle, batch, catalog.
Exit codes: 0 success, 1 failed checks, 2 unparseable input, an unknown
name, conflicting oracle selectors, a graph above graphs.MAX_VERTICES
vertices or graphs.MAX_WORK = n*m or a report too long to print, 3
validation failure (the report is still printed).

validate and analyze build one record per array (`_record`), a dict that
keeps exact `Fraction` and `BoundTrace` values.  `--json` prints it with
`json.dumps` and a hook that writes each rational as {"num", "den"}
strings; the text form is rendered from the same dict by `_text_lines`.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from .arrays import (
    ArrayFormatError,
    IntersectionArray,
    derive_from,
    format_array,
    parse_array,
    validate,
)
from .catalog import CatalogEntry, CatalogError, catalog_list, lookup, named_array_lines
from .fmt import approx_str, decimal_str, frac_str
from .graphs import construct, parse_edge_list, registry_names
from .oracle import NotDistanceRegular, cross_validate
from .potentials import (
    check_resistance_cap,
    compute_potentials_explicit,
    compute_profile,
    step_inequalities,
    tail_sum_check,
)
from .proofs import TARGET_K3, TARGET_OPTIMAL, BoundTrace, prove_k3, prove_optimal


def _err(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)


def _resolve(target: str) -> tuple[IntersectionArray, CatalogEntry | None]:
    """An argument with a ';' is array text; anything else is a catalog name."""
    if ";" in target:
        return parse_array(target), None
    entry = lookup(target)
    if entry is None:
        raise LookupError(
            f"unknown catalog name {target!r} (try `drg catalog list`)"
        )
    return entry.array, entry


# ----------------------------------------------------------------------
# validate / analyze: one record, rendered as JSON or as text

# The six feasibility checks: (ValidationReport attribute, text label).
_CHECKS = (
    ("condition_i", "condition (i)  b-sequence strictly then weakly decreasing"),
    ("condition_ii", "condition (ii) c-sequence weakly increasing from 1"),
    ("condition_iii", "condition (iii) b_i >= c_j for i+j <= D"),
    ("integral_spheres", "integral sphere sizes"),
    ("nonnegative_a", "nonnegative a_i"),
    ("handshake_even", "handshake (n*k even)"),
)


def _fields(obj, *names: str) -> dict:
    """The named attributes of `obj`, in the order given (the JSON key order)."""
    return {name: getattr(obj, name) for name in names}


def _record(
    arr: IntersectionArray, entry: CatalogEntry | None, analyze: bool, prove: str | None
) -> dict:
    """The report on one array, with Fraction and BoundTrace values left as they are.

    Keys are in JSON output order.  The analysis keys (from "derived" on)
    are present only when `analyze` is set and the validation passed.
    """
    report = validate(arr)
    validation = _fields(report, *(key for key, _ in _CHECKS), "k_ge_3", "b1_ge_2", "passed")
    validation["failures"] = report.failure_messages()
    record = {
        "array": format_array(arr),
        "name": entry.name if entry else None,
        "validation": validation,
    }
    if not (analyze and report.passed):
        return record

    params = derive_from(report)
    profile = compute_profile(params)
    cap, cap_holds = check_resistance_cap(profile)
    tail = tail_sum_check(profile)
    record["derived"] = _fields(params, "k", "n", "D", "a", "sphere_sizes", "j")
    record["potentials"] = {
        "phi": profile.phi,
        "methods_agree": compute_potentials_explicit(params) == profile.phi,
    }
    record["resistances"] = profile.resistances
    record["ratio"] = profile.ratio
    record["k_effective"] = profile.k_effective
    record["resistance_cap"] = {"bound": cap, "holds": cap_holds}
    record["tail_bound"] = _fields(tail, "j", "lhs", "rhs", "holds")
    if params.D >= 2 and arr.bi(1) >= 2:
        record["step_inequalities"] = [
            _fields(s, "kind", "i", "phi_i", "bound", "holds") for s in step_inequalities(profile)
        ]
    else:
        record["step_inequalities"] = None
    record["trace"] = None
    if prove:
        prover = prove_k3 if prove == "k3" else prove_optimal
        try:
            trace = prover(profile)
            trace.render()  # str() refuses an integer of more than 4300 digits
        except ValueError as exc:
            record["trace_note"] = str(exc)
        else:
            record["trace"] = trace
    return record


def _json_default(x):
    """json.dumps hook: a rational as {"num", "den"} strings, a trace as a dict."""
    if isinstance(x, Fraction):
        return {"num": str(x.numerator), "den": str(x.denominator)}
    if isinstance(x, BoundTrace):
        return {
            "case_id": x.case_id.value,
            **_fields(x, "branch", "alpha", "target", "rho"),
            "steps": [_fields(s, "label", "lhs", "relation", "rhs", "holds") for s in x.steps],
            **_fields(x, "verdict", "extremal", "proof_path_available", "assumption_dependent"),
            "notes": x.notes,
        }
    raise TypeError(f"{type(x).__name__} is not JSON serializable")


def _text_lines(record: dict, prove: str | None):
    """The lines of a record's text form."""

    def mark(ok: bool, yes: str = "ok") -> str:
        return yes if ok else "FAIL"

    yn = lambda flag: "yes" if flag else "no"

    if record["name"] is not None:
        yield f"name: {record['name']}"
    yield f"array: {record['array']}"
    v = record["validation"]
    yield f"validation: {mark(v['passed'], 'PASS')}"
    for key, label in _CHECKS:
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
        f"max-resistance cap: r_D = {approx_str(record['resistances'][-1])} "
        f"< 4/k = {approx_str(cap['bound'])} [{mark(cap['holds'], 'OK')}]"
    )
    tail = record["tail_bound"]
    yield (
        f"tail bound (j={tail['j']}): {approx_str(tail['lhs'])} <= {approx_str(tail['rhs'])} "
        f"[{mark(tail['holds'], 'OK')}]"
    )
    if record["step_inequalities"] is None:
        yield "step inequalities: skipped (require D >= 2 and b_1 >= 2)"
    else:
        yield "step inequalities:"
        for s in record["step_inequalities"]:
            yield (
                f"  {s['kind']}[{s['i']}]: {approx_str(s['phi_i'])} < {approx_str(s['bound'])} "
                f"[{mark(s['holds'], 'OK')}]"
            )
    if record["trace"] is not None:
        yield f"proof trace ({prove}):"
        for line in record["trace"].render().splitlines():
            yield f"  {line}"
    elif "trace_note" in record:
        yield f"proof trace: unavailable ({record['trace_note']})"


def _report(args, analyze: bool) -> int:
    try:
        arr, entry = _resolve(args.target)
    except (ArrayFormatError, LookupError) as exc:
        _err(str(exc))
        return 2
    prove = args.prove if analyze else None
    try:  # str() refuses an integer of more than 4300 digits
        record = _record(arr, entry, analyze, prove)
        if args.json:
            out = json.dumps(record, indent=2, default=_json_default)
        else:
            out = "\n".join(_text_lines(record, prove))
    except ValueError as exc:
        _err(f"the report cannot be printed: {exc}")
        return 2
    print(out)
    return 0 if record["validation"]["passed"] else 3


def cmd_validate(args) -> int:
    return _report(args, analyze=False)


def cmd_analyze(args) -> int:
    return _report(args, analyze=True)


# ----------------------------------------------------------------------
# table / catalog

def cmd_table(args) -> int:
    entries = [
        e
        for e in catalog_list()
        if not e.supplementary or (args.extras and e.paper_ratio is None)
    ]
    rows = []
    for e in entries:
        marks = []
        if e.extremal:
            marks.append("extremal")
        if not e.ratio_matches_stored():
            marks.append(f"MISMATCH(stored {e.paper_ratio})")
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
    headers = ("Name", "Vertices", "Intersection array", "rho", "rho (6 dp)", "")
    widths = [
        max(len(headers[col]), *(len(r[col]) for r in rows)) for col in range(6)
    ]
    print("  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip())
    for r in rows:
        print("  ".join(v.ljust(w) for v, w in zip(r, widths)).rstrip())
    return 0


def cmd_catalog(args) -> int:
    if args.action != "list":
        _err(f"unknown catalog action {args.action!r}")
        return 2
    entries = catalog_list()
    widths = (
        max(len(e.slug) for e in entries),
        max(len(e.name) for e in entries),
        max(len(str(e.vertices)) for e in entries),
        max(len(format_array(e.array)) for e in entries),
    )
    for e in entries:
        note = "supplementary" if e.supplementary else "table row"
        if e.extremal:
            note += ", extremal"
        if e.constructible:
            note += f", constructible ({e.constructible})"
        print(
            f"{e.slug.ljust(widths[0])}  {e.name.ljust(widths[1])}  "
            f"{str(e.vertices).rjust(widths[2])}  "
            f"{format_array(e.array).ljust(widths[3])}  {note}"
        )
    return 0


# ----------------------------------------------------------------------
# oracle

def _oracle_one(g) -> bool:
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
            f"   d={cls.distance}: formula {approx_str(cls.expected)} "
            f"vs solver, {cls.pairs_checked} pair(s) [{status}]"
        )
        for u, v, got in cls.mismatches[:5]:
            print(f"      mismatch at ({u},{v}): solver {approx_str(got)}")
    print(f"   result: {'PASS' if result.ok else 'FAIL'}")
    return result.ok


def cmd_oracle(args) -> int:
    selectors = (("NAME", args.name), ("--all", args.all), ("--graph-file", args.graph_file))
    given = [flag for flag, value in selectors if value]
    if not given:
        _err("oracle needs a construction name, --all, or --graph-file")
        return 2
    if len(given) > 1:
        _err(f"oracle takes one of NAME, --all and --graph-file; got {' and '.join(given)}")
        return 2
    if args.param is not None and not args.name:  # only the three families take a parameter
        _err(f"--param applies to one construction; it cannot be combined with {given[0]}")
        return 2

    if args.graph_file:
        try:
            with open(args.graph_file, encoding="utf-8") as fh:
                g = parse_edge_list(fh.read(), name=args.graph_file)
        except OSError as exc:
            _err(f"cannot read graph file: {exc}")
            return 2
        except ValueError as exc:
            _err(str(exc))
            return 2
        return 0 if _oracle_one(g) else 1

    if args.all:
        names = registry_names()
    elif args.name in registry_names():
        names = (args.name,)
    else:
        _err(f"unknown construction {args.name!r}; known: {', '.join(registry_names())}")
        return 2

    passed = 0
    for name in names:
        try:
            g = construct(name, args.param)
        except ValueError as exc:
            _err(str(exc))
            return 2
        if _oracle_one(g):
            passed += 1
    print(f"oracle summary: {passed}/{len(names)} PASS")
    return 0 if passed == len(names) else 1


# ----------------------------------------------------------------------
# batch

def cmd_batch(args) -> int:
    try:
        with open(args.file, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        _err(f"cannot read batch file: {exc}")
        return 2

    # the ratio targets as printed: 93/100, 0.93 and 2
    opt, opt_dec = frac_str(TARGET_OPTIMAL), decimal_str(TARGET_OPTIMAL, 2)
    k3 = decimal_str(TARGET_K3, 0)
    total = valid = invalid = below_opt = below_2 = 0
    extremal_entries: list[str] = []
    for lineno, label, array_text in named_array_lines(lines):
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
            reasons = "; ".join(report.failure_messages())
            print(f"line {lineno}: {label}: INVALID ({reasons})")
            continue
        valid += 1
        rho = compute_profile(derive_from(report)).ratio
        lt_opt = rho < TARGET_OPTIMAL
        lt_2 = rho < TARGET_K3
        below_opt += lt_opt
        below_2 += lt_2
        if not lt_opt:
            extremal_entries.append(f"{label} (rho = {frac_str(rho)})")
        yn = lambda flag: "yes" if flag else "NO"
        print(
            f"line {lineno}: {label}: valid rho={approx_str(rho)} "
            f"[rho<{opt_dec} {yn(lt_opt)}] [rho<{k3} {yn(lt_2)}]"
        )
    print(
        f"batch summary: {total} entr{'y' if total == 1 else 'ies'}, "
        f"{valid} valid, {invalid} invalid"
    )
    print(f"  rho < {opt}: {below_opt}")
    print(f"  rho < {k3}: {below_2}")
    if extremal_entries:
        print(f"  extremal entries (rho >= {opt}): " + "; ".join(extremal_entries))
    return 0 if below_2 == valid else 1


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
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("analyze", help="full exact analysis of one array")
    p.add_argument("target", help="array text or catalog name")
    p.add_argument("--prove", choices=("k3", "optimal"))
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_analyze)

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
    except CatalogError as exc:
        _err(str(exc))
        return 2


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
