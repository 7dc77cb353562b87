"""Command-line interface.

Subcommands: validate, analyze, table, oracle, batch, catalog.
Exit codes: 0 success, 1 failed checks, 2 unparseable input or unknown
name, 3 validation failure (the report is still printed).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .arrays import (
    ArrayFormatError,
    IntersectionArray,
    derive,
    format_array,
    parse_array,
    validate,
)
from .catalog import CatalogEntry, CatalogError, catalog_list, lookup, named_array_lines
from .fmt import approx_str, decimal_str, frac_str
from .graphs import construct, parse_edge_list, registry_names, verify_drg
from .oracle import cross_validate
from .potentials import (
    PotentialProfile,
    check_resistance_cap,
    compute_potentials_explicit,
    compute_profile,
    step_inequalities,
    tail_sum_check,
)
from .proofs import BoundTrace, prove_k3, prove_optimal


def _q(x: Fraction) -> dict:
    return {"num": str(x.numerator), "den": str(x.denominator)}


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
# validate / analyze

def _validation_json(report) -> dict:
    return {
        "condition_i": report.condition_i,
        "condition_ii": report.condition_ii,
        "condition_iii": report.condition_iii,
        "integral_spheres": report.integral_spheres,
        "nonnegative_a": report.nonnegative_a,
        "handshake_even": report.handshake_even,
        "k_ge_3": report.k_ge_3,
        "b1_ge_2": report.b1_ge_2,
        "passed": report.passed,
        "failures": list(report.failure_messages()),
    }


def _print_validation(report) -> None:
    def mark(ok: bool) -> str:
        return "ok" if ok else "FAIL"

    print(f"validation: {'PASS' if report.passed else 'FAIL'}")
    print(f"  condition (i)  b-sequence strictly then weakly decreasing: {mark(report.condition_i)}")
    print(f"  condition (ii) c-sequence weakly increasing from 1: {mark(report.condition_ii)}")
    print(f"  condition (iii) b_i >= c_j for i+j <= D: {mark(report.condition_iii)}")
    print(f"  integral sphere sizes: {mark(report.integral_spheres)}")
    print(f"  nonnegative a_i: {mark(report.nonnegative_a)}")
    print(f"  handshake (n*k even): {mark(report.handshake_even)}")
    yn = lambda flag: "yes" if flag else "no"
    print(f"  flags: k>=3 {yn(report.k_ge_3)}; b1>=2 {yn(report.b1_ge_2)}")
    for message in report.failure_messages():
        print(f"  ! {message}")


def _trace_json(trace: BoundTrace) -> dict:
    return {
        "case_id": trace.case_id.value,
        "branch": trace.branch,
        "alpha": _q(trace.alpha) if trace.alpha is not None else None,
        "target": _q(trace.target),
        "rho": _q(trace.rho),
        "steps": [
            {
                "label": s.label,
                "lhs": _q(s.lhs),
                "relation": s.relation,
                "rhs": _q(s.rhs),
                "holds": s.holds,
            }
            for s in trace.steps
        ],
        "verdict": trace.verdict,
        "extremal": trace.extremal,
        "proof_path_available": trace.proof_path_available,
        "assumption_dependent": trace.assumption_dependent,
        "notes": list(trace.notes),
    }


def _analysis_sections(profile: PotentialProfile, explicit_ok: bool) -> None:
    params = profile.params
    print(f"derived: k={params.k}  n={params.n}  D={params.D}  j={params.j}")
    print(f"  a_i: {','.join(map(str, params.a))}")
    print(f"  sphere sizes: {','.join(map(str, params.sphere_sizes))}")
    print("potentials: " + ", ".join(str(x) for x in profile.phi))
    print(f"  recursion == closed form: {'ok' if explicit_ok else 'FAIL'}")
    print("resistances:")
    for d, r in enumerate(profile.resistances, start=1):
        print(f"  r_{d} = {approx_str(r)}")
    print(f"rho: {approx_str(profile.ratio)}")
    print(f"k_effective: {approx_str(profile.k_effective)}")
    cap, cap_holds = check_resistance_cap(profile)
    print(
        f"max-resistance cap: r_D = {approx_str(profile.resistances[-1])} "
        f"< 4/k = {approx_str(cap)} [{'OK' if cap_holds else 'FAIL'}]"
    )
    tail = tail_sum_check(profile)
    print(
        f"tail bound (j={tail.j}): {approx_str(tail.lhs)} <= {approx_str(tail.rhs)} "
        f"[{'OK' if tail.holds else 'FAIL'}]"
    )
    if params.D >= 2 and params.array.bi(1) >= 2:
        print("step inequalities:")
        for s in step_inequalities(profile):
            print(
                f"  {s.kind}[{s.i}]: {approx_str(s.phi_i)} < {approx_str(s.bound)} "
                f"[{'OK' if s.holds else 'FAIL'}]"
            )
    else:
        print("step inequalities: skipped (require D >= 2 and b_1 >= 2)")


def cmd_validate(args) -> int:
    try:
        arr, entry = _resolve(args.target)
    except (ArrayFormatError, LookupError) as exc:
        _err(str(exc))
        return 2
    report = validate(arr)
    if args.json:
        payload = {
            "array": format_array(arr),
            "name": entry.name if entry else None,
            "validation": _validation_json(report),
        }
        print(json.dumps(payload, indent=2))
    else:
        if entry:
            print(f"name: {entry.name}")
        print(f"array: {format_array(arr)}")
        _print_validation(report)
    return 0 if report.passed else 3


def cmd_analyze(args) -> int:
    try:
        arr, entry = _resolve(args.target)
    except (ArrayFormatError, LookupError) as exc:
        _err(str(exc))
        return 2
    report = validate(arr)
    payload: dict = {
        "array": format_array(arr),
        "name": entry.name if entry else None,
        "validation": _validation_json(report),
    }
    if not report.passed:
        if args.json:
            print(json.dumps(payload, indent=2))
        else:
            if entry:
                print(f"name: {entry.name}")
            print(f"array: {format_array(arr)}")
            _print_validation(report)
        return 3

    params = derive(arr)
    profile = compute_profile(params)
    explicit_ok = compute_potentials_explicit(params) == profile.phi
    cap, cap_holds = check_resistance_cap(profile)
    tail = tail_sum_check(profile)

    trace = None
    trace_note = None
    if args.prove:
        prover = prove_k3 if args.prove == "k3" else prove_optimal
        try:
            trace = prover(profile)
        except ValueError as exc:
            trace_note = str(exc)

    if args.json:
        payload["derived"] = {
            "k": params.k,
            "n": params.n,
            "D": params.D,
            "a": list(params.a),
            "sphere_sizes": list(params.sphere_sizes),
            "j": params.j,
        }
        payload["potentials"] = {
            "phi": [_q(x) for x in profile.phi],
            "methods_agree": explicit_ok,
        }
        payload["resistances"] = [_q(r) for r in profile.resistances]
        payload["ratio"] = _q(profile.ratio)
        payload["k_effective"] = _q(profile.k_effective)
        payload["resistance_cap"] = {"bound": _q(cap), "holds": cap_holds}
        payload["tail_bound"] = {
            "j": tail.j,
            "lhs": _q(tail.lhs),
            "rhs": _q(tail.rhs),
            "holds": tail.holds,
        }
        if params.D >= 2 and arr.bi(1) >= 2:
            payload["step_inequalities"] = [
                {
                    "kind": s.kind,
                    "i": s.i,
                    "phi_i": _q(s.phi_i),
                    "bound": _q(s.bound),
                    "holds": s.holds,
                }
                for s in step_inequalities(profile)
            ]
        else:
            payload["step_inequalities"] = None
        payload["trace"] = _trace_json(trace) if trace else None
        if trace_note:
            payload["trace_note"] = trace_note
        print(json.dumps(payload, indent=2))
        return 0

    if entry:
        print(f"name: {entry.name}")
    print(f"array: {format_array(arr)}")
    _print_validation(report)
    _analysis_sections(profile, explicit_ok)
    if trace is not None:
        print(f"proof trace ({args.prove}):")
        for line in trace.render().splitlines():
            print(f"  {line}")
    elif trace_note is not None:
        print(f"proof trace: unavailable ({trace_note})")
    return 0


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
        try:
            violations = verify_drg(g).violations
        except ValueError:  # disconnected or a single vertex
            violations = ()
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
    if args.graph_file:
        try:
            with open(args.graph_file, encoding="utf-8") as fh:
                g = parse_edge_list(fh.read(), name=args.name or args.graph_file)
        except OSError as exc:
            _err(f"cannot read graph file: {exc}")
            return 2
        except ValueError as exc:
            _err(str(exc))
            return 2
        return 0 if _oracle_one(g) else 1

    if args.all:
        names = registry_names()
    elif args.name:
        if args.name not in registry_names():
            _err(
                f"unknown construction {args.name!r}; "
                f"known: {', '.join(registry_names())}"
            )
            return 2
        names = (args.name,)
    else:
        _err("oracle needs a construction name, --all, or --graph-file")
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

    total = valid = invalid = below_opt = below_2 = 0
    extremal_entries: list[str] = []
    all_valid_below_2 = True
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
        profile = compute_profile(derive(arr))
        rho = profile.ratio
        lt_opt = rho < Fraction(93, 100)
        lt_2 = rho < 2
        below_opt += lt_opt
        below_2 += lt_2
        if not lt_2:
            all_valid_below_2 = False
        if not lt_opt:
            extremal_entries.append(f"{label} (rho = {frac_str(rho)})")
        yn = lambda flag: "yes" if flag else "NO"
        print(
            f"line {lineno}: {label}: valid rho={approx_str(rho)} "
            f"[rho<0.93 {yn(lt_opt)}] [rho<2 {yn(lt_2)}]"
        )
    print(
        f"batch summary: {total} entr{'y' if total == 1 else 'ies'}, "
        f"{valid} valid, {invalid} invalid"
    )
    print(f"  rho < 93/100: {below_opt}")
    print(f"  rho < 2: {below_2}")
    if extremal_entries:
        print("  extremal entries (rho >= 93/100): " + "; ".join(extremal_entries))
    return 0 if all_valid_below_2 else 1


# ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
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
