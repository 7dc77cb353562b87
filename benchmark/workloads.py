"""The three workloads: what one operation runs and how its result is checked.

`run(item)` is the timed operation.  `check(item, result)` compares the
result with the reference, outside the timed region, and returns an
error message or None.  Program functions are looked up through their
module at call time (`self.drg.arrays.parse_array`), so the traced run's
wrappers are the ones called.
"""

from __future__ import annotations

import io
import json
import random
import re
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction

import inputs
import reference as ref


def compare_profile(e: ref.Profile, n, phi, resistances, rho, k_effective) -> str | None:
    """First difference between computed values and the reference profile."""
    if e.arr == ref.BIGGS_SMITH and rho != ref.BIGGS_SMITH_RATIO:
        return f"Biggs-Smith rho {rho} != {ref.BIGGS_SMITH_RATIO}"
    for label, got, want in (
        ("n", n, e.n),
        ("phi", tuple(phi), e.phi),
        ("resistances", tuple(resistances), e.resistances),
        ("rho", rho, e.rho),
        ("k_effective", k_effective, 1 + e.rho),
    ):
        if got != want:
            return f"{label} {got} != reference {want}"
    return None


def expected_verdict(e: ref.Profile, prove: str) -> bool:
    return e.verdict_k3 if prove == "k3" else e.verdict_optimal


class ArraySweep:
    """Array text through parse_array -> validate -> derive -> compute_profile
    -> prove_k3 -> prove_optimal.

    Covers arrays, potentials and proofs across D (condition (iii) is
    O(D^2)) and the bit size of n; never reaches graphs, linalg, oracle
    or catalog lookups, so a solver or catalog change must not move it.
    """

    name = "array-sweep"
    tail_pct = 99

    def __init__(self, drg, seed: int, workdir) -> None:
        self.drg = drg
        self.items = inputs.array_sweep(seed)

    def pass_items(self, index: int) -> list:
        return self.items

    def run(self, item):
        arrays, d = self.drg.arrays, self.drg
        try:
            arr = arrays.parse_array(item[0])
        except arrays.ArrayFormatError:
            return "malformed"
        if not arrays.validate(arr).passed:
            return "infeasible"
        profile = d.potentials.compute_profile(arrays.derive(arr))
        return profile, d.proofs.prove_k3(profile), d.proofs.prove_optimal(profile)

    def check(self, item, result) -> str | None:
        text, expected = item
        if isinstance(expected, str) or isinstance(result, str):
            if result == expected:
                return None
            got = result if isinstance(result, str) else "feasible"
            want = expected if isinstance(expected, str) else "feasible"
            return f"{text!r}: expected {want}, got {got}"
        profile, k3, optimal = result
        error = compare_profile(
            expected, profile.params.n, profile.phi, profile.resistances,
            profile.ratio, profile.k_effective,
        )
        if error is None and k3.verdict != expected.verdict_k3:
            error = f"prove_k3 verdict {k3.verdict}"
        if error is None and optimal.verdict != expected.verdict_optimal:
            error = f"prove_optimal verdict {optimal.verdict}"
        return error and f"{text!r}: {error}"

    def op_counts(self, result) -> dict:
        return {}

    def context(self) -> dict:
        kinds = [e if isinstance(e, str) else "feasible" for _, e in self.items]
        return {kind: kinds.count(kind) for kind in ("feasible", "malformed", "infeasible")}


@dataclass(frozen=True)
class GraphInput:
    name: str
    param: int | None
    arr: ref.Array
    n: int
    edges: tuple
    certified: bool  # the reference BFS finds `arr` in these edges

    @property
    def label(self) -> str:
        return self.name if self.param is None else f"{self.name}:{self.param}"


class OracleRegistry:
    """One graph through construct -> parse_edge_list -> verify_drg -> cross_validate.

    The O(n^3) Fraction elimination in linalg dominates.  Sparse (k = 3)
    and dense (k = n - 2) Laplacians on both sides of the 30-vertex
    sampling threshold, so a column-only or sampled-pairs solve moves
    only the n > 30 graphs.  Each pass relabels every graph by a fresh
    seeded permutation: the answers stay fixed, the pivot order changes.
    The op order is seeded once, so op i is the same graph in every pass.
    """

    name = "oracle-registry"
    tail_pct = 90

    def __init__(self, drg, seed: int, workdir) -> None:
        self.drg = drg
        self.seed = seed
        self.graphs = []
        for name, param, arr in inputs.ORACLE_GRAPHS:
            g = drg.graphs.construct(name, param)
            certified = ref.intersection_array_of(g.n, g.edges) == arr
            self.graphs.append(GraphInput(name, param, arr, g.n, tuple(g.edges), certified))
        random.Random(seed).shuffle(self.graphs)  # op order; the same in every pass
        self.profiles = {g.label: ref.profile(g.arr) for g in self.graphs}

    def pass_items(self, index: int) -> list:
        rng = random.Random(f"{self.seed}:{index}")
        return [(g, inputs.relabelled(g.edges, g.n, rng)) for g in self.graphs]

    def run(self, item):
        g_in, text = item
        graphs = self.drg.graphs
        built = graphs.construct(g_in.name, g_in.param)
        g = graphs.parse_edge_list(text, name=g_in.label, claimed=ref.array_text(g_in.arr))
        report = graphs.verify_drg(g)
        return built, g, report, self.drg.oracle.cross_validate(g)

    def check(self, item, result) -> str | None:
        g_in = item[0]
        built, g, report, cv = result
        label = g_in.label
        if not g_in.certified:
            return f"{label}: construction does not realise {ref.array_text(g_in.arr)}"
        if built.n != g_in.n or tuple(built.edges) != g_in.edges:
            return f"{label}: construct() is not deterministic"
        if (g.n, len(g.edges)) != (g_in.n, len(g_in.edges)):
            return f"{label}: parsed n={g.n}, m={len(g.edges)}"
        observed = report.observed_array
        if not report.is_drg or (observed.b, observed.c) != g_in.arr:
            return f"{label}: verify_drg observed {observed}"
        if not cv.ok:
            return f"{label}: cross_validate reports a mismatch"
        e = self.profiles[label]
        sizes = ref.sphere_sizes(g_in.arr)
        if len(cv.classes) != len(g_in.arr[0]):
            return f"{label}: {len(cv.classes)} distance classes"
        for cls in cv.classes:
            d = cls.distance
            if cls.expected != e.resistances[d - 1]:
                return f"{label}: r_{d} {cls.expected} != reference {e.resistances[d - 1]}"
            if not 0 < cls.pairs_checked <= g_in.n * sizes[d] // 2:
                return f"{label}: {cls.pairs_checked} pairs checked at d={d}"
        return None

    def op_counts(self, result) -> dict:
        return {}

    def context(self) -> dict:
        return {"graphs": [[g.label, g.n, len(g.edges)] for g in self.graphs]}


def _frac(q: dict) -> Fraction:
    return Fraction(int(q["num"]), int(q["den"]))


class CliSession:
    """In-process drg.cli.main(argv) with stdout and stderr captured.

    The only workload through catalog.lookup and the cli renderers: a
    by-name analyze rebuilds the catalog, so a catalog cache shows here
    and not on array-sweep.  The error cases take the same layers
    through their rejection paths.
    """

    name = "cli-session"
    tail_pct = 98

    def __init__(self, drg, seed: int, workdir) -> None:
        self.drg = drg

        def edges_of(name, param):
            g = drg.graphs.construct(name, param)
            return g.n, g.edges

        self.items = inputs.cli_session(seed, workdir, edges_of)

    def pass_items(self, index: int) -> list:
        return self.items

    def run(self, item):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = self.drg.cli.main(list(item[0]))
            except SystemExit as exc:  # argparse rejections
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    def op_counts(self, result) -> dict:
        return {"cli.stdout_bytes": len(result[1].encode("utf-8"))}

    def check(self, item, result) -> str | None:
        argv, expected = item
        error = self._check(expected, *result)
        return error and f"drg {' '.join(argv)}: {error}"

    def _check(self, expected, code, out, err) -> str | None:
        kind = expected["kind"]
        want = expected.get("code", 0)
        if code != want:
            return f"exit {code}, expected {want}; stderr {err.strip()[:200]!r}"
        if kind == "error":
            return None if code != 2 or err.strip() else "no message on stderr"
        return getattr(self, f"_check_{kind}")(expected, out)

    def _check_analyze(self, expected, out) -> str | None:
        e = expected["ref"]
        if expected["json"]:
            payload = json.loads(out)
            error = compare_profile(
                e,
                payload["derived"]["n"],
                [_frac(q) for q in payload["potentials"]["phi"]],
                [_frac(q) for q in payload["resistances"]],
                _frac(payload["ratio"]),
                _frac(payload["k_effective"]),
            )
            verdict = payload["trace"]["verdict"] if expected["prove"] else None
        else:
            fields = {
                key: re.search(pattern, out, re.M)
                for key, pattern in (
                    ("n", r"^derived: k=\d+  n=(\d+) "),
                    ("phi", r"^potentials: (.*)$"),
                    ("rho", r"^rho: (\S+) "),
                    ("k_effective", r"^k_effective: (\S+) "),
                )
            }
            missing = [key for key, found in fields.items() if found is None]
            if missing:
                return f"no {', '.join(missing)} in the output"
            error = compare_profile(
                e,
                int(fields["n"][1]),
                [Fraction(x) for x in fields["phi"][1].split(", ")],
                [Fraction(r) for r in re.findall(r"^  r_\d+ = (\S+) ", out, re.M)],
                Fraction(fields["rho"][1]),
                Fraction(fields["k_effective"][1]),
            )
            found = re.search(r"^  verdict: (OK|FAIL)$", out, re.M)
            verdict = found and found[1] == "OK"
        if error is None and expected["prove"] and verdict != expected_verdict(e, expected["prove"]):
            error = f"{expected['prove']} verdict {verdict}"
        return error

    def _check_validate(self, expected, out) -> str | None:
        if expected["json"]:
            passed = json.loads(out)["validation"]["passed"]
        else:
            passed = "validation: PASS" in out
        return None if passed else "validation did not pass"

    def _check_table(self, expected, out) -> str | None:
        lines = out.splitlines()
        tokens = set(out.split())
        if len(lines) != 1 + len(expected["profiles"]):
            return f"{len(lines)} table lines"
        for slug, e in expected["profiles"].items():
            if f"{e.rho.numerator}/{e.rho.denominator}" not in tokens:
                return f"{slug}: rho {e.rho} missing"
        return None

    def _check_catalog(self, expected, out) -> str | None:
        slugs = sorted(line.split()[0] for line in out.splitlines())
        return None if slugs == sorted(s for s, _ in inputs.CATALOG) else "catalog slugs differ"

    def _check_batch(self, expected, out) -> str | None:
        want = expected["summary"]
        counts = re.search(r"(\d+) entr(?:y|ies), (\d+) valid, (\d+) invalid", out)
        below_opt = re.search(r"rho < 93/100: (\d+)", out)
        below_2 = re.search(r"rho < 2: (\d+)", out)
        if not (counts and below_opt and below_2):
            return "no batch summary"
        got = {
            "total": int(counts[1]), "valid": int(counts[2]), "invalid": int(counts[3]),
            "below_opt": int(below_opt[1]), "below_2": int(below_2[1]),
        }
        wanted = {k: want[k] for k in got}
        return None if got == wanted else f"summary {got} != reference {wanted}"

    def _check_oracle(self, expected, out) -> str | None:
        e = expected["ref"]
        found = re.findall(r"d=(\d+): formula (\d+)/(\d+) ", out)
        got = tuple(Fraction(int(p), int(q)) for _, p, q in found)
        if got != e.resistances:
            return f"formula values {got} != reference {e.resistances}"
        observed = re.search(r"observed array: (\S+)", out)
        if observed is None or observed[1] != ref.array_text(expected["arr"]):
            return "observed array differs"
        return None if "result: PASS" in out else "oracle did not pass"

    def context(self) -> dict:
        kinds = [e["kind"] for _, e in self.items]
        return {kind: kinds.count(kind) for kind in sorted(set(kinds))}


WORKLOADS = {w.name: w for w in (ArraySweep, OracleRegistry, CliSession)}
