"""Seeded input generator for the three workloads.

Every input is made here, from the seed, before timing starts; the
program only ever sees the generated texts, edge lists and argv lists.
The same seed always gives the same inputs.  Counts per kind are fixed
and only the choices within a kind and the order depend on the seed, so
that different seeds cost about the same.
"""

from __future__ import annotations

import random
from itertools import product
from pathlib import Path

import reference as ref

# The 23 table rows and 3 supplementary rows of the embedded catalog, by
# CLI slug.  Kept here rather than read from drg so the workload does not
# change when the catalog's code does.
CATALOG = (
    ("cube", "3,2,1;1,2,3"),
    ("heawood", "3,2,2;1,1,3"),
    ("pappus", "3,2,2,1;1,1,2,3"),
    ("coxeter", "3,2,2,1;1,1,1,2"),
    ("tuttes-8-cage", "3,2,2,2;1,1,1,3"),
    ("dodecahedron", "3,2,1,1,1;1,1,1,2,3"),
    ("desargues", "3,2,2,1,1;1,1,2,2,3"),
    ("tuttes-12-cage", "3,2,2,2,2,2;1,1,1,1,1,3"),
    ("biggs-smith", "3,2,2,2,1,1,1;1,1,1,1,1,1,3"),
    ("foster", "3,2,2,2,2,1,1,1;1,1,1,1,2,2,2,3"),
    ("k-5-5-minus-a-matching", "4,3,1;1,3,4"),
    ("nonincidence-graph-of-pg-2-2", "4,3,2;1,2,4"),
    ("line-graph-of-petersen", "4,2,1;1,1,4"),
    ("4-cube", "4,3,2,1;1,2,3,4"),
    ("flag-graph-of-pg-2-2", "4,2,2;1,1,2"),
    ("incidence-graph-of-pg-2-3", "4,3,3;1,1,4"),
    ("incidence-graph-of-ag-2-4-p-c", "4,3,3,1;1,1,3,4"),
    ("odd-graph-o-4", "4,3,3;1,1,2"),
    ("flag-graph-of-gq-2-2", "4,2,2,2;1,1,1,2"),
    ("doubled-odd", "4,3,3,2,2,1,1;1,1,2,2,3,3,4"),
    ("incidence-graph-of-gq-3-3", "4,3,3,3;1,1,1,4"),
    ("flag-graph-of-gh-2-2", "4,2,2,2,2,2;1,1,1,1,1,2"),
    ("incidence-graph-of-gh-3-3", "4,3,3,3,3,3;1,1,1,1,1,4"),
    ("complete-graph-k-4", "3;1"),
    ("petersen", "3,2;1,1"),
    ("octahedron", "4,1;1,4"),
)

# Registry constructions: (name, parameter, expected array).  The 13
# registry graphs at their default parameters, then larger members of
# the parameterised families: sparse (k = 3) and dense (k = n - 2)
# Laplacians on both sides of the oracle's 30-vertex sampling threshold.
ORACLE_GRAPHS = (
    ("complete", None, ref.complete(4)),
    ("cocktail_party", None, ref.cocktail_party(3)),
    ("hypercube", None, ref.hamming(3, 2)),
    ("petersen", None, ((3, 2), (1, 1))),
    ("line_of_petersen", None, ((4, 2, 1), (1, 1, 4))),
    ("heawood", None, ((3, 2, 2), (1, 1, 3))),
    ("pappus", None, ((3, 2, 2, 1), (1, 1, 2, 3))),
    ("coxeter", None, ((3, 2, 2, 1), (1, 1, 1, 2))),
    ("tutte_8cage", None, ((3, 2, 2, 2), (1, 1, 1, 3))),
    ("dodecahedron", None, ((3, 2, 1, 1, 1), (1, 1, 1, 2, 3))),
    ("desargues", None, ((3, 2, 2, 1, 1), (1, 1, 2, 2, 3))),
    ("crown_5", None, ((4, 3, 1), (1, 3, 4))),
    ("nonincidence_pg22", None, ((4, 3, 2), (1, 2, 4))),
    ("hypercube", 4, ref.hamming(4, 2)),
    ("hypercube", 5, ref.hamming(5, 2)),
    ("hypercube", 6, ref.hamming(6, 2)),
    ("cocktail_party", 16, ref.cocktail_party(16)),
    ("complete", 24, ref.complete(24)),
)

# Registry graphs small enough (n <= 15) for an interactive CLI call.
CLI_ORACLE_NAMES = (
    ("petersen", None, ((3, 2), (1, 1))),
    ("crown_5", None, ((4, 3, 1), (1, 3, 4))),
    ("heawood", None, ((3, 2, 2), (1, 1, 3))),
    ("line_of_petersen", None, ((4, 2, 1), (1, 1, 4))),
    ("complete", 5, ref.complete(5)),
    ("cocktail_party", 4, ref.cocktail_party(4)),
)
CLI_GRAPH_FILES = (
    ("petersen", None, ((3, 2), (1, 1))),
    ("crown_5", None, ((4, 3, 1), (1, 3, 4))),
    ("nonincidence_pg22", None, ((4, 3, 2), (1, 2, 4))),
    ("hypercube", 3, ref.hamming(3, 2)),
)

MAX_LOG2_N = 260  # family members stay below n = 2^260
MAX_B1 = 1200  # the proofs raise (b_1 - 1)/b_1 to the power b_1


def parse_text(text: str) -> ref.Array:
    left, right = text.split(";")
    return tuple(map(int, left.split(","))), tuple(map(int, right.split(",")))


# ----------------------------------------------------------------------
# arrays

def corpus() -> list[ref.Array]:
    """Every feasible array with D <= 4 in the shape the bounds are claimed for.

    The same enumeration as the test suite's corpus fixture (534 arrays):
    D = 1 up to k = 8, D = 2 and 3 up to k = 7, D = 4 up to k = 5, with
    b_1 >= 2 unless the array is a genuine cocktail party.
    """
    out = [((k,), (1,)) for k in range(3, 9)]
    for D, kmax in ((2, 7), (3, 7), (4, 5)):
        for k in range(3, kmax + 1):
            for bs in product(range(1, k), repeat=D - 1):
                if any(bs[i] < bs[i + 1] for i in range(D - 2)):
                    continue
                for cs in product(range(1, k + 1), repeat=D - 1):
                    if any(cs[i] > cs[i + 1] for i in range(D - 2)):
                        continue
                    cocktail = D == 2 and bs[0] == 1 and cs[0] == k
                    if bs[0] < 2 and not cocktail:
                        continue
                    arr = ((k,) + bs, (1,) + cs)
                    if ref.feasible(arr):
                        out.append(arr)
    return out


def families(rng: random.Random) -> list[tuple[str, ref.Array]]:
    """Hamming, Johnson and odd graphs over a fixed grid of diameters.

    The diameter grid is fixed and the seed picks the other parameter
    within each stratum, so every seed spans D = 4..60 and n up to about
    2^260, the two sizes the array side's cost grows with.
    """
    out = []
    for d in range(4, 61, 4):
        qmax = max(q for q in range(2, 2 + MAX_B1) if q**d < 2**MAX_LOG2_N and (d - 1) * (q - 1) <= MAX_B1)
        q = rng.randint(max(2, 3 * qmax // 4), qmax)
        out.append((f"H({d},{q})", ref.hamming(d, q)))
    for e in range(4, 41, 3):
        spare = max(0, MAX_B1 // (e - 1) + 1 - e)  # v - 2e keeping b_1 near MAX_B1
        v = 2 * e + rng.randint(3 * spare // 4, spare)
        out.append((f"J({v},{e})", ref.johnson(v, e)))
    for lo in range(5, 61, 6):
        m = rng.randint(lo, lo + 5)
        out.append((f"O_{m}", ref.odd(m)))
    return out


MALFORMING = (
    lambda t: t.replace(";", ","),  # no separator
    lambda t: t + ";1",  # two separators
    lambda t: t.replace(",", ",x", 1) if "," in t else "x" + t,  # bad token
    lambda t: "0," + t,  # zero entry
    lambda t: t.replace(";", ";-1,", 1),  # negative entry
    lambda t: t.split(";")[0] + ";2" + t.split(";")[1][1:],  # c_1 != 1
    lambda t: t + ",1",  # unequal lengths
    lambda t: t + ",",  # empty token
    lambda t: t.replace(";", ".0;", 1),  # not an integer
    lambda t: "",  # empty text
)


def malformed(rng: random.Random, texts: list[str], per_kind: int) -> list[str]:
    """Texts that break the `b0,...;c1,...` grammar, each by construction."""
    return [
        corrupt(rng.choice(texts))
        for corrupt in MALFORMING
        for _ in range(per_kind)
    ]


def infeasible(rng: random.Random, pool: list[ref.Array], count: int) -> list[ref.Array]:
    """Well-formed arrays that fail a feasibility condition: one entry moved by one."""
    out = []
    while len(out) < count:
        b, c = (list(side) for side in rng.choice(pool))
        pos = rng.randrange(len(b) + len(c) - 1)  # any entry but c_1
        side, idx = (b, pos) if pos < len(b) else (c, pos - len(b) + 1)
        side[idx] += rng.choice((-1, 1))
        arr = (tuple(b), tuple(c))
        if min(side) > 0 and not ref.feasible(arr):
            out.append(arr)
    return out


def array_sweep(seed: int) -> list[tuple]:
    """(text, expected) pairs; expected is a ref.Profile, "malformed" or "infeasible"."""
    rng = random.Random(seed)
    pool = corpus()
    feasible = pool + [parse_text(t) for _, t in CATALOG] + [a for _, a in families(rng)]
    items = [(ref.array_text(a), ref.profile(a)) for a in feasible]
    texts = [t for t, _ in items]
    items += [(t, "malformed") for t in malformed(rng, texts, per_kind=6)]
    items += [(ref.array_text(a), "infeasible") for a in infeasible(rng, pool, 60)]
    rng.shuffle(items)
    return items


# ----------------------------------------------------------------------
# graphs

def relabelled(edges, n: int, rng: random.Random) -> str:
    """The edge list under a random vertex permutation, one `u v` per line."""
    perm = list(range(n))
    rng.shuffle(perm)
    return "\n".join(f"{perm[u]} {perm[v]}" for u, v in edges) + "\n"


# ----------------------------------------------------------------------
# CLI session

def _batch_file(rng: random.Random, pool: list[ref.Array], path: Path) -> dict:
    """Write a batch file and return the expected summary counts."""
    lines = ["# generated batch input", ""]
    expected = {"total": 0, "valid": 0, "invalid": 0, "below_opt": 0, "below_2": 0}
    rows = [("arr", a) for a in rng.sample(pool, 24)]
    rows += [("named", parse_text(t)) for _, t in rng.sample(CATALOG, 6)]
    rows += [("malformed", t) for t in rng.sample(malformed(rng, [ref.array_text(a) for a in pool], 1), 5)]
    rows += [("infeasible", a) for a in infeasible(rng, pool, 5)]
    rng.shuffle(rows)
    for i, (kind, value) in enumerate(rows):
        text = value if kind == "malformed" else ref.array_text(value)
        if kind == "malformed" and (text == "" or "#" in text or "|" in text):
            continue  # blank or comment-like lines are not entries
        lines.append(f"row {i} | {text}" if kind == "named" else text)
        expected["total"] += 1
        if kind in ("malformed", "infeasible"):
            expected["invalid"] += 1
            continue
        p = ref.profile(value)
        expected["valid"] += 1
        expected["below_opt"] += p.rho < ref.TARGET_OPTIMAL
        expected["below_2"] += p.rho < ref.TARGET_K3
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return expected


def cli_session(seed: int, workdir: Path, edges_of) -> list[tuple[list[str], dict]]:
    """(argv, expected) pairs for `drg.cli.main`; files are written to workdir.

    edges_of(name, param) returns (n, edges) of a registry construction.
    """
    rng = random.Random(seed)
    pool = corpus()
    profiles = {slug: ref.profile(parse_text(t)) for slug, t in CATALOG}
    cmds: list[tuple[list[str], dict]] = []

    def flags(i: int) -> tuple[list[str], str | None, bool]:
        prove = (None, "k3", "optimal")[i % 3]
        as_json = i % 2 == 1
        argv = (["--prove", prove] if prove else []) + (["--json"] if as_json else [])
        return argv, prove, as_json

    for i, slug in enumerate(rng.sample([s for s, _ in CATALOG], 24)):
        extra, prove, as_json = flags(i)
        cmds.append((["analyze", slug] + extra, {"kind": "analyze", "ref": profiles[slug], "prove": prove, "json": as_json}))
    for i, arr in enumerate(rng.sample(pool, 18)):
        extra, prove, as_json = flags(i)
        cmds.append((["analyze", ref.array_text(arr)] + extra, {"kind": "analyze", "ref": ref.profile(arr), "prove": prove, "json": as_json}))
    for i in range(8):
        target = rng.choice(CATALOG)[0] if i % 2 else ref.array_text(rng.choice(pool))
        cmds.append((["validate", target] + (["--json"] if i % 4 < 2 else []), {"kind": "validate", "code": 0, "json": i % 4 < 2}))
    for _ in range(3):
        cmds.append((["table", "--extras"], {"kind": "table", "profiles": profiles}))
        cmds.append((["catalog", "list"], {"kind": "catalog"}))
    for i in range(3):
        path = workdir / f"batch-{i}.txt"
        summary = _batch_file(rng, pool, path)
        code = 0 if summary["below_2"] == summary["valid"] else 1
        cmds.append((["batch", str(path)], {"kind": "batch", "summary": summary, "code": code}))
    for name, param, arr in CLI_ORACLE_NAMES:
        argv = ["oracle", name] + ([] if param is None else ["--param", str(param)])
        cmds.append((argv, {"kind": "oracle", "ref": ref.profile(arr), "arr": arr}))
    for i, (name, param, arr) in enumerate(CLI_GRAPH_FILES):
        n, edges = edges_of(name, param)
        path = workdir / f"graph-{i}.txt"
        path.write_text(relabelled(edges, n, rng), encoding="utf-8")
        cmds.append((["oracle", "--graph-file", str(path)], {"kind": "oracle", "ref": ref.profile(arr), "arr": arr}))

    bad_edges = workdir / "graph-bad.txt"
    bad_edges.write_text("0 1\n1 two\n", encoding="utf-8")
    bad = ref.array_text(infeasible(rng, pool, 1)[0])
    errors = (
        (["analyze", "no-such-graph"], 2),
        (["analyze", "3,2;1"], 2),
        (["validate", malformed(rng, [ref.array_text(a) for a in pool], 1)[3]], 2),
        (["validate", bad], 3),
        (["analyze", bad], 3),
        (["analyze", bad, "--json"], 3),
        (["oracle", "no_such_graph"], 2),
        (["oracle"], 2),
        (["oracle", "--graph-file", str(workdir / "missing.txt")], 2),
        (["oracle", "--graph-file", str(bad_edges)], 2),
        (["batch", str(workdir / "missing.txt")], 2),
        (["analyze", "cube", "--prove", "bogus"], 2),
    )
    cmds += [(argv, {"kind": "error", "code": code}) for argv, code in errors]
    rng.shuffle(cmds)
    return cmds
