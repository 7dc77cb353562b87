"""Property tests on small graphs: verify_drg gives the edge-loop reference's
report or refusal, LabeledGraph's adjacency lists come out sorted,
LabeledGraph builds or refuses an edge list as a tuple-keyed edge loop does,
neighbour_sums gives the edge loop's sums at every density, and
parse_edge_list reads edge-list text as the per-line reference does."""

from __future__ import annotations

from itertools import combinations

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from drg import LabeledGraph, parse_array, parse_edge_list, verify_drg  # noqa: E402
from drg.graphs import neighbour_sums  # noqa: E402
from test_graphs import (  # noqa: E402
    _graph_or_refusal,
    _report_or_refusal,
    edge_loop_neighbour_sums,
    edge_loop_verify,
    per_line_parse_edge_list,
)

# K_3, C_4, the Petersen graph and the 3-cube, and a claim right except for c_3
_CLAIMS = (None, "2;1", "2,1;1,2", "3,2;1,1", "3,2,1;1,2,3", "3,2,1;1,2,2")


def _graph(n: int, kept: list[bool], claim: str | None) -> LabeledGraph:
    edges = [pair for pair, keep in zip(combinations(range(n), 2), kept) if keep]
    claimed = None if claim is None else parse_array(claim)
    return LabeledGraph(n, edges, claimed_array=claimed)


# Each of the n(n-1)/2 pairs is an edge or not, so a graph may be disconnected
_graphs = st.integers(min_value=2, max_value=9).flatmap(
    lambda n: st.builds(
        _graph,
        st.just(n),
        st.lists(st.booleans(), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2),
        st.sampled_from(_CLAIMS),
    )
)


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(_graphs)
def test_verify_drg_matches_the_edge_loop_on_small_graphs(g):
    # field for field, or the same ValueError message
    assert _report_or_refusal(verify_drg, g) == _report_or_refusal(edge_loop_verify, g)


@hypothesis.settings(database=None, deadline=None)
@hypothesis.given(
    st.integers(1, 40).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))),
        )
    )
)
def test_adjacency_lists_come_out_sorted(case):
    n, pairs = case
    # each unordered pair once, in either order, with no loop
    edges = list({frozenset(e): e for e in pairs if e[0] != e[1]}.values())
    g = LabeledGraph(n, edges)
    for v in range(n):
        assert g.adjacency[v] == tuple(sorted(u for e in edges for u in e if v in e and u != v))


def _tuple_keyed_graph(n: int, edges) -> tuple | str:
    """(edges, adjacency) of the graph, or the refusal of its first bad edge,
    from a loop that keys each edge by the tuple (u, v), u < v."""
    seen: set[tuple[int, int]] = set()
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            return f"edge ({u},{v}) out of range for n={n}"
        if u == v:
            return f"loop at vertex {u}"
        key = (u, v) if u < v else (v, u)
        if key in seen:
            return f"duplicate edge {key}"
        seen.add(key)
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in sorted(seen):
        adj[u].append(v)
        adj[v].append(u)
    return tuple(sorted(seen)), tuple(map(tuple, adj))


@st.composite
def _edge_lists(draw) -> tuple[int, list[tuple[int, int]]]:
    """n and a list of distinct edges with up to three bad entries put
    anywhere: a pair that may leave the range, a loop, or a repeat of a
    listed edge in either orientation."""
    n = draw(st.integers(1, 16))
    vertex = st.integers(0, n - 1)
    edges = draw(
        st.lists(
            st.tuples(vertex, vertex).filter(lambda e: e[0] != e[1]),
            max_size=30 if n > 1 else 0,
            unique_by=frozenset,
        )
    )
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(("range", "loop", "repeat") if edges else ("range", "loop")))
        if kind == "range":
            bad = draw(st.tuples(st.integers(-2, n + 1), st.integers(-2, n + 1)))
        elif kind == "loop":
            w = draw(st.integers(-1, n))
            bad = (w, w)
        else:
            u, v = draw(st.sampled_from(edges))
            bad = draw(st.sampled_from(((u, v), (v, u))))
        edges.insert(draw(st.integers(0, len(edges))), bad)
    return n, edges


@hypothesis.settings(max_examples=500, deadline=None)
@hypothesis.given(_edge_lists())
def test_labeled_graph_matches_the_tuple_keyed_loop(case):
    n, edges = case
    try:
        g = LabeledGraph(n, edges)
    except ValueError as exc:
        built = str(exc)
    else:
        built = g.edges, g.adjacency
    assert built == _tuple_keyed_graph(n, edges)


@st.composite
def _graphs_with_rows(draw) -> tuple[LabeledGraph, list[int]]:
    """A graph on n <= 40 vertices with m drawn from 0..n(n-1)/2, so every
    density, and one int row per vertex."""
    n = draw(st.integers(1, 40))
    pairs = list(combinations(range(n), 2))
    edges = draw(st.randoms(use_true_random=False)).sample(pairs, draw(st.integers(0, len(pairs))))
    rows = draw(st.lists(st.integers(-(2**90), 2**90), min_size=n, max_size=n))
    return LabeledGraph(n, edges), rows


def _star(n: int) -> LabeledGraph:
    return LabeledGraph(n, [(0, v) for v in range(1, n)])


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(_graphs_with_rows())
# 4m = n(n-1) exactly, one edge either side of it, stars and isolated vertices
@hypothesis.example((_star(4), [1, 2, 4, 8]))
@hypothesis.example((LabeledGraph(4, [(0, 1), (0, 2), (0, 3), (1, 2)]), [1, 2, 4, 8]))
@hypothesis.example((LabeledGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]), [3, -1, 4, -1, 5]))
@hypothesis.example((LabeledGraph(8, list(combinations(range(8), 2))[:13]), list(range(8))))
@hypothesis.example((LabeledGraph(8, list(combinations(range(8), 2))[:14]), list(range(8))))
@hypothesis.example((LabeledGraph(8, list(combinations(range(8), 2))[:15]), list(range(8))))
@hypothesis.example((_star(40), list(range(40))))
@hypothesis.example((LabeledGraph(40, []), list(range(40))))
@hypothesis.example((LabeledGraph(40, list(combinations(range(39), 2))), list(range(40))))
def test_neighbour_sums_match_the_edge_loop(case):
    g, rows = case
    assert neighbour_sums(g, rows) == edge_loop_neighbour_sums(g, rows)


@st.composite
def _edge_texts(draw) -> str:
    """An edge list of _edge_lists as text: indices zero-padded or not, and
    comments, blank lines and CRLF or LF breaks anywhere."""
    _, edges = draw(_edge_lists())
    zeros = st.integers(0, 3).map(lambda k: "0" * k)
    lines = []
    for u, v in edges:
        lines += draw(st.lists(st.sampled_from(("", "  ", "# a comment", "\t# 1 2")), max_size=2))
        comment = draw(st.sampled_from(("", " # c", "#0 1")))
        lines.append(f"{draw(zeros)}{u} {draw(zeros)}{v}{comment}")
    breaks = st.sampled_from(("\n", "\r\n"))
    return "".join(line + draw(breaks) for line in lines)


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(_edge_texts())
@hypothesis.example("0 1\r\n001 2\r\n2 0000\r\n")
@hypothesis.example("0 1\n# c\n\n01 001 # 1 1\n")
@hypothesis.example("0 1\n1 2\n\n01 2\n")
def test_parse_edge_list_matches_the_per_line_reader_on_small_texts(text):
    assert _graph_or_refusal(parse_edge_list, text) == _graph_or_refusal(
        per_line_parse_edge_list, text
    )
