"""Property test: validate, analyze, batch and oracle --graph-file end in an exit code."""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from drg.cli import main  # noqa: E402

# Small entries, and a few large ones: 10^2200 has 2,201 digits, so sums
# and products of it pass the 4300-digit limit of str(int).
_LARGE = (2**64 + 1, 10**2200)


def _side(size: int, least: int = 0):
    numbers = st.one_of(st.integers(min_value=least, max_value=12), st.sampled_from(_LARGE))
    return st.lists(numbers, min_size=size, max_size=size).map(lambda xs: ",".join(map(str, xs)))


_d = st.integers(min_value=1, max_value=6)
# Arrays of the right shape (c_1 = 1, positive entries), near-miss text with
# entries from 0 and sides of two lengths, free text over the array
# alphabet, and catalog names.
_arrays = _d.flatmap(lambda d: st.tuples(_side(d, 1), _side(d - 1, 1))).map(
    lambda bc: f"{bc[0]};1{bc[1] and ','}{bc[1]}"
)
_targets = st.one_of(
    _arrays,
    st.tuples(_d, _d).flatmap(lambda ds: st.tuples(_side(ds[0]), _side(ds[1]))).map(";".join),
    st.text(alphabet="0123456789,; x", min_size=1, max_size=16),
    st.sampled_from(("cube", "biggs-smith", "petersen", "foster", "no-such-graph")),
)
_invocations = st.one_of(
    st.tuples(st.just("validate"), _targets, st.sampled_from(((), ("--json",)))),
    st.tuples(
        st.just("analyze"),
        _targets,
        st.sampled_from(
            (
                (),
                ("--json",),
                ("--prove", "k3"),
                ("--prove", "optimal"),
                ("--json", "--prove", "k3"),
                ("--json", "--prove", "optimal"),
            )
        ),
    ),
)

# Batch lines: bare or named targets and comments, arrays drawn twice as
# often, since most other text stops at the parser.  Edge lists: `u v`
# lines over small and large indices, or free text over their alphabet.
_batch_line = st.one_of(
    _arrays,
    _targets,
    st.tuples(st.sampled_from(("X", "Cube", "")), _targets).map(" | ".join),
    st.just("# a comment"),
)
_edge = st.tuples(_side(1), _side(1)).map(" ".join)
_edge_text = st.one_of(
    st.lists(_edge, max_size=24).map("\n".join),
    st.text(alphabet="0123456789 \n-#x", max_size=40),
)
_file_invocations = st.one_of(
    st.tuples(st.just(("batch",)), st.lists(_batch_line, max_size=8).map("\n".join)),
    st.tuples(st.just(("oracle", "--graph-file")), _edge_text),
)


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(_invocations)
def test_validate_and_analyze_always_exit_with_a_code(invocation):
    cmd, target, flags = invocation
    assert main([cmd, target, *flags]) in (0, 1, 2, 3)


@hypothesis.settings(
    max_examples=200,
    deadline=None,
    # the one file is rewritten by every example
    suppress_health_check=[hypothesis.HealthCheck.function_scoped_fixture],
)
@hypothesis.given(_file_invocations)
def test_batch_and_oracle_graph_files_always_exit_with_a_code(tmp_path, invocation):
    argv, text = invocation
    path = tmp_path / "input.txt"
    path.write_text(text, encoding="utf-8")
    assert main([*argv, str(path)]) in (0, 1, 2, 3)
