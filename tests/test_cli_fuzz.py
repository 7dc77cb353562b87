"""Property test: validate/analyze end in an exit code on any small input."""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from drg.cli import main  # noqa: E402

_sides = st.lists(st.integers(min_value=0, max_value=12), min_size=1, max_size=6).map(
    lambda xs: ",".join(map(str, xs))
)
# Near-miss array text, free text over the array alphabet, and catalog names.
_targets = st.one_of(
    st.tuples(_sides, _sides).map(";".join),
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


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(_invocations)
def test_validate_and_analyze_always_exit_with_a_code(invocation):
    cmd, target, flags = invocation
    assert main([cmd, target, *flags]) in (0, 1, 2, 3)
