"""Spans and counts for the traced run, recorded from outside the program.

`install` replaces each function named in SPANS, in every drg module that
binds it, with a wrapper that records a span (name, start, end, parent,
op id) and, for some functions, exact counts derived from the result.
Because every binding of the same function object is replaced, nested
calls (cross_validate -> resistance_matrix -> linalg.invert, lookup ->
catalog_list -> parse_array, ...) become child spans.  Spans are kept in
memory and summarised, and written out, when the run ends.
"""

from __future__ import annotations

import statistics
import sys
import time
from collections import Counter


def _trace_steps(tracer, args, result) -> None:
    tracer.add("proofs.trace_steps", len(result.steps))


def _pairs(tracer, args, result) -> None:
    n = args[0].n
    tracer.add("oracle.pairs_checked", sum(c.pairs_checked for c in result.classes))
    tracer.add("oracle.pairs_total", n * (n - 1) // 2)


def _invert(tracer, args, result) -> None:
    n = len(args[0])
    # dense Gauss-Jordan on [A | I]: per column, 2n divisions and
    # (n - 1) * 2n multiply-subtracts -- computed from n, not counted
    tracer.add("linalg.ops_computed", 2 * n**3)
    bits = max(
        max(x.numerator.bit_length(), x.denominator.bit_length())
        for row in result
        for x in row
    )
    tracer.maximum("linalg.result_bits_max", bits)


# (module, function, observer of the result or None)
SPANS = (
    ("arrays", "parse_array", None),
    ("arrays", "validate", None),
    ("arrays", "derive", None),
    ("potentials", "compute_profile", None),
    ("proofs", "prove_k3", _trace_steps),
    ("proofs", "prove_optimal", _trace_steps),
    ("catalog", "catalog_list", None),
    ("catalog", "lookup", None),
    ("graphs", "construct", None),
    ("graphs", "verify_drg", None),
    ("graphs", "parse_edge_list", None),
    ("oracle", "cross_validate", _pairs),
    ("oracle", "resistance_matrix", None),
    ("linalg", "invert", _invert),
    ("cli", "main", None),
)
SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fn, _ in SPANS)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index, op id]
        self.stack: list[int] = []
        self.op = -1
        self.pass_counts: list[Counter] = []
        self.absent: list[str] = []
        self._patched: list[tuple] = []

    def start_pass(self) -> None:
        self.pass_counts.append(Counter())

    def add(self, name: str, value: int) -> None:
        self.pass_counts[-1][name] += value

    def maximum(self, name: str, value: int) -> None:
        counts = self.pass_counts[-1]
        counts[name] = max(counts[name], value)

    def _wrap(self, name, fn, observe):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, 0, 0, stack[-1] if stack else -1, self.op]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None:
                observe(self, args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every binding of each SPANS function; record missing ones as absent."""
        modules = [m for name, m in list(sys.modules.items()) if name == "drg" or name.startswith("drg.")]
        for (mod_name, fn_name, observe), span_name in zip(SPANS, SPAN_NAMES):
            fn = getattr(sys.modules.get(f"drg.{mod_name}"), fn_name, None)
            if fn is None:
                self.absent.append(span_name)
                continue
            wrapper = self._wrap(span_name, fn, observe)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def layers(self, ops_per_pass: int, scales: list[float], clean_ns) -> dict[str, list[float]]:
        """name -> [calls, busy_s, self_s] per pass.

        Busy time is the union of a name's spans (a span nested in one of
        the same name is not counted twice); self time is a span's duration
        minus the time its children cover.  As for op times, speed probes
        are taken out (`clean_ns`), times are scaled by their op's factor,
        and each op's busy and self time in a layer is its median over the
        passes.
        """
        spans = self.spans
        duration = [clean_ns(start, end) for _, start, end, _, _ in spans]
        child_ns = [0] * len(spans)
        for index, span in enumerate(spans):
            if span[3] >= 0:
                child_ns[span[3]] += duration[index]
        per_op: dict[tuple[int, str], list[float]] = {}
        for index, (name, _, _, parent, op) in enumerate(spans):
            row = per_op.setdefault((op, name), [0, 0.0, 0.0])
            to_s = scales[op] / 1e9
            row[0] += 1
            row[2] += (duration[index] - child_ns[index]) * to_s
            while parent >= 0 and spans[parent][0] != name:
                parent = spans[parent][3]
            if parent < 0:
                row[1] += duration[index] * to_s
        passes: dict[tuple[int, str], list[list[float]]] = {}
        for (op, name), row in per_op.items():
            passes.setdefault((op % ops_per_pass, name), []).append(row)
        out = {name: [0, 0.0, 0.0] for name in SPAN_NAMES}
        for (_, name), rows in passes.items():
            out[name] = [a + statistics.median(col) for a, col in zip(out[name], zip(*rows))]
        return out

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\top\n")
            for name, start, end, parent, op in self.spans:
                fh.write(f"{name}\t{start}\t{end}\t{parent}\t{op}\n")
