"""Exact dense linear algebra over the integers (small systems only).

Fraction-free (Bareiss) elimination: every update is an exact integer
division, so no gcd is taken and every entry stays a minor of the input.
"""

from __future__ import annotations

Matrix = list[list[int]]


def fraction_free_solve(a: Matrix, b: Matrix) -> tuple[int, Matrix]:
    """Return (det A, det A * A^-1 B) for a square integer A and integer B.

    Gauss-Jordan on [A | B]: step k replaces each row i != k by
    (p * row_i - row_i[k] * row_k) // prev, p being the pivot and prev
    the previous one.  The last pivot is det(PA) for the row swaps P, and
    the right block det(PA) (PA)^-1 PB; the swap parity fixes the sign.
    Raises ValueError("singular matrix") when a pivot column is zero.
    """
    n = len(a)
    rows = [list(ra) + list(rb) for ra, rb in zip(a, b)]
    sign, prev = 1, 1
    for k in range(n):
        p = next((r for r in range(k, n) if rows[r][k]), None)
        if p is None:
            raise ValueError("singular matrix")
        if p != k:
            rows[k], rows[p] = rows[p], rows[k]
            sign = -sign
        pivot = rows[k][k]
        tail = rows[k][k + 1 :]
        # Columns <= k are never read again, so only the tail is updated.
        for i, row in enumerate(rows):
            if i == k:
                continue
            f = row[k]
            if f:
                pairs = zip(row[k + 1 :], tail)
                row[k + 1 :] = [(pivot * x - f * y) // prev for x, y in pairs]
            elif pivot != prev:
                row[k + 1 :] = [pivot * x // prev for x in row[k + 1 :]]
        prev = pivot
    return sign * prev, [[sign * x for x in row[n:]] for row in rows]
