"""Exact rendering of rational values (no floating point anywhere)."""

from __future__ import annotations

from fractions import Fraction


def frac_str(x: Fraction) -> str:
    """Render as `p/q`, always with an explicit denominator."""
    return f"{x.numerator}/{x.denominator}"


def decimal_str(x: Fraction, places: int = 6) -> str:
    """Fixed-point decimal string, rounded half-even, computed exactly."""
    if places < 0:
        raise ValueError("places must be >= 0")
    num, den = x.numerator, x.denominator
    sign = "-" if num < 0 else ""
    scale = 10**places
    q, r = divmod(abs(num) * scale, den)
    # round half to even on the remainder
    if 2 * r > den or (2 * r == den and q % 2 == 1):
        q += 1
    if places == 0:
        return f"{sign}{q}"
    whole, frac = divmod(q, scale)
    return f"{sign}{whole}.{frac:0{places}d}"


def approx_str(x: Fraction) -> str:
    """`p/q (≈ d.dddddd)` rendering used in reports and proof traces."""
    return f"{frac_str(x)} (≈ {decimal_str(x, 6)})"


def decimal_places(text: str) -> int:
    """Number of digits printed after the point in a decimal literal."""
    return len(text.split(".", 1)[1]) if "." in text else 0
