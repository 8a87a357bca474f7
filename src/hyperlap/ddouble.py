"""Double-double (~31 significant digits) arithmetic, scalar and numpy.

Only the handful of operations the alternating-series summation needs:
add two double-doubles, multiply/divide a double-double by a plain double.
Values are (hi, lo) pairs with hi + lo the represented number and
|lo| <= 0.5 ulp(hi).  Error-free transforms use Dekker splitting (no FMA
dependence).
"""

from __future__ import annotations

_SPLIT = 134217729.0  # 2**27 + 1


def two_sum(a, b):
    """Error-free sum: s + e == a + b exactly (works on floats or arrays)."""
    s = a + b
    bb = s - a
    e = (a - (s - bb)) + (b - bb)
    return s, e


def quick_two_sum(a, b):
    """Error-free sum assuming |a| >= |b|."""
    s = a + b
    return s, b - (s - a)


def split(a):
    """Dekker split into high/low 26-bit halves."""
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


def two_prod(a, b):
    """Error-free product: p + e == a * b exactly."""
    p = a * b
    ah, al = split(a)
    bh, bl = split(b)
    e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p, e


def dd_add(ahi, alo, bhi, blo):
    """(ahi, alo) + (bhi, blo)."""
    s, e = two_sum(ahi, bhi)
    t, f = two_sum(alo, blo)
    e = e + t
    s, e = quick_two_sum(s, e)
    e = e + f
    return quick_two_sum(s, e)


def dd_mul_d(ahi, alo, b):
    """(ahi, alo) * b for a plain double b."""
    p, e = two_prod(ahi, b)
    e = e + alo * b
    return quick_two_sum(p, e)


def dd_div_d(ahi, alo, b):
    """(ahi, alo) / b for a plain double b."""
    q1 = ahi / b
    p, e = two_prod(q1, b)
    # remainder (a - q1*b) to double-double accuracy
    s, f = two_sum(ahi, -p)
    f = f + (alo - e)
    q2 = (s + f) / b
    return quick_two_sum(q1, q2)


def dd_mul(ahi, alo, bhi, blo):
    """Full double-double product (ahi, alo) * (bhi, blo)."""
    p, e = two_prod(ahi, bhi)
    e = e + (ahi * blo + alo * bhi)
    return quick_two_sum(p, e)


def dd_div(ahi, alo, bhi, blo):
    """Full double-double quotient (ahi, alo) / (bhi, blo)."""
    q1 = ahi / bhi
    ph, pl = dd_mul_d(bhi, blo, q1)
    rh, rl = dd_add(ahi, alo, -ph, -pl)
    q2 = rh / bhi
    ph, pl = dd_mul_d(bhi, blo, q2)
    rh, rl = dd_add(rh, rl, -ph, -pl)
    q3 = rh / bhi
    q, e = two_sum(q1, q2)
    return quick_two_sum(q, e + q3)
