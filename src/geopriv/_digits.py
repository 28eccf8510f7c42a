"""Decimal text of numpy columns, for the CSV writers of ``ingest``.

A coordinate is written with six decimals where that form reads back as
the same float, and as its shortest ``repr`` otherwise
(``oracles.fmt_degrees`` is the rule, one value at a time). numpy decides
both for a whole array with exact arithmetic: ``degree_parts`` tests the
six-decimal grid, and ``shortest`` finds ``repr``'s digits. Python's
formatting writes, one value at a time, only what they do not decide:
values below 1e-4, which ``repr`` writes with an exponent, powers of two
and ties. ``text_rows`` lays the text out as rows of one byte matrix,
two digits a slot, with a mask of the bytes each row keeps.
"""

from __future__ import annotations

import numpy as np

# The text of 0..99 as two-byte slots, and of ",-" as one, in native byte
# order: each slot holds its two bytes in text order.
_PAIRS = np.frombuffer("".join(f"{i:02d}" for i in range(100)).encode(), np.uint16)
_COMMA_MINUS = np.frombuffer(b",-", np.uint16)[0]
_POW10 = np.array([10**k for k in range(19)], dtype=np.int64)
# fl(10^k) for k = -4..2, each rounded up or exact: no double lies in
# [10^k, fl(10^k)), so a double is at least fl(10^k) exactly when it is at
# least 10^k.
_DECADES = np.array([1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0])
_SPLIT = 2.0**27 + 1


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split of each double into its high 26 bits and the exact rest."""
    c = _SPLIT * a
    high = c - (c - a)
    return high, a - high


def _two_sum(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Knuth's TwoSum: fl(a + b) and the exact rest of a + b."""
    s = a + b
    z = s - a
    return s, (a - (s - z)) + (b - z)


# 10^0..10^22, each an exact double, and the Veltkamp split of each.
_POW10F = np.array([float(10**k) for k in range(23)])
_POW10F_HI, _POW10F_LO = _split(_POW10F)


def _nearest(a: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For each positive ``a`` and shift ``q``: the integer R nearest
    a * 10^q, whether R / 10^q reads back as ``a``, and whether that is
    undecided. Exact; see ``shortest``. Intermediates are dropped once
    used, as they set the writer's peak memory."""
    a_hi, a_lo = _split(a)
    b_hi, b_lo = _POW10F_HI[q], _POW10F_LO[q]
    hi = a * _POW10F[q]
    lo = a_lo * b_lo - (((hi - a_hi * b_hi) - a_lo * b_hi) - a_hi * b_lo)
    del a_hi, a_lo, b_hi, b_lo
    r0 = np.rint(hi)
    v, v_lo = _two_sum(hi - r0, lo)
    del hi, lo
    c = np.rint(v)
    w = v - c
    passes = np.abs(w + v_lo) < np.spacing(a) / 2 * _POW10F[q]
    return r0.astype(np.int64) + c.astype(np.int64), passes, np.abs(w) == 0.5


def shortest(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The digits ``repr`` writes for each ``a``: integers R and shifts q
    such that R / 10^q is the shortest decimal that reads back as ``a``,
    and a mask of the values this leaves undecided.

    Each ``a`` lies in [1e-4, 180], off the six-decimal grid, and is not
    a power of two. ``repr`` writes the fewest significant digits p with
    which a decimal reads back as ``a``, the nearest such decimal, with no
    exponent from 1e-4 up. Let
    10^(e-1) <= a < 10^e (``_DECADES`` gives e exactly), q = p - e and
    X = a * 10^q: the nearest p-digit decimal is R / 10^q, R the integer
    nearest X. As ``a`` is not a power of two, the doubles next to it lie
    ulp(a) away on both sides, so R / 10^q reads back as ``a`` when
    |X - R| < B = ulp(a) / 2 * 10^q, and not when it is larger. It is
    never equal: a = A * ulp(a) for an integer A, so X = A * 5^q * g with
    g = ulp(a) * 2^q <= 2^-25 and X - R is a multiple of g, while
    B = 5^q * g / 2 is an odd multiple of g / 2.

    If p digits read back, the nearest p + 1 digits do too: they lie no
    farther from 10 X than 10 R. Seventeen digits always read back, as
    X >= 10^16 gives B > X * 2^-54 > 1/2. So p = 16 is tried first, 17
    where 16 fails, and where 16 reads back 15, 14, ... until one fails,
    as it does by q = 6: ``a`` is off the grid of six decimals. The last R
    that reads back is ``repr``'s: it ends in no zero, as R / 10 would read
    back with p - 1 digits, and it is below 10^p, as 10^e reads back only
    as fl(10^e) >= 10^e > a.

    Each test is exact. Dekker's product gives X = hi + lo exactly: 10^q
    is a double for q <= 22, here q <= 20, and nothing overflows or
    underflows. r0 = rint(hi) and hi - r0 are exact, and a TwoSum gives
    v + v_lo = X - r0 exactly, with v = fl(v + v_lo). Unless v is a
    half-integer, c = rint(v) is the integer nearest v + v_lo, as c +- 1/2
    are doubles and rounding is monotonic. Then R = r0 + c, in int64
    (where hi >= 2^52, lo can exceed 1, and c carries it), and X - R =
    w + v_lo with w = v - c exact. fl(w + v_lo) compares with the double
    B as X - R does: the two differ by at least g / 2, more than half an
    ulp of B < 2^52 g.

    Left undecided are the values for which v is a half-integer at some p
    tried: the ties, where two decimals lie equally near X, and those
    where the rounding of v hides the side X is on.
    """
    q = 20 - np.searchsorted(_DECADES, a, side="right")  # 16 - e: p = 16
    digits, passes, undecided = _nearest(a, q)
    more = np.flatnonzero(~passes)
    q[more] += 1
    digits[more], _, tie = _nearest(a[more], q[more])
    undecided[more] |= tie
    live = np.flatnonzero(passes & ~undecided)
    while live.size:
        shift = q[live] - 1
        fewer, passes, tie = _nearest(a[live], shift)
        undecided[live] |= tie
        live = live[passes]
        digits[live], q[live] = fewer[passes], shift[passes]
    return digits, q, undecided


def degree_parts(x: np.ndarray):
    """The text of each coordinate of ``x``, decided for the whole array:
    six decimals when that form reads back as the same float, the shortest
    ``repr`` otherwise (``oracles.fmt_degrees``). Returns the integer part
    of |x|, the fraction digits as an integer and their count; and the
    indices of the values left to Python's formatting, with their texts.

    The test ``rint(x * 1e6) / 1e6 == x`` decides the six-decimal form
    exactly for |x| <= 180. Let m be the integer nearest the exact x *
    10^6, so that the six-decimal form reads back as fl(m / 1e6); k =
    rint(fl(x * 1e6)), and the test compares fl(k / 1e6) with x. Whenever
    x = fl(j / 1e6) for an integer j, x lies within half an ulp of
    j / 10^6, at most 2^-46 for |x| < 2^8, so x * 10^6 lies within 1.5e-8
    of j; fl(x * 1e6), below 2^28 in magnitude, adds at most half an ulp,
    2^-26 < 1.5e-8. Both stay far below 0.5, so if the six-decimal form
    reads back (j = m), k = m and the test holds; if the test holds
    (j = k), m = k and the form reads back, with the digits of k. Every
    integral |x| <= 180 is on this grid.

    ``shortest`` writes ``repr``'s digits for the other values in
    [1e-4, 180] but the powers of two, where the gap to the next double
    below is half the gap above. Python writes the rest, one by one, by
    the same grid test: what ``shortest`` leaves undecided, values below
    1e-4, which ``repr`` writes with an exponent, and anything beyond 180.
    """
    a = np.abs(x)
    k = np.rint(a * 1e6)
    grid = k / 1e6 == a
    inside = a <= 180
    on = grid & inside
    whole = np.zeros(x.shape, np.int64)
    frac = np.zeros(x.shape, np.int64)
    places = np.zeros(x.shape, np.int64)
    whole[on], frac[on] = np.divmod(k[on].astype(np.int64), 1_000_000)
    places[on] = 6
    kernel = ~grid & inside & (a >= 1e-4) & (np.frexp(a)[0] != 0.5)
    digits, shift, undecided = shortest(a[kernel])
    kernel[kernel] = ~undecided
    digits, shift = digits[~undecided], shift[~undecided]
    # where q > 18, R < 10^17 and the integer part is 0
    whole[kernel], frac[kernel] = np.divmod(digits, _POW10[np.minimum(shift, 18)])
    places[kernel] = shift
    rest = np.nonzero(~(on | kernel))
    texts = [f"{v:.6f}" if g else repr(v) for v, g in zip(x[rest].tolist(), grid[rest].tolist())]
    return whole, frac, places, rest, texts


def digit_count(v: np.ndarray) -> np.ndarray:
    """The number of decimal digits of each integer 0 <= v < 2^63."""
    return np.maximum(np.searchsorted(_POW10, v, side="right"), 1)


def even(n) -> int:
    return int(n) + int(n) % 2


def put_digits(slots: np.ndarray, keep: np.ndarray, v: np.ndarray, count: np.ndarray) -> None:
    """Write each integer v >= 0 at the end of its row of ``slots`` (two
    bytes each, filled with ``b"0"``), two digits a slot, and keep the last
    ``count`` bytes of its row of ``keep``, as wide as the row's bytes."""
    for j in range(slots.shape[-1] - 1, -1, -1):
        if not v.any():
            break
        quotient = v // 100
        slots[..., j] = _PAIRS[v - quotient * 100]
        v = quotient
    width = keep.shape[-1]
    keep[...] = np.arange(width) >= width - count[..., None]


def text_rows(xy: np.ndarray, head: int) -> tuple[np.ndarray, np.ndarray]:
    """The text rows of the coordinates ``xy`` (n by k): ``head`` leading
    bytes for the caller (an even count), then a comma and the text of
    each coordinate, then a newline. Returns the byte matrix, ``b"0"`` in
    the head, and the mask of the bytes the text keeps.

    Every field starts at an even column and fills whole two-byte slots,
    so digits are written a slot at a time; the bytes that pad a field to
    its slots are not kept.
    """
    n, k = xy.shape
    whole, frac, places, rest, texts = degree_parts(xy)
    wi = even(digit_count(whole.max(initial=0)))
    wf = even(max(int(places.max(initial=0)), max(map(len, texts), default=0) - 3 - wi))
    cell = 4 + wi + wf  # ",-", the integer part, "." and a pad byte, the fraction
    width = head + k * cell + 2
    rows = np.full((n, width), ord("0"), np.uint8)
    keep = np.ones((n, width), bool)
    cells = rows[:, head:width - 2].reshape(n, k, cell)
    kept = keep[:, head:width - 2].reshape(n, k, cell)
    slots = cells.view(np.uint16)
    slots[..., 0] = _COMMA_MINUS
    kept[..., 1] = np.signbit(xy)
    put_digits(slots[..., 1:1 + wi // 2], kept[..., 2:2 + wi], whole, digit_count(whole))
    cells[..., 2 + wi] = ord(".")
    kept[..., 3 + wi] = False
    put_digits(slots[..., 2 + wi // 2:], kept[..., 4 + wi:], frac, places)
    for at, text in zip(zip(*rest), texts):
        raw = np.frombuffer(text.encode(), np.uint8)
        cells[at][1:1 + len(raw)] = raw
        kept[at][1:] = np.arange(cell - 1) < len(raw)
    rows[:, -2] = ord("\n")
    keep[:, -1] = False
    return rows, keep


def fmt_degrees(x: np.ndarray) -> list[str]:
    """Each coordinate of the 1-D ``x`` as text: six decimals when that
    form reads back as the same float, the shortest ``repr`` otherwise
    (see ``degree_parts``)."""
    rows, keep = text_rows(x[:, None], 0)
    keep[:, 0] = False
    return str(rows[keep], "utf-8").split("\n")[:-1]
