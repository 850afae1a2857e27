"""The model file's float text: shortest round-trip decimals of a block of values at once.

:func:`row_texts` writes each row of a float64 block as ``repr`` writes its
values, joined as ``json.dump(indent=1)`` joins a team vector's values in
the model file.  ``float.__repr__`` writes the shortest decimal that reads
back as the same double; of several such, the one nearest to it, and of two
equally near, the one with an even last digit.

For 1e-4 <= |v| < 1 that text is "0.", up to three zeros and the digits,
and :func:`row_texts` finds the digits of every such value of a block at
once with Schubfach (Giulietti, "The Schubfach way to render doubles",
2020), which renders the same shortest digits as Ryu (Adams, PLDI 2018), in
whole-array uint64 arithmetic.  Write v = c 2**q with c a 53-bit integer
(q is -66 ... -53 in this range), and let k be the largest integer with
10**k no wider than v's rounding interval.  That interval holds at most one
multiple of 10**(k+1) and at least one of 10**k, so only those two scales
are searched.  A row that holds any other value (0, 1, a subnormal, a value
that ``repr`` writes with an exponent, |v| >= 1) is written by
``float.__repr__``.

Only :mod:`steve.model_io` imports this module, and only when it saves a
model, so the commands that only load one do not build its tables.
"""

from __future__ import annotations

import numpy as np

#: The separator of a vector's values in the model file.
SEP = ",\n    "

#: Biased exponent field of 2**-14, the lowest of the 14 binary exponents
#: that 1e-4 <= |v| < 1 spans.
_EXP_LO, _EXPONENTS = 1009, 14
_M32, _M63 = (1 << 32) - 1, (1 << 63) - 1


def _power_rows():
    """``(k, h, g)`` of Schubfach for each binary exponent of the range, from the lowest.

    ``k`` is the largest integer with ``10**k <= 2**q``, ``g`` is ``10**-k``
    scaled into [2**125, 2**126) and rounded up, and ``h`` the shift that
    lines up ``c 2**h g / 2**127`` with ``v 10**-k``.

    A power of two has a lower neighbour half as far away as its upper one,
    so its rounding interval is narrower below, and Schubfach takes a lower
    end and a k of its own for it.  Neither is needed here: each power of
    two in the range, 2**-13 ... 2**-1, is itself a multiple of 10**(k+1),
    so it is the one multiple the search finds, whichever the lower end.
    """
    rows = []
    for e in range(_EXP_LO, _EXP_LO + _EXPONENTS):
        q = e - 1075
        k = -1
        while 10**-k < 2**-q:
            k -= 1
        b = (10**-k).bit_length() - 1
        rows.append((k, q + b + 2, (10**-k << 125 - b) + 1))
    return rows


_rows = _power_rows()
# The decimal exponents of the range only, and shifts that keep every
# ``4 c 2**h`` under 2**60, as :func:`_mul_high` needs.
assert {k for k, _, _ in _rows} == set(range(-20, -15))
assert all(2 <= h <= 5 and 1 << 125 <= g < 1 << 126 for _, h, g in _rows)
_SHIFT = np.array([h for _, h, _ in _rows], dtype=np.uint64)
#: Per row: the 32-bit halves of g's high and low 63 bits, then its high 63 bits.
_G = np.array(
    [(g >> 95, g >> 63 & _M32, (g & _M63) >> 32, g & _M32, g >> 63) for _, _, g in _rows], dtype=np.uint64
).T.copy()
#: Per row: the zeros after "0." of a 17-digit decimal d 10**k.
_ZEROS = np.array([-(k + 17) for k, _, _ in _rows], dtype=np.intp)
del _rows

# Each value is laid out in 32 bytes, four uint64 words, and its text is cut
# out of them by a mask: a pad byte, "-0.000", the 17 digits, the separator,
# a NUL that ends a row, and a pad byte.  The words are built from bytes and
# read back as bytes, in native order on both sides.
_PAIRS = np.frombuffer(b"".join(b"%02d" % i for i in range(100)), dtype=np.uint16)
_QUADS = np.empty((100, 100, 2), dtype=np.uint16)
_QUADS[:, :, 0], _QUADS[:, :, 1] = _PAIRS[:, None], _PAIRS
#: The four digits of 0 ... 9999, one uint32 each.
_QUADS = _QUADS.view(np.uint32).ravel()
#: The trailing zeros of those four digits.
_QUAD_ZEROS = np.zeros(10_000, dtype=np.uint8)
for _step in (10, 100, 1000, 10_000):
    _QUAD_ZEROS[::_step] += 1
#: The first word for each leading digit, and the last word.
_LEADS = np.frombuffer(b"".join(b"\0-0.000%d" % d for d in range(10)), dtype=np.uint64)
_TAIL = np.frombuffer(SEP.encode() + b"\0\0", dtype=np.uint64)


def _layout_masks():
    """The bytes a text keeps, by row ``((row end 2 + negative) 4 + zeros) 17 + digits - 1``."""
    end, neg, zeros, digits, col = np.ogrid[:2, :2, :4, :17, :32]
    keep = (col == 1) & (neg == 1) | (col == 2) | (col == 3) | (7 - zeros <= col) & (col <= 7 + digits)
    keep = keep | np.where(end == 1, col == 30, (24 <= col) & (col < 30))
    return keep.reshape(-1, 32)


_MASKS = _layout_masks()


def _mul_high(a1, a0, b1, b0):
    """The high 64 bits of ``a b`` for ``a = a1 2**32 + a0 < 2**63`` and ``b = b1 2**32 + b0 < 2**60``.

    At those sizes no sum of the middle column overflows 64 bits.
    """
    return a1 * b1 + ((a0 * b1 + a1 * b0 + (a0 * b0 >> 32)) >> 32)


def _rop(g, cp):
    """``cp g / 2**127`` rounded to odd: its floor, with the last bit set when inexact."""
    g1_hi, g1_lo, g0_hi, g0_lo, g1 = g
    cp_hi, cp_lo = cp >> 32, cp & _M32
    z = (g1 * cp >> 1) + _mul_high(g0_hi, g0_lo, cp_hi, cp_lo)
    return (_mul_high(g1_hi, g1_lo, cp_hi, cp_lo) + (z >> 63)) | (z << 1 != 0)


def _shortest(size):
    """The shortest decimal of each value of 1e-4 <= ``size`` < 1, as ``(d, zeros)``.

    ``d`` holds its digits, padded with trailing zeros to 17, and ``zeros``
    the zeros between "0." and them.
    """
    bits = size.view(np.uint64)
    row = ((bits >> 52) - _EXP_LO).astype(np.intp)
    g, shift = _G.take(row, axis=1), _SHIFT.take(row)
    c = (bits & (1 << 52) - 1) | 1 << 52
    # 4 v 10**-k rounded to odd, and the ends of the rounding interval, each
    # moved in by a quarter unit when it does not round to v (c odd).
    vb = _rop(g, (4 * c) << shift)
    vbl = _rop(g, (4 * c - 2) << shift) + (c & 1)
    vbr = _rop(g, (4 * c + 2) << shift) - (c & 1)
    s = vb >> 2
    # The one multiple of 10**(k+1) in the interval, if there is one.
    sp10 = s // 10 * 10
    up_in, wp_in = vbl <= sp10 << 2, (sp10 + 10) << 2 <= vbr
    # Else s or s + 1; when both are in, the nearer, or the even one at a tie.
    u_in, w_in = vbl <= s << 2, (s + 1) << 2 <= vbr
    pick_s = np.where(u_in != w_in, u_in, (vb & 3) + (s & 1) < 3)
    d = np.where(up_in != wp_in, np.where(up_in, sp10, sp10 + 10), s + 1 - pick_s)
    short = d < 10**16
    return np.where(short, d * 10, d).astype(np.intp), _ZEROS.take(row) + short


def _text(d, zeros, negative, cols):
    """The text of the values ``(d, zeros)`` of :func:`_shortest`, negative where ``negative`` is.

    Each value is followed by :data:`SEP`, or by a NUL when it ends a row of
    ``cols`` values.
    """
    # The 17 digits: a leading one, which is never 0, and four quads.
    lead = d // 10**16
    rest = d - lead * 10**16
    high = rest // 10**8
    quads = np.empty((d.size, 4), dtype=np.intp)
    for i, half in enumerate((high, rest - high * 10**8)):
        quads[:, 2 * i] = half // 10**4
        quads[:, 2 * i + 1] = half - quads[:, 2 * i] * 10**4
    # Trailing zeros: the last quad's, and an earlier quad's while every later one is 0.
    trail = _QUAD_ZEROS.take(quads[:, 3])
    for i in (2, 1, 0):
        trail += (trail == 4 * (3 - i)) * _QUAD_ZEROS.take(quads[:, i])
    layout = np.empty((d.size, 4), dtype=np.uint64)
    layout[:, 0] = _LEADS.take(lead)
    layout[:, 1:3] = _QUADS.take(quads).view(np.uint64)
    layout[:, 3] = _TAIL
    end = np.zeros((d.size // cols, cols), dtype=np.intp)
    end[:, -1] = 2 * 4 * 17
    keep = _MASKS.take(end.ravel() + negative * (4 * 17) + zeros * 17 + 16 - trail, axis=0)
    # A boolean index, not np.compress, which builds an index array of 8 bytes per character.
    return str(layout.view(np.uint8).ravel()[keep.ravel()].data, "ascii")


def row_texts(block: np.ndarray) -> list[str]:
    """The text of each row of the finite 2-D ``block``: its values as ``repr`` writes them, joined by :data:`SEP`."""
    rows, cols = block.shape
    v = block.ravel()
    size = np.abs(v)
    fast = (size >= 1e-4) & (size < 1.0)
    texts = _text(*_shortest(np.where(fast, size, 0.5)), v < 0, cols).split("\0")[:-1]
    for i in np.flatnonzero(~fast.reshape(rows, cols).all(axis=1)).tolist():
        texts[i] = SEP.join(map(float.__repr__, block[i].tolist()))
    return texts
