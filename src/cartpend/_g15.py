"""Exact ``"%.15g"`` text of float64 arrays, computed in numpy.

``format_rows(block)`` gives, for an (n, w) float64 array, the string that
``(",".join(["%.15g"] * w) + "\\n") * n % tuple(block.ravel().tolist())``
gives, byte for byte, without a Python-level call per value.

For a v with 1e-100 <= |v| <= 1e100:

1. The decimal exponent x, 10**x <= |v| < 10**(x + 1), is ``floor(log10|v|)``
   moved by one where |v| lies on the other side of the float nearest 10**x
   or 10**(x + 1).
2. S = |v| * 10**(14 - x) lies in [1e14, 1e15). It is formed as a
   double-double: the error-free Dekker (1971) product of |v| and the double
   nearest 10**(14 - x), plus |v| times that double's remainder. S is then
   known to about 1e-16, so rounding it to the nearest integer gives the
   correctly rounded 15 significant digits M. A carry to 1e15 raises x by one.
3. ``%g`` prints M with trailing zeros dropped: fixed point for
   -4 <= x < 15, else ``d.ddde±XX``. Each value is written into a 48-byte
   record with a slot for every byte any of these layouts can need: the sign,
   a ``0.000`` prefix, the digits with a decimal-point slot after each, and
   ``e±XXX`` with the separator. The bytes a value does not show are zero,
   set by a template picked by (layout, significant digits), and
   ``bytes.translate`` deletes them.

A value whose S lies within 1e-9 of a half-integer (there the rounding
needs more digits than the double-double holds, and exact ties round half
to even), a non-finite value, and one outside [1e-100, 1e100] (subnormals
among them) keep Python's correctly rounded ``"%.15g" % v`` (Gay 1990),
spliced into the text. Zeros are ``0`` and ``-0``.
"""
from __future__ import annotations

import numpy as np

_RANGE = 100  # |v| in [1e-100, 1e100] is formatted here, the rest by Python
# Every table is indexed by a decimal exponent k - _K_LO: 10**x and 10**(x + 1)
# for the exponent search, 10**(14 - x) for the scaling, and the text of x
_K_LO, _K_HI = -_RANGE - 2, _RANGE + 16
_SPLIT = 134217729.0  # 2**27 + 1: Dekker's splitter for 53-bit doubles


def _split(a):
    """(high, low) halves of 26 bits each, high + low == a exactly."""
    c = a * _SPLIT
    high = c - (c - a)
    return high, a - high


def _powers_of_ten():
    """The doubles nearest 10**k and their correctly rounded remainders.

    Python's int-to-float conversion and int true division are correctly
    rounded, so integer arithmetic gives both exactly.
    """
    hi = []
    lo = []
    for k in range(_K_LO, _K_HI + 1):
        if k >= 0:
            t = 10 ** k
            h = float(t)
            lo.append(float(t - int(h)))
        else:
            t = 10 ** -k
            h = 1 / t
            num, den = h.as_integer_ratio()
            lo.append((den - num * t) / (den * t))
        hi.append(h)
    return np.array(hi), np.array(lo)


_POW_HI, _POW_LO = _powers_of_ten()
_POW_HI_H, _POW_HI_L = _split(_POW_HI)

# A record is 6 little-endian uint64 words, byte by byte:
#   0-2 unused, 3 sign, 4-8 "0.000" (byte 8 is the first group's leading 0),
#   9 unused, 10 + 2j digit j (j = 0..14), 11 + 2j the point after digit j,
#   40 'e', 41 exponent sign, 42-44 exponent digits, 45 separator, 46-47 unused.
# A value's words are ANDed with its template's, so a 0 in either hides the
# byte and 255 in one shows the other's.
_WIDTH = 48
_SEPARATOR_AT = 45
_SIGN_WORD = 10000
_EXPONENT_WORD = 10002 - _K_LO  # the word of exponent x is _EXPONENT_WORD + x


def _value_words():
    """The words looked up per value, and the trailing zeros of each digit group.

    Words 0-9999 are the digit groups: four ASCII digits, most significant
    first, each followed by a 255 point slot. Then come the two signs and the
    exponents ``e±XXX``, where a leading exponent 0 is hidden.
    """
    words = np.full((_EXPONENT_WORD + _K_HI + 1, 8), 255, np.uint8)
    digit = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    groups = words[:10000].reshape(10, 10, 10, 10, 8)
    groups[..., 0] = digit[:, None, None, None]
    groups[..., 2] = digit[:, None, None]
    groups[..., 4] = digit[:, None]
    groups[..., 6] = digit
    words[_SIGN_WORD:_SIGN_WORD + 2, 3] = (0, ord("-"))
    xs = np.arange(_K_LO, _K_HI + 1)
    exponent = words[_EXPONENT_WORD + _K_LO:]
    exponent[:, 0] = ord("e")
    exponent[:, 1] = np.where(xs < 0, ord("-"), ord("+"))
    exponent[:, 2:5] = words[np.abs(xs), 2:7:2]
    exponent[np.abs(xs) < 100, 2] = 0
    z = (digit == ord("0")).astype(np.int8)
    z0, z1, z2, z3 = z[:, None, None, None], z[:, None, None], z[:, None], z
    zeros = z3 + z3 * z2 + z3 * z2 * z1 + z3 * z2 * z1 * z0
    return words.view(np.uint64).ravel(), zeros.ravel()


_WORDS, _GROUP_ZEROS = _value_words()

# Layouts 0-18 are fixed point for x = -4..14, layout 19 the exponent form
_LAYOUTS = 20


def _templates():
    """Row ``15 * layout + digits - 1``: the shown bytes for that many digits.

    The last row, for values formatted by Python, shows only the separator.
    """
    rows = np.zeros((_LAYOUTS * 15 + 1, _WIDTH), np.uint8)
    t = rows[:-1].reshape(_LAYOUTS, 15, _WIDTH)
    layout = np.arange(_LAYOUTS)[:, None, None]
    digits = np.arange(1, 16)[:, None]
    j = np.arange(15)
    # the digit the point follows; none (negative) in 0.000ddd
    point = np.where(layout == 19, 0, layout - 4)
    # every digit before the point shows, zeros too
    t[..., 10:40:2] = ((j < digits) | (j <= point)) * 255
    t[..., 11:40:2] = ((j == point) & (point + 1 < digits)) * ord(".")
    t[:4, :, 4:6] = (ord("0"), ord("."))
    t[:4, :, 6:9] = (np.arange(3) < 3 - layout[:4]) * ord("0")
    t[19, :, 40:45] = 255
    t[..., 3] = 255
    rows[:, _SEPARATOR_AT] = ord(",")
    return rows.view(np.uint64)


_TEMPLATES = _templates()
_PYTHON_ROW = len(_TEMPLATES) - 1
# 15 * layout - 1 for exponent x, at x - _K_LO: plus the digit count, the template row
_x = np.arange(_K_LO, _K_HI + 1)
_LAYOUT_ROW = np.where((-4 <= _x) & (_x < 15), _x + 4, 19) * 15 - 1
del _x


def _digits(v):
    """Exponent x, 15-digit integer M (float64) and the mask of values left to Python."""
    a = np.abs(v)
    zero = a == 0.0
    fast = (a >= 10.0 ** -_RANGE) & (a <= 10.0 ** _RANGE)
    a = np.where(fast, a, 1.0)  # a zero gets x = 0 from here
    x = np.floor(np.log10(a)).astype(np.intp)
    x += a >= _POW_HI[x + (1 - _K_LO)]
    x -= a < _POW_HI[x - _K_LO]
    k = (14 - _K_LO) - x
    hh = _POW_HI_H[k]
    hl = _POW_HI_L[k]
    p = a * _POW_HI[k]
    ah, al = _split(a)
    # p + e is S to about 1e-16: Dekker's exact error of a * hi, plus a * lo
    e = ((ah * hh - p) + ah * hl + al * hh) + al * hl + a * _POW_LO[k]
    m = np.floor(p)
    frac = (p - m) + e
    m += np.floor(frac + 0.5)
    python = ~(fast | zero) | (np.abs(frac - 0.5) < 1e-9)
    carry = m >= 1e15
    m -= carry * 9e14
    x += carry
    m[zero] = 0.0
    return x, m, python


def _records(block):
    """The (n * w, 6) uint64 records of ``block`` and the mask of values left to Python."""
    n_rows, width = block.shape
    v = block.ravel()
    x, m, python = _digits(v)
    # word indices per value: sign, the four digit groups, exponent
    words = np.empty((len(v), 6), np.intp)
    np.add(np.signbit(v), _SIGN_WORD, out=words[:, 0])
    rest = m.astype(np.int64)
    np.divmod(rest, 10 ** 12, out=(words[:, 1], rest))
    np.divmod(rest, 10 ** 8, out=(words[:, 2], rest))
    np.divmod(rest, 10 ** 4, out=(words[:, 3], words[:, 4]))
    np.add(x, _EXPONENT_WORD, out=words[:, 5])
    g0, g1, g2, g3 = words[:, 1], words[:, 2], words[:, 3], words[:, 4]
    zeros = _GROUP_ZEROS[g3] + (g3 == 0) * (
        _GROUP_ZEROS[g2] + (g2 == 0) * (_GROUP_ZEROS[g1] + (g1 == 0) * _GROUP_ZEROS[g0]))
    row = _LAYOUT_ROW[x - _K_LO] + np.maximum(15 - zeros, 1)
    row[python] = _PYTHON_ROW
    records = _TEMPLATES[row]
    records &= _WORDS[words]
    records.view(np.uint8).reshape(n_rows, width, _WIDTH)[:, -1, _SEPARATOR_AT] = ord("\n")
    return records, python


def format_rows(block: np.ndarray) -> str:
    """``"%.15g"`` of every value of a 2-D float64 array, comma-separated, a line per row."""
    records, python = _records(block)
    text = records.tobytes().translate(None, b"\0")
    if python.any():
        # a Python value's record holds only its separator: insert before it
        ends = np.cumsum(np.count_nonzero(records.view(np.uint8), axis=1))
        v = block.ravel()
        pieces = []
        done = 0
        for i in np.flatnonzero(python):
            at = int(ends[i]) - 1
            pieces += [text[done:at], ("%.15g" % v[i]).encode()]
            done = at
        pieces.append(text[done:])
        text = b"".join(pieces)
    return text.decode("ascii")
