"""Exact float rendering of whole arrays, in numpy passes.

`write_rows` prints a 2-D float array as CSV lines of `'%.17g' % v` values,
or as JSON arrays of `json.dumps(v)` values (the shortest repr that
round-trips), byte-identical to those stdlib calls.

Each value v with 1e-290 < |v| < 1e290 takes a fast path (the scheme of
Grisu3: Loitsch, "Printing Floating-Point Numbers Quickly and Accurately
with Integers", PLDI 2010).  With X = floor(log10|v|), the 17-digit scaled
value S = |v| 10^(16 - X) is formed as a double-double p + r: p = |v| hi_k,
r the exact error of that product by Dekker's split (Numer. Math. 18, 1971)
plus |v| lo_k, where hi_k + lo_k is 10^k to about 106 bits.  Its absolute
error is below 1e-14, so S rounds to the 17-digit integer N whenever S
lies in [1e16, 1e17) and is more than 1e-3 from a half-integer.  The
shortest form searches n = 16, 15, ... for the nearest n-digit rounding of
S within half an ulp of v, as repr does.  Every value the fast path cannot
decide (zeros, subnormals, NaN, infinities, near-ties, power-of-two
mantissas and near-boundary cases for the shortest form) is printed by the
stdlib call itself.
"""

from __future__ import annotations

import json
from functools import cache

import numpy as np

# A value's text is laid out in six little-endian 64-bit words, zero bytes
# as padding, so that it is assembled by whole-word arithmetic:
#   word 0     a lead byte for the caller, the sign, the '0.000' prefix of
#              small fixed values, and the first digit;
#   words 1-4  digits 1-16 in groups of four, each after a slot for the
#              point that may precede it;
#   word 5     a spare byte, the exponent ('e+05' .. 'e-300') and two
#              separator bytes for the caller.
_WIDTH = 48  # bytes per value
_LEAD, _SIGN, _SEP = 0, 1, 46

# Values printed per pass; bounds the temporaries at about 2 MiB.
CHUNK_VALUES = 8192

_K_MIN, _K_MAX = -276, 308  # 10^k for k = 16 - X over the fast range
_SPLIT = 134217729.0  # 2^27 + 1: Dekker's split into 26-bit halves
_TIE = 1e-3  # fast rounding needs S this far from a half-integer
_EDGE = 1e-9  # the shortest form needs this relative margin to half an ulp

_STEPS = 10 ** np.arange(1, 17, dtype=np.int64)  # n = 16 .. 1 digits kept
_U8 = np.dtype("<u8")


def _words(texts, at: int) -> np.ndarray:
    """Each text as a little-endian word, its first byte at byte `at`."""
    return np.frombuffer(b"".join(bytes(at) + t.encode("latin-1").ljust(8 - at, b"\0") for t in texts), _U8)


@cache
def _tables():
    """Powers 10^k as hi + lo with hi split into 26-bit halves, rounded
    exactly with integer arithmetic; the words of the layout."""
    hi, lo = [], []
    for k in range(_K_MIN, _K_MAX + 1):
        num, den = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
        h = num / den
        a, b = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * b - a * den) / (den * b))
    hi, lo = np.array(hi), np.array(lo)
    mant, ex = np.frexp(hi)
    c = mant * _SPLIT
    mant_hi = c - (c - mant)
    hi_hi, hi_lo = np.ldexp(mant_hi, ex), np.ldexp(mant - mant_hi, ex)
    # a group of four digits 0000..9999, each after an empty point slot;
    # then the same with trailing zeros blanked, for the last nonzero group
    digits = (np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10).astype(np.uint8)
    quad = np.zeros((2, 10000, 8), dtype=np.uint8)
    quad[:, :, 1::2] = digits + np.uint8(ord("0"))
    quad[1, :, 1::2] *= np.cumsum(digits[:, ::-1], axis=1)[:, ::-1] != 0
    return {
        "hi": hi, "hi_hi": hi_hi, "hi_lo": hi_lo, "lo": lo,
        "quad": quad.reshape(-1).view(_U8),
        # the first 2c bytes of a group word, c = 0..4, and its point slots
        "kept": _words(["\xff" * 2 * c for c in range(5)], 0),
        "dot": _words(["\0" * 2 * j + "." for j in range(4)], 0),
        # the prefix of 10^-p, p = 0..4, and the first digit
        "lead": _words([pre.ljust(5, "\0") + str(d) for pre in ("", "0.", "0.0", "0.00", "0.000") for d in range(10)], 2),
        "exponent": _words([""] + [f"e{x:+03d}" for x in range(-300, 301)], 1),
    }


def _digits17(a: np.ndarray):
    """(N, f, X, 10^(16 - X), ok) for positive normal `a`, with
    a = (N + f) 10^(X - 16), N a 17-digit int64 and |f| < 0.5; ok marks
    where that N is certainly the correct rounding."""
    tab = _tables()
    x = np.floor(np.log10(a)).astype(np.int64)
    k = 16 - x - _K_MIN
    h, hh, hl = tab["hi"][k], tab["hi_hi"][k], tab["hi_lo"][k]
    p = a * h
    c = a * _SPLIT
    ah = c - (c - a)
    al = a - ah
    r = (al * hl - (((p - ah * hh) - al * hh) - ah * hl)) + a * tab["lo"][k]
    rounded = np.floor(r + 0.5)
    f = r - rounded
    n = p.astype(np.int64) + rounded.astype(np.int64)
    ok = ((p - 1e16) + r >= 0.0) & (p < 1e17) & (n < 10 ** 17) & (np.abs(f) < 0.5 - _TIE)
    return n, f, x, h, ok


def _shortest(a, n, f, h, ok):
    """The shortest rounding of N + f within half an ulp of a, as repr
    picks it, scaled to 17 digits; ok is cleared where it is not certain.

    A value whose nearest n-digit rounding is in reach also reaches with
    n + 1 digits, so each pass keeps only the values the last one reached."""
    half_ulp = 0.5 * np.spacing(a) * h
    ok &= np.frexp(a)[0] != 0.5  # the gap below a power of two is half
    best = n.copy()
    idx = np.flatnonzero(ok)
    for q in _STEPS:
        m, g, reach = n[idx], f[idx], half_ulp[idx]
        rem = m % q
        below = np.abs(rem + g)
        above = (q - rem) - g
        d = np.minimum(below, above)
        unsure = (np.abs(d - reach) <= _EDGE * reach) | (np.abs(below - above) < 2 * _TIE)
        hit = d < reach
        ok[idx[unsure & (hit | (d <= reach * (1 + _EDGE)))]] = False
        hit &= ~unsure
        idx = idx[hit]
        if not idx.size:
            break
        best[idx] = (m - rem + q * (below > above))[hit]
    return best, ok


def _cells(v: np.ndarray, shortest: bool = False) -> np.ndarray:
    """(n, 48) uint8: the text of each value of the 1-D float64 array `v`
    ('%.17g' % v, or json.dumps(v) when `shortest`), zero-padded, with
    bytes _LEAD and _SEP, _SEP + 1 left zero for separators."""
    tab = _tables()
    a = np.abs(v)
    fast = (a > 1e-290) & (a < 1e290)
    a = np.where(fast, a, 1.0)
    n, f, x, h, ok = _digits17(a)
    ok &= fast
    if shortest:
        n, ok = _shortest(a, n, f, h, ok)
        carry = n == 10 ** 17
        n = np.where(carry, 10 ** 16, n)
        x = x + carry
    # n as digit groups g0 (one digit) and g1..g4 (four each), in floats
    top = n // 100000000
    low = (n - top * 100000000).astype(np.float64)
    top = top.astype(np.float64)
    g01 = np.floor(top / 1e4)
    g0 = np.floor(g01 / 1e4)
    g3 = np.floor(low / 1e4)
    groups = [g.astype(np.int64) for g in (g01 - g0 * 1e4, top - g01 * 1e4, g3, low - g3 * 1e4)]
    fixed = (x >= -4) & (x < (16 if shortest else 17))
    whole = fixed & (x >= 0)
    out = np.empty((v.size, _WIDTH // 8), dtype=_U8)
    # words 4..1, trailing zeros blanked up to the last nonzero digit
    bare = np.ones(v.size, dtype=bool)  # the groups after this one are zero
    for i in (4, 3, 2, 1):
        g = groups[i - 1]
        out[:, i] = tab["quad"][g + 10000 * bare]
        bare &= g == 0
    # an integral value in fixed notation keeps its integer digits, and
    # repr one zero after the point
    integral = whole & (a == np.floor(a))
    rows = np.flatnonzero(integral)
    if rows.size:
        keep = x[rows] + 1 + shortest
        for i, g in enumerate(groups, 1):
            out[rows, i] |= tab["quad"][g[rows]] & tab["kept"][np.clip(keep - (4 * i - 3), 0, 4)]
    # the point follows digit x in fixed notation (and '%.17g' drops it
    # from integral values), and digit 0 otherwise if digits follow it
    point = x * whole
    rows = np.flatnonzero((whole & ~(integral & (not shortest))) | ~(fixed | bare))
    flat = out.reshape(-1)
    flat[rows * out.shape[1] + (point[rows] + 4) // 4] |= tab["dot"][point[rows] % 4]
    out[:, 0] = tab["lead"][g0.astype(np.int64) + 10 * (-x * (fixed & (x < 0)))]
    out[:, 0] |= (v < 0) * np.uint64(ord("-") << 8 * _SIGN)
    out[:, 5] = tab["exponent"][(x + 301) * ~fixed]
    out = out.view(np.uint8)
    rows = np.flatnonzero(~ok)
    if rows.size:
        fmt = json.dumps if shortest else "%.17g".__mod__
        text = b"".join(fmt(u).encode().ljust(_SEP - _SIGN, b"\0") for u in v[rows].tolist())
        out[rows, _SIGN:_SEP] = np.frombuffer(text, dtype=np.uint8).reshape(rows.size, -1)
    return out


def _render(block: np.ndarray, shortest: bool, distinct: int) -> bytes:
    """One chunk of rows as text: the values of the first `distinct`
    columns formatted once each (distinct by bit pattern, so -0.0 and 0.0
    stay apart), then every other value, in one `_cells` pass."""
    rows, cols = block.shape
    bits, inverse = np.unique(np.ascontiguousarray(block[:, :distinct]).view(np.int64), return_inverse=True)
    text = _cells(np.concatenate([bits.view(np.float64), block[:, distinct:].ravel()]), shortest)
    buf = np.empty((rows, cols, _WIDTH), dtype=np.uint8)
    buf[:, :distinct] = text[inverse.reshape(rows, distinct)]
    buf[:, distinct:] = text[bits.size:].reshape(rows, cols - distinct, _WIDTH)
    buf[:, :, _SEP] = ord(",")
    if shortest:
        buf[:, 0, _LEAD] = ord("[")
        buf[:, -1, _SEP:_SEP + 2] = (ord("]"), ord(","))
    else:
        buf[:, -1, _SEP] = ord("\n")
    return buf.tobytes().translate(None, b"\0")


def write_rows(fh, rows, shortest: bool = False, distinct: int = 0) -> None:
    """Write the rows of a 2-D float array to the binary file `fh`.

    Plain: CSV lines, '%.17g' values joined by ',' and ended by a newline.
    `shortest`: JSON arrays of json.dumps values, joined by ',' (what
    json.dumps of the row lists writes between its brackets).  The first
    `distinct` columns are formatted once per distinct value in each chunk.
    """
    rows = np.asarray(rows, dtype=np.float64)
    if rows.size == 0:
        return
    step = max(1, CHUNK_VALUES // rows.shape[1])
    for start in range(0, len(rows), step):
        text = _render(rows[start:start + step], shortest, distinct)
        fh.write(text[:-1] if shortest and start + step >= len(rows) else text)
