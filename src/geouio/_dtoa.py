"""Exact vectorised '%.17g' for the table writers: for every float64 the
same bytes as Python's own formatting, at a fraction of its cost.

A finite value v with 10**k <= |v| < 10**(k+1) prints as its 17 significant
digits D = round(|v| * 10**(16-k)).  Scaling |v| in a wider float (x86-64
long double: 64-bit mantissa) by an exact 10**n, |n| <= 27, is one correctly
rounded operation: it errs by under 1e17 * eps / 2.  Values below 1e-11 take
a second exact power, 27 < 16 - k <= 54, and so two roundings, which err by
under 1e17 * eps.  So D is settled unless the scaled value's fraction lies
within twice that error of 0.5, or D is 10**16 or 10**17, or k is out of
range, or v is 0, nan or inf; those values are formatted by '%' itself.
Where long double is plain double, that band exceeds 0.5 and every value
falls back, so the output is the same on every platform.  ``fields`` lays
out each value's text in a fixed 32-byte field and ``join`` turns rows of
fields into text.  The writers import this module, and build its tables, on
their first write.
"""

import functools

import numpy as np

WIDE = np.longdouble
_KMIN, _KMAX = 16 - 54, 16 + 27


@functools.cache
def tables(wide) -> tuple:
    """Powers of ten in ``wide``, 4-digit ASCII groups, trailing zeros of
    4-digit groups, the field templates and the fallback band.

    A value's field is 32 bytes: '-' or NUL at byte 0, its digits from byte
    7 on, the exponent at bytes 25-28, the separator at byte 31, NUL where
    there is nothing to print.  Integer digits (and an exponent form's
    first digit) keep their places at 7 + j; the fraction digits are
    shifted right by s bytes to make room for '.' (s = 1) or for '0.' and
    up to three zeros (s = 1 - k for -4 <= k < 0).  A template, one per
    sign, k and count of digits once trailing zeros are stripped, holds
    the masks of the kept integer and fraction bytes (3 words each), the
    constant bytes (4 words) and the shift in bits.
    """
    pow10 = np.cumprod(np.array([1] + [10] * 27, dtype=wide))
    digits = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    quad = np.stack(np.meshgrid(*[digits] * 4, indexing="ij"), axis=-1).reshape(-1, 4)
    zeros = np.zeros(10_000, np.int64)  # trailing zeros of 0000..9999
    for step in (10, 100, 1000, 10_000):
        zeros[::step] += 1
    neg, k, nd = (a.reshape(-1, 1) for a in
                  np.indices((2, _KMAX - _KMIN + 1, 17)))
    k, nd = k + _KMIN, nd + 1
    fixed = (k >= -4) & (k <= 16)  # else the exponent form d.ddde+kk
    small = fixed & (k < 0)  # 0.000ddd
    shift = np.where(small, 1 - k, 1)
    last_int = np.where(small, -1, np.where(fixed, k, 0))  # last digit in place
    p = np.arange(32)
    whole = (p >= 7) & (p <= 7 + last_int)
    frac = (p >= 8 + shift + last_int) & (p < 7 + shift + nd)
    const = np.zeros(whole.shape, np.uint8)
    const[:, 0] = np.where(neg[:, 0], ord("-"), 0)
    const[(p == 8 + np.maximum(last_int, 0)) & (small | (nd > last_int + 1))] = ord(".")
    const[small & ((p == 7) | (p >= 9) & (p < 8 - k))] = ord("0")
    expo = ~fixed[:, 0]
    exponents = b"".join(b"e%+03d" % e for e in range(_KMIN, _KMAX + 1))
    const[expo, 25:29] = np.frombuffer(exponents, np.uint8).reshape(-1, 4)[k[expo, 0] - _KMIN]
    words = [(m * np.uint8(255)).view("<u8") for m in (whole, frac)]
    templates = np.hstack([words[0][:, :3], words[1][:, 1:], const.view("<u8"),
                           (8 * shift).astype(np.uint64)]).astype(np.uint64)
    band = 1e17 * float(np.finfo(wide).eps)
    return pow10, quad.view("<u4").ravel().astype(np.uint64), zeros, templates, band


def decimal(v) -> tuple:
    """17 significant digits D (uint64) and decimal exponent k of each
    value, and a mask of the values that they settle."""
    pow10, *_, band = tables(WIDE)
    a = np.abs(v)
    with np.errstate(divide="ignore", invalid="ignore"):
        guess = np.floor(np.log10(a))
    ok = (guess > _KMIN) & (guess < _KMAX)  # leaves room to correct k by 1
    k = np.where(ok, guess, 0).astype(np.int64)
    a = np.where(ok, a, 1.0)

    def scaled(a, k):
        m = a.astype(WIDE) * pow10[np.clip(16 - k, 0, 27)]
        tiny = np.flatnonzero(k < 16 - 27)
        m[tiny] *= pow10[16 - 27 - k[tiny]]
        big = np.flatnonzero(k > 16)
        m[big] = a[big].astype(WIDE) / pow10[k[big] - 16]
        return m

    m = scaled(a, k)
    d = m.astype(np.uint64)
    off = np.flatnonzero((d < 10 ** 16) | (d >= 10 ** 17))
    k[off] += np.where(d[off] < 10 ** 16, -1, 1)
    m[off] = scaled(a[off], k[off])
    d[off] = m[off].astype(np.uint64)
    f = (m - d.astype(WIDE)).astype(np.float64)
    d += f > 0.5
    # two roundings err twice as much as one
    ok &= np.abs(f - 0.5) > band * (1 + (k < 16 - 27))
    ok &= (d > 10 ** 16) & (d < 10 ** 17)
    return d, k, ok


def fields(values) -> np.ndarray:
    """The %.17g text of every value as a 32-byte field (4 little-endian
    uint64 words, see tables), in an array of shape values.shape + (4,)."""
    v = np.ravel(values)
    _, quad, zeros, templates, _ = tables(WIDE)
    d, k, ok = decimal(v)
    top, low = np.divmod(d, np.uint64(10 ** 8))  # d0..d8, d9..d16
    first, high = np.divmod(top, np.uint64(10 ** 8))  # d0, d1..d8
    groups = [*np.divmod(high, np.uint64(10 ** 4)), *np.divmod(low, np.uint64(10 ** 4))]
    stripped = zeros[groups[3]]  # trailing zeros of d1..d16, 0 to 16
    live = np.flatnonzero(stripped == 4)
    for g in groups[2::-1]:
        z = zeros[g[live]]
        stripped[live] += z
        live = live[z == 4]
    a = quad[groups[0]] | quad[groups[1]] << np.uint64(32)
    b = quad[groups[2]] | quad[groups[3]] << np.uint64(32)
    # d0 at byte 7, d1..d8 and d9..d16 in words 1 and 2; each value's
    # template keeps its integer digits there, and its fraction digits from
    # a copy moved s / 8 bytes further along (shifted left by s bits)
    w0 = (first + np.uint64(48)) << np.uint64(56)
    t = np.take(templates, (k - _KMIN) * 17 + 16 - stripped
                + np.signbit(v) * (17 * (_KMAX - _KMIN + 1)), axis=0)
    s, rs = t[:, 10], np.uint64(64) - t[:, 10]
    out = np.empty((len(v), 4), "<u8")
    out[:, 0] = w0 & t[:, 0] | t[:, 6]
    out[:, 1] = a & t[:, 1] | (a << s | w0 >> rs) & t[:, 3] | t[:, 7]
    out[:, 2] = b & t[:, 2] | (b << s | a >> rs) & t[:, 4] | t[:, 8]
    out[:, 3] = b >> rs & t[:, 5] | t[:, 9]
    back = np.flatnonzero(~ok)
    if back.size:  # '%.17g' is at most 24 characters; pad with NUL
        text = np.frombuffer((b"%-24.17g" * back.size) % tuple(v[back].tolist()),
                             np.uint8).reshape(-1, 24)
        out[back, :3] = np.where(text == ord(" "), 0, text).view("<u8")
        out[back, 3] = 0
    return out.reshape(*np.shape(values), 4)


def join(cells, sep: str) -> bytes:
    """Rows of a 2-D array of fields as text: each value followed by
    ``sep``, the last of a row by a newline.  Sets the separator bytes of
    ``cells``."""
    text = cells.view(np.uint8)
    text[..., 31] = ord(sep)
    text[:, -1, 31] = ord("\n")
    return text.tobytes().translate(None, b"\0")
