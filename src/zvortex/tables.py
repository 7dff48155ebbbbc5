"""Row formatting for the tables zvortex writes.

Grid residuals, trajectories, the gradient-map geometry and the ladder's
k trace are formatted from columns, not from row objects. A block of at
most ``BLOCK_ROWS`` rows is one ``(rows, width)`` ``uint8`` matrix: the
template's literal bytes and one fixed-width slot per field, in row order.
A field fills its slot with its text and NUL bytes, and one pass deletes
the NULs. Bounding the block keeps the memory alive at once small,
however long the table.

Every field prints exactly what Python's ``%`` prints for the value. Float
digits come from an exact kernel built from IEEE basic operations (``+``,
``-``, ``*``, ``floor``, ``rint`` and comparisons, correctly rounded on
every host and SIMD path), integer arithmetic and table lookups.
``np.log10`` only guesses the decimal exponent E; one comparison each way
with the least doubles at or above 10^E and 10^(E + 1) makes it exact, so
no libm result reaches a digit. An integer column goes through the same
kernel under ``%.17g``, which prints the integer's nearest double, and
under ``%r`` and ``%s`` where its every value lies within 2^53 of zero,
since such an integer's double prints as its digits. Python formats an
integer column past that bound, and a float only where the kernel cannot
prove its digits: see ``_float_text``.
"""

from __future__ import annotations

import re
from typing import Iterator, Sequence

import numpy as np

BLOCK_ROWS = 4096

# The conversions a template may hold.
_FIELD = re.compile(r"%(\.17g|r|s)")

# 10^q for q in [0, 46] as the double nearest it (_HI) plus the double
# nearest the rest (_LO), and _HI's Veltkamp halves for Dekker's product.
# _LO is 0 exactly where 10^q is a double, q <= 22.
_SPLIT = 134217729.0  # 2^27 + 1
_HI = np.array([float(10 ** q) for q in range(47)])
_LO = np.array([float(10 ** q - int(h)) for q, h in enumerate(_HI.tolist())])
_HH = _HI * _SPLIT - (_HI * _SPLIT - _HI)
_HL = _HI - _HH


def _least_double_at_least(k: int) -> float:
    """The least double >= 10^k, compared exactly as integer ratios."""
    f = float(f"1e{k}")
    num, den = f.as_integer_ratio()
    below = num * 10 ** -k < den if k < 0 else num < den * 10 ** k
    return np.nextafter(f, np.inf) if below else f


# |x| >= _POW[k + 30] exactly when |x| >= 10^k, for k in [-30, 17]. The
# kernel's range is [_POW[0], _POW[-1]): there E = floor(log10 |x|) lies in
# [-30, 16], and the scaled value |x| 10^(16 - E) stays inside the table.
_E_MIN = -30
_POW = np.array([_least_double_at_least(k) for k in range(_E_MIN, 18)])
# Scaled values are off by at most about 1e-14 where 10^q is not a double;
# within _TOL of a rounding decision the kernel leaves the value to Python.
_TOL = 2.0 ** -32
_MANTISSA = np.uint64(2 ** 52 - 1)


def _divmod(a: np.ndarray, d):
    """Quotient and remainder of non-negative integers; numpy's floor_divide
    is vectorised where its divmod is not."""
    q = a // d
    return q, a - q * d


def _words(rows, width: int = 8) -> np.ndarray:
    """Byte strings, NUL-padded to ``width`` bytes, as rows of little-endian
    uint64 words: byte k of a word is bits 8k to 8k + 7 on any host."""
    return np.frombuffer(b"".join(r.ljust(width, b"\0") for r in rows),
                         "<u8").reshape(len(rows), width // 8)


# "0000" to "9999": four ASCII digits in the low bytes of a word, and the
# number of trailing zero digits (4 for "0000").
_PAIR = _words([b"%02d" % i for i in range(100)])[:, 0]
_QUAD = (_PAIR[:, None] | (_PAIR << np.uint64(16))).ravel()
_TZ = np.zeros(10000, np.int64)
for _k in range(1, 5):
    _TZ[::10 ** _k] += 1

# A float's text takes four words: the sign and "0.000" prefix; then the 17
# digits with a possible "." in bytes 0-17 and the exponent suffix in bytes
# 18-21. NUL marks the bytes a value does not use. The digit bytes are
# (D & A) | (S & B) | C, where S is D moved one byte up and A, B and C are
# indexed by (dot + 1) * 17 + keep: the digits up to the "." come from D,
# the "." from C and the rest, up to digit ``keep``, from S. dot is the
# digit the "." follows, or -1.
_FLOAT_WIDTH = 32
_HEADER = _words([sign + (b"0." + b"0" * (z - 1) if z else b"")
                  for sign in (b"", b"-") for z in range(5)])[:, 0]
_A, _B, _C = (_words(masks, 24).T.copy() for masks in zip(*[
    (b"\xff" * (keep + 1), b"", b"") if dot < 0 else
    (b"\xff" * (min(keep, dot) + 1), b"\0" * (dot + 2) + b"\xff" * (keep - dot),
     b"\0" * (dot + 1) + b".")
    for dot in range(-1, 16) for keep in range(17)]))
_SUFFIX = _words([b"\0\0" + (b"e%+03d" % e if e < -4 or e > 15 else b"")
                  for e in range(_E_MIN, 18)])[:, 0]


def format_rows(template: str, columns: Sequence[np.ndarray],
                sep: str = "") -> Iterator[str]:
    """Yield the rows ``template % (c0[i], c1[i], ...)``, joined by ``sep``,
    in blocks of at most ``BLOCK_ROWS`` rows.

    The columns are numpy arrays, one per field, all of one length; columns
    of unequal length are a ValueError. A field is ``%.17g``, ``%r`` or
    ``%s`` and prints what ``%`` prints for the column's value as a Python
    object, so a float column's ``%r`` prints the float's repr, as
    ``json`` does, and not ``np.float64(...)``. The one exception: a ``%s``
    field of a bytes (``S``) column takes the bytes themselves. No separator
    is put between blocks. The template and the values must not contain
    NUL; a template with another conversion, or with one field too many or
    too few, is a ValueError.

    Each field's text is decided once per table, before the first block
    (see ``_text``). The float kernel costs a fixed time per call, so a
    column passed for several fields (one array object) with one text is
    formatted once a block, and each block packs its kernel fields of one
    mode into calls of at most ``BLOCK_ROWS`` values (see ``_packed_text``).
    """
    pieces = _FIELD.split(template)
    literals, specs = [p.encode() for p in pieces[::2]], pieces[1::2]
    joined = b"".join(literals)
    if b"\0" in joined or b"%" in joined or len(specs) != len(columns):
        raise ValueError(f"template {template!r} does not fit {len(columns)} "
                         "columns, or holds NUL or another conversion")
    n = len(columns[0]) if columns else 0
    for col in columns:
        if len(col) != n:
            raise ValueError(f"columns of unequal length: {n} and {len(col)}")
    literals[-1] += sep.encode()
    cut = len(sep.encode())
    literals = [np.frombuffer(p, np.uint8) for p in literals]
    # Each field's key is its column and its text; each distinct key's
    # column, in field order, is formatted once a block.
    keys = [(id(col), _text(spec, col)) for spec, col in zip(specs, columns)]
    plan = dict(zip(keys, columns))
    kernel = {mode: [key for key in plan if key[1] is mode] for mode in (False, True)}
    for start in range(0, n, BLOCK_ROWS):
        part = {key: col[start:start + BLOCK_ROWS] for key, col in plan.items()}
        texts = {key: _other_text(key[1], x) for key, x in part.items()
                 if not isinstance(key[1], bool)}
        for shortest, packed in kernel.items():
            if packed:
                texts.update(zip(packed, _packed_text([part[key] for key in packed],
                                                      shortest)))
        parts = [literals[0]]
        for key, literal in zip(keys, literals[1:]):
            parts += [texts[key], literal]
        del texts
        rows = len(parts[1])
        matrix = np.hstack([np.broadcast_to(p, (rows, p.shape[-1])) for p in parts])
        del parts
        block = matrix.tobytes()
        del matrix
        block = block.translate(None, b"\0")
        yield block[:len(block) - cut].decode()


def _text(spec: str, col: np.ndarray):
    """The one rule for how a field of ``col`` gets its text: True or False
    where the float kernel prints its ``repr`` or ``%.17g``, "S" where a
    bytes column fills a ``%s`` field itself, else the spec, for Python's
    ``%``."""
    if col.dtype == np.float64:
        return spec != ".17g"
    # An integer within 2^53 is a double, and its %.17g is its repr; %.17g
    # of any integer prints the nearest double, as the cast does.
    if col.dtype.kind == "i" and (spec == ".17g" or -2 ** 53 <= int(col.min(initial=0))
                                  and int(col.max(initial=0)) <= 2 ** 53):
        return False
    if col.dtype.kind == "S" and spec == "s":
        return "S"
    return spec


def _packed_text(xs: Sequence[np.ndarray], shortest: bool) -> list:
    """``_float_text`` of each of the equal-length arrays ``xs``, cast to
    doubles. They are concatenated and formatted in calls of at most
    ``BLOCK_ROWS`` values, so a full block's calls line up with its fields
    and no call sees more values than a full block's column does."""
    x = np.concatenate(xs).astype(np.float64, copy=False)
    out = np.empty((x.size, _FLOAT_WIDTH), np.uint8)
    for i in range(0, x.size, BLOCK_ROWS):
        out[i:i + BLOCK_ROWS] = _float_text(x[i:i + BLOCK_ROWS], shortest)
    return np.split(out, len(xs))


def _other_text(text: str, x: np.ndarray) -> np.ndarray:
    """The text of a field that ``_text`` leaves out of the float kernel,
    as a (rows, width) uint8 matrix, NUL-padded."""
    if text == "S":
        return np.ascontiguousarray(x).view(np.uint8).reshape(len(x), -1)
    return _python_text(text, x.tolist(), 0)


def _python_text(spec: str, values: list, width: int) -> np.ndarray:
    """``%`` of each value, as rows of at least ``width`` bytes."""
    fmt = "%" + spec
    text = np.array([(fmt % v).encode() for v in values], dtype=bytes)
    width = max(width, text.dtype.itemsize)
    return text.astype(f"S{width}").view(np.uint8).reshape(len(values), width)


def _scaled(a: np.ndarray, q: np.ndarray):
    """s + r = a 10^q, with |r| <= ulp(s)/2, and the table's hi and lo.

    Dekker's product of a with hi, the double nearest 10^q, is exact (a
    Veltkamp split, no fused multiply-add). a times lo, the rest of 10^q,
    adds an error below 1e-14 for s below 1e17; where 10^q is a double, lo
    is 0 and s + r is exact.
    """
    hi, lo = _HI[q], _LO[q]
    p = a * hi
    c = a * _SPLIT
    ah = c - (c - a)
    al = a - ah
    t = (((ah * _HH[q] - p) + ah * _HL[q] + al * _HH[q]) + al * _HL[q]) + a * lo
    s = p + t
    return s, t - (s - p), hi, lo


def _float_text(x: np.ndarray, shortest: bool) -> np.ndarray:
    """``%.17g`` (or, if ``shortest``, ``repr``) of each float as a row of
    ``_FLOAT_WIDTH`` NUL-padded bytes.

    The kernel takes +-0 and |x| in [_POW[0], _POW[-1]), that is in
    [1e-30, 1e17) exactly. E = floor(log10 |x|) is the clipped log10 guess
    moved down one where |x| < 10^E and up one where |x| >= 10^(E + 1),
    both compared through _POW, so the scaled value S = |x| 10^(16 - E)
    lies in [1e16, 1e17) and is computed once. The 17 digits are S rounded
    half-even. repr's digits are the first of the 15-, 16- and 17-digit
    roundings within half a unit in the last place of x, that is within
    h = spacing(x) 10^(16 - E) / 2 of S: a shorter string that reads back
    as x is the 15-digit rounding padded with zeros. Python formats the
    rest: values out of that range, NaN and inf, powers of two under repr
    (their lower neighbour is nearer), and any value whose S lies within
    ``_TOL`` of a rounding decision: of repr's bound h, of a half in a 15-
    or 16-digit rounding, or of a half in the 17-digit rounding where 10^q
    is not a double.
    """
    n = x.size
    a = np.abs(x)
    zero = a == 0.0
    fast = (a >= _POW[0]) & (a < _POW[-1])
    if shortest:
        fast &= (x.view(np.uint64) & _MANTISSA) != 0
    a = np.where(fast, a, 1.0)
    fast |= zero
    E = np.clip(np.floor(np.log10(a)), _E_MIN, 16).astype(np.int64)
    E -= a < _POW[E - _E_MIN]
    E += a >= _POW[E - _E_MIN + 1]
    s, r, hi, lo = _scaled(a, 16 - E)
    k = np.rint(r)
    d = r - k                      # S - N, exact where lo == 0
    N = s.astype(np.int64) + k.astype(np.int64)
    inexact = lo != 0.0
    fast &= ~(inexact & (np.abs(np.abs(d) - 0.5) < _TOL))
    if shortest:
        h = np.spacing(a) * hi * 0.5
        todo = fast.copy()
        for m in (100, 10):
            # N rounded to 17 - log10(m) digits, up or down; an exact tie
            # or a rounding within _TOL of h is left to Python.
            R = N - N // m * m
            up = (R > m // 2) | ((R == m // 2) & (d > 0))
            delta = np.abs((R - m * up) + d)
            unsure = (np.abs(delta - h) < _TOL) | ((R == m // 2) & (np.abs(d) < _TOL))
            take = todo & (delta < h) & ~unsure
            N = np.where(take, N - R + m * up, N)
            fast &= ~(todo & unsure)
            todo &= ~(take | unsure)
    carry = N == 10 ** 17
    N[carry] = 10 ** 16
    E += carry
    N[zero] = 0

    d0, rest = _divmod(N, 10 ** 16)
    hi8, lo8 = _divmod(rest, 10 ** 8)
    g1, g2 = _divmod(hi8, 10 ** 4)
    g3, g4 = _divmod(lo8, 10 ** 4)
    tz = _TZ[g1]
    for g in (g2, g3, g4):
        tz = np.where(g == 0, tz + 4, _TZ[g])
    last = 16 - tz

    expo = (E < -4) | (E > (15 if shortest else 16))
    whole = ~expo & (E >= 0)
    frac = ~expo & (E < 0)
    dot_at = np.where(whole, E, 0)
    if shortest:
        keep = np.where(whole, np.maximum(last, E + 1), last)
        dot = np.where(whole | (expo & (last > 0)), dot_at, -1)
    else:
        keep = np.where(whole, np.maximum(last, E), last)
        dot = np.where((whole | expo) & (last > dot_at), dot_at, -1)

    # The digits as three words, D, and moved one byte up, S.
    wa = _QUAD[g1] | (_QUAD[g2] << 32)
    wb = _QUAD[g3] | (_QUAD[g4] << 32)
    lead = d0.astype(np.uint64) + 48
    D = (lead | (wa << 8), (wa >> 56) | (wb << 8), wb >> 56)
    S = ((lead << 8) | (wa << 16), (wa >> 48) | (wb << 16), wb >> 48)
    i = (dot + 1) * 17 + keep
    out = np.empty((n, 4), np.uint64)
    out[:, 0] = _HEADER[np.signbit(x) * 5 + np.where(frac, -E, 0)]
    for w in range(3):
        out[:, w + 1] = (D[w] & _A[w][i]) | (S[w] & _B[w][i]) | _C[w][i]
    out[:, 3] |= _SUFFIX[np.where(expo, E, 0) - _E_MIN]
    out = out.astype("<u8", copy=False).view(np.uint8)

    slow = np.flatnonzero(~fast)
    if slow.size:
        out[slow] = _python_text("r" if shortest else ".17g", x[slow].tolist(),
                                 _FLOAT_WIDTH)
    return out
