"""Command-line front end: figure data generation and cross-validation.

Subcommands
-----------
scan-eta     grid of the modulation factor eta over (xi, theta)
eta-max      eta_max(xi) with theta_opt and chi at the optimum
offdiag      off-diagonal trajectory rho_ud(t) for a boosted spin vs rest
evolve       full single-qubit trajectory, analytic next to oracle columns
concurrence  two-qubit concurrence series with both reference curves
verify       full verification suite; exit 0 iff every check passes

Tables are written as CSV (12 significant digits, '#' comment header
carrying the parameters) or JSON (array of objects). Time grids
are specified on the dimensionless axis gamma*t**2 via --gamma-t2-max
and --points. Exit codes: 0 success, 1 verification/runtime failure,
2 usage error. A reader that closes stdout early is no error of the
command: its exit code stands.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
from types import SimpleNamespace
from typing import Iterable, Sequence

import numpy as np

from . import verify as verify_mod
from .channel import decay_exponent, evolve_elementwise, plus_state
from .entangle import bell_phi_plus, concurrence
from .oracle import (ORACLE_TOL, QuadratureSpec, _require_quadrature, average_quadrature,
                     two_qubit_average)
from .relkin import Scenario, eta_max, eta_profile
from .spinalg import require_valid

USAGE_ERROR = 2
# Largest --nodes, the range over which the node solver's fixed Newton step
# count was checked. Its work grows as n^2 on O(n) memory: at 2048 nodes it
# takes about 25 ms, and `concurrence --nodes 2048 --points 200` about 50 ms
# at a peak RSS of 42 MB, on a 2-core VM.
MAX_NODES = 2048


def _fmt(value) -> str:
    return format(value, ".12g") if isinstance(value, float) else str(value)


# Records per block of ``write_table`` and values per kernel call, so that a
# block's field column is one call. A call costs about 49 us ('%.12g') or
# 101 us (repr) plus 43 or 88 ns per value: 8192 pays the fixed part half as
# often as 4096. 16384 gained 1-2% in the benchmark's warm passes, but a fresh
# process wrote the 20,000-record eta-max JSON table in a minimum of 28.0 ms
# against 22.9, with 7,314 minor page faults against 4,012. A table reuses one
# block buffer per size: without that, a fresh process wrote the 300x300
# scan-eta grid in 25.2 ms against 21.1, with 5,271 faults against 2,190
# (16 runs each).
_BLOCK_ROWS = 8192

# A cell holds one number's text at a fixed width, padded with NUL bytes
# that the writer drops. The widths fit the longest '%.12g' and repr of a
# finite float, '-1.23456789012e-308' and '-1.2345678901234567e-308'.
_CELL_WIDTH = {False: 19, True: 24}
# Longest column that Python's formatter writes whole, without the kernel:
# it takes about 0.21 us ('%.12g') or 0.6 us (repr) per value, so a kernel
# call pays off only from about 250 or 190 values.
_SHORT_COLUMN = 192
_LANE = np.dtype("<u8")  # eight bytes of text, the first in the low byte
_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's split of a double into halves
_POW10 = np.array([float(10**i) for i in range(23)])  # all exact


def _items(cells: np.ndarray) -> np.ndarray:
    """An array's rows (..., n) as items (..., 1) of their n elements, which numpy copies whole."""
    return cells.view(np.dtype((np.void, cells.itemsize * cells.shape[-1])))


@functools.cache
def _tables(shortest: bool) -> SimpleNamespace:
    """The kernel's tables for 12 digits or for repr, built on first use, not at import.

    A cell is a row of eight-byte lanes. Lane 0 holds the sign, the '0.'
    of a value below 1 and, for 12 digits, the zeros after that point.
    The other lanes hold the digits, four-digit groups from ``words``; for
    repr the first group is '000d', whose zeros are the ones after '0.'.
    A pattern, one per (decimal point position, number of digits, sign),
    says which bytes of the cell are text. One more point position, past
    the last, stands for the digits d.ddd of a number written with an
    exponent, signed in the byte just ahead of them. The fields:

    digits  significant digits of the scaled value
    top     largest decimal exponent written without 'e'
    sign    byte of the sign, where a cell's text starts
    tail    bit of the last lane where a cell's last four bytes start
    scale   k of 10**k by biased binary exponent, at most one too large
    words   ASCII of 0000..9999, in the low four bytes of a lane
    ends    (group, 0..9999): digits up to the group's last nonzero one
    keep    (lane, pattern): digits that stay in place
    move    (lane, pattern): digits one byte right, behind the point
    marks   (lane, pattern): sign, '0.', zeros, point and the 0 of '.0'
    """
    digits, top = (17, 15) if shortest else (12, 11)
    groups = 5 if shortest else 3
    lead = 4 * groups - digits  # zeros ahead of the first digit
    lanes = 1 + (4 * groups + 1 + 7) // 8  # room for the digits and a point
    first = 8 + lead  # byte of the first digit
    # small dtypes: the tables live as long as the process, and so does
    # the heap they take
    n = np.arange(10_000, dtype=np.uint16)
    words = np.zeros(n.size, _LANE)
    last = np.zeros(n.size, np.uint8)  # 1 + position of the last nonzero digit
    for i, unit in enumerate((1000, 100, 10, 1)):
        digit = n // unit % 10
        words |= (digit + 48).astype(_LANE) << _LANE.type(8 * i)
        last[digit > 0] = i + 1
    ends = [np.where(last > 0, last + np.int16(4 * g - lead), 0).astype(np.uint8)
            for g in range(groups)]
    binary = np.arange(-1023, 1025, dtype=np.int16)
    scale = np.clip(digits - 1 - np.floor(binary * math.log10(2)).astype(np.intp), 0, 22)

    decpt, end, neg = (x.ravel() for x in np.meshgrid(
        np.arange(-3, top + 3), np.arange(digits + 1), np.arange(2), indexing="ij"))
    mantissa = decpt == top + 2  # d.ddd, the digits of d.ddde-XX
    decpt[mantissa] = 1
    byte = np.arange(8 * lanes)[:, None]
    point = first + decpt
    below = decpt <= 0  # '0.', then -decpt zeros, then the digits
    fraction = ~below & (decpt < end)
    keep = (byte >= first) & (byte < first + np.where(below, end, decpt))
    move = fraction & (byte > point) & (byte <= first + end)
    marks = np.zeros(keep.shape, np.uint8)
    marks[(byte == np.where(mantissa, first - 1, first - 6)) & (neg == 1)] = ord("-")
    marks[below & ((byte == first - 5) | (byte >= point) & (byte < first))] = ord("0")
    marks[below & (byte == first - 4)] = ord(".")
    marks[(fraction | ~below & ~mantissa & shortest) & (byte == point)] = ord(".")
    marks[~below & ~fraction & ~mantissa & shortest & (byte == point + 1)] = ord("0")

    def lanes_of(table):
        return np.ascontiguousarray(np.ascontiguousarray(table.T, np.uint8).view(_LANE).T)

    tail = 8 * (first - 6 + _CELL_WIDTH[shortest] - 4) - 64 * (lanes - 1)  # where 'e-XX' goes
    return SimpleNamespace(digits=digits, top=top, sign=first - 6, tail=_LANE.type(tail),
                           scale=scale, words=words, ends=ends, keep=lanes_of(keep * 0xFF)[1:],
                           move=lanes_of(move * 0xFF)[1:], marks=lanes_of(marks))


def _rounded_digits(values: np.ndarray, t: SimpleNamespace,
                    shortest: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(m, k, ok): the integer m of |v| 10**k rounded to ``t.digits`` digits, k, and
    the mask of the v for which both are certain; the first stage of ``_vector_cells``.

    A function of its own, so that its temporaries are freed before the
    kernel lays out the text. An 8192-value call so peaks at 0.97 MB of
    numpy temporaries (1.44 MB for repr), near the 0.79 (1.33) MB of a
    4096-value call in one function. Held to the end, its 1.57 (2.64) MB
    made glibc give the heap's top back and fault it in again on every
    block: in some heap layouts a fresh process wrote the 300x300 scan-eta
    grid with 5,790 minor page faults, against 2,050 at 4096 values.
    """
    digits, top = t.digits, t.top
    a = np.abs(values)
    scaled = a < _POW10[top + 1]
    np.copyto(a, 1.0, where=~scaled)  # the rest take no part in the arithmetic
    bits = a.view(np.int64)
    k = t.scale[bits >> 52]
    y = a * _POW10[k]
    k -= y >= _POW10[digits]
    p = _POW10[k]
    y = a * p
    ok = scaled & (y >= _POW10[digits - 1]) & (y < _POW10[digits])
    if shortest:
        c = a * _SPLIT
        ah = c - (c - a)
        al = a - ah
        c = p * _SPLIT
        ph = c - (c - p)
        pl = p - ph
        lo = al * pl - (((y - ah * ph) - al * ph) - ah * pl)
        half = (bits & (0x7FF << 52)).view(np.float64) * 2.0**-53 * p
        ok &= (bits & ((1 << 52) - 1)) != 0
        m = y.astype(np.int64)
        r100 = (m - m // 100 * 100).astype(np.float64)
        r10 = r100 - 10.0 * np.floor(r100 / 10.0)
        # steps from y to the multiples of 100, of 10 and of 1 nearest to Y;
        # y >= 2**53 is even, so the last rounds a tie to even, as repr does
        shift = [np.rint((r + lo) / unit) * unit - r for r, unit in ((r100, 100), (r10, 10))]
        shift.append(np.rint(lo))
        gap = [np.abs(s - lo) for s in shift[:2]]
        inside = [g < half for g in gap]
        unsure = np.abs(gap[0] - half) <= 1e-9
        unsure |= ~inside[0] & (np.abs(gap[1] - half) <= 1e-9)
        unsure |= ~inside[0] & inside[1] & (np.abs(gap[1] - 5.0) <= 1e-9)
        ok &= ~unsure
        shift = np.where(inside[0], shift[0], np.where(inside[1], shift[1], shift[2]))
        m += shift.astype(np.int64)
    else:
        rounded = np.floor(y + 0.5)
        frac = y + 0.5 - rounded  # both sums exact: y < 2**40
        ok &= (frac > 2.0**-12) & (frac < 1.0 - 2.0**-12)
        m = rounded.astype(np.int64)
    return m, k, ok


def _vector_cells(values: np.ndarray, shortest: bool) -> tuple[np.ndarray, np.ndarray]:
    """Cells (n, width) of finite float64 ``values`` and the mask of those certified.

    A certified cell holds exactly ``'%.12g' % v`` or, with ``shortest``,
    ``repr(v)``; the others hold garbage for the caller to replace. |v| is
    scaled by an exact power of ten 10**k, k <= 22, to Y in [10**(d-1),
    10**d), d = 12 or 17 digits. For 12 digits Y is one correctly rounded
    product, and its integer is certain unless Y lies within 2**-12 of a
    half. For repr, Dekker's product gives Y exactly as y + lo, and the
    half-gap h = ulp(v)/2 * 10**k bounds the numbers that round to v: the
    nearest multiple of 100 within h of Y is the shortest text, else the
    nearest multiple of 10, else the nearest integer, which h > 0.55 always
    admits. A choice that a margin of 1e-9 cannot settle is not certified,
    nor is a power of two (its lower gap is half).

    The certified set is so every finite v that an exact 10**k scales:
    zero, and |v| from about 1e-11 (1e-6 for repr) below 10**12 (10**16),
    but for the near-ties and the powers of two. Smaller and larger
    values, subnormals among them, are not certified. Below 1e-4 the text
    has an exponent: the digits d.ddd take a pattern of their own, signed
    in the byte ahead of them, and move five bytes up, to the cell's sign
    byte; 'e-XX', its two digits computed from the exponent, fills the
    cell's last four bytes, and the NUL bytes between are dropped with the
    others. A cell's text is its bytes other than NUL.
    """
    t = _tables(shortest)
    digits, top = t.digits, t.top
    m, k, ok = _rounded_digits(values, t, shortest)
    zero = values == 0.0
    exponent = (digits - 1) - k
    carry = m == 10**digits
    m[carry] = 10 ** (digits - 1)
    exponent += carry
    ok &= exponent <= top
    ok |= zero
    live = ok & ~zero
    m *= live
    exponent *= live  # zero and the uncertified take the pattern of 0
    tiny = exponent < -4  # written d.ddde-XX, the digits in a pattern of their own
    groups = []  # four-digit groups of m, the most significant first
    for _ in range(len(t.ends) - 1):
        high = m // 10_000
        groups.append(m - high * 10_000)
        m = high
    groups = [m] + groups[::-1]
    end = t.ends[0][groups[0]]
    for g in range(1, len(groups)):
        np.maximum(end, t.ends[g][groups[g]], out=end)
    # (decimal point, digits, sign) in the order of _tables' meshgrid
    pattern = ((np.where(tiny, top + 1, exponent) + 4) * (digits + 1) + end) * 2 \
        + np.signbit(values)
    cells = np.empty((values.size, len(t.marks)), _LANE)
    cells[:, 0] = t.marks[0][pattern]
    quads = [t.words[g] for g in groups] + [_LANE.type(0)]
    lanes = [quads[i] | quads[i + 1] << _LANE.type(32) for i in range(0, len(groups), 2)]
    del m, groups, quads  # the lanes hold their digits now
    for i, lane in enumerate(lanes):
        moved = lane << _LANE.type(8)
        if i:
            moved |= lanes[i - 1] >> _LANE.type(56)
        cells[:, i + 1] = (lane & t.keep[i][pattern]) | (moved & t.move[i][pattern]) \
            | t.marks[i + 1][pattern]
    if tiny.any():
        # d.ddd moves five bytes up, to the sign, and 'e-XX' ends the cell
        tiny = np.flatnonzero(tiny)
        tens, ones = np.divmod(-exponent[tiny], 10)
        suffix = (ord("e") | ord("-") << 8 | (48 + tens) << 16 | (48 + ones) << 24).astype(_LANE)
        rows = _items(cells)[:, 0]
        text = np.take(rows, tiny).view(_LANE)  # their lanes, one row after another
        shifted = text >> _LANE.type(40)
        shifted[:-1] |= text[1:] << _LANE.type(24)
        last = slice(cells.shape[1] - 1, None, cells.shape[1])  # each row's last lane
        shifted[last] = text[last] >> _LANE.type(40) | suffix << t.tail
        np.put(rows, tiny, shifted.view(rows.dtype))
    return cells.view(np.uint8)[:, t.sign:t.sign + _CELL_WIDTH[shortest]], ok


def _cells(values: np.ndarray, shortest: bool, out: np.ndarray | None = None) -> np.ndarray:
    """NUL-padded cells of ``'%.12g' % v`` or ``repr(v)`` of finite float64 ``values``.

    The kernel writes them ``_BLOCK_ROWS`` at a time, each straight into
    its rows of ``out``, which may be any (n, width) uint8 view, such as a
    column of a record block; without ``out`` a new array takes them.
    Python's own formatter then writes the cells the kernel did not
    certify, into the same rows. It writes a column of at most
    ``_SHORT_COLUMN`` values whole, faster than one kernel call could.
    """
    width = _CELL_WIDTH[shortest]
    if out is None:
        out = np.empty((values.size, width), np.uint8)
    if values.size <= _SHORT_COLUMN:
        missed = np.arange(values.size)
    else:
        items = _items(out)
        missed = []
        for i in range(0, values.size, _BLOCK_ROWS):
            cells, ok = _vector_cells(values[i:i + _BLOCK_ROWS], shortest)
            items[i:i + _BLOCK_ROWS] = _items(cells)
            missed.append(np.flatnonzero(~ok) + i)
        missed = np.concatenate(missed)
    if missed.size:
        spec = f"%-{width}{'r' if shortest else '.12g'}" * missed.size
        text = (spec % tuple(values[missed].tolist())).encode().replace(b" ", b"\0")
        out[missed] = np.frombuffer(text, np.uint8).reshape(-1, width)
    return out


def write_table(rows: Sequence[np.ndarray], path, fmt: str, fieldnames: Sequence[str],
                comments: Iterable[str] = ()) -> None:
    """Write a table of finite float records as CSV or JSON.

    ``rows`` holds one float array per field name, each of the records'
    shape, ``(n,)`` or a grid's ``(outer, inner)`` written in row-major
    order, or a grid axis ``(outer, 1)`` or ``(1, inner)``; ``(1, 1)`` is an
    axis of one value. Any other shape, dtype or field count, and a
    non-finite entry, which names its column, raise ``ValueError`` before
    anything is written. CSV: optional '#' comment lines, a header of field
    names, then the records, each number as ``'%.12g' % v``, with '\\n'
    line endings. JSON: an array of objects keyed by the field names, as
    ``json.dump(..., indent=2)`` writes it, each number as ``repr(v)``.
    ``path`` may be a filesystem path or an open text stream.

    Records are written in blocks: whole outer rows up to ``_BLOCK_ROWS``
    records, or ``_BLOCK_ROWS`` records of a longer row. A block is a
    bytearray of NUL-padded records, copies of one record template (the
    separators and JSON keys, with a slot of fixed width for each number),
    reused for every block of its size. The kernel ``_vector_cells`` writes
    each field's cells straight into its slots, but an axis's once, for
    each block to copy; the bytearray's own ``translate`` drops the NUL bytes.
    The kernel certifies each number it writes: every finite number scaled
    by an exact power of ten, that is |v| from about 1e-11 (1e-6 for repr)
    below 10**12 (10**16), in positional notation or, below 1e-4, with an
    exponent. Python's own formatter writes the rest: a number near a
    rounding tie, one smaller or larger, a subnormal, and for repr a power
    of two; and it writes a column of at most ``_SHORT_COLUMN`` (192)
    values whole, as a short table or a short tail block has.
    """
    k = len(fieldnames)
    fields = () if isinstance(rows, np.ndarray) else tuple(rows)  # an array is no tuple of fields
    shapes = [f.shape for f in fields if isinstance(f, np.ndarray) and f.ndim in (1, 2)
              and np.issubdtype(f.dtype, np.floating)]
    try:
        shape = np.broadcast_shapes(*shapes)
    except ValueError:
        shape = None
    # a 1-D field has the records' shape, a 2-D one the grid's or an axis's
    if (isinstance(rows, np.ndarray) or len(fields) != k or len(shapes) != k or shape is None
            or any(len(s) == 1 and s != shape for s in shapes)):
        raise ValueError(f"rows must hold {k} float arrays, one per field, each of the records' "
                         f"shape (n,) or (outer, inner), or a grid axis of shape (outer, 1) or "
                         f"(1, inner); got {[np.shape(f) for f in fields]}")
    outer, inner = (1, 1, *shape)[-2:]
    fields = [np.atleast_2d(f.astype(np.float64, copy=False)) for f in fields]  # (n,) as (1, n)
    for name, f in zip(fieldnames, fields):
        if not np.isfinite(f).all():
            raise ValueError(f"column {name!r} has a non-finite entry; "
                             "tables hold finite numbers only")
    if fmt == "csv":
        head = "".join(f"# {comment}\n" for comment in comments) + ",".join(fieldnames) + "\n"
        keys, fsep, sep, tail = [""] * k, ",", "", ""
        opening, closing = "", "\n"
    elif fmt == "json":
        fsep = ",\n"
        keys = [f"    {json.dumps(name)}: " for name in fieldnames]
        opening, closing = ("  {\n", "\n  }") if k else ("  {", "}")
        head, sep, tail = ("[\n", ",\n", "\n]\n") if outer * inner else ("[]\n", "", "")
    else:
        raise ValueError(f"unknown format {fmt!r}")
    shortest, width = fmt == "json", _CELL_WIDTH[fmt == "json"]

    # One record: its text between the cells, which start at ``starts``.
    # Every record begins with ``sep``; the table's first one drops it.
    texts = [(fsep if j else "") + key for j, key in enumerate(keys)] + [closing]
    texts[0] = sep + opening + texts[0]
    starts = np.cumsum([len(text) for text in texts[:-1]]) + width * np.arange(k)
    record = np.frombuffer("\0".ljust(width, "\0").join(texts).encode(), np.uint8)

    # each axis's cells, by field, read by the records as a (outer, inner) view;
    # a view by shape, as a square grid cannot tell its axes apart by length
    axes = {j: np.broadcast_to(_items(_cells(f.ravel(), shortest)).reshape(f.shape),
                               (outer, inner))
            for j, f in enumerate(fields) if f.shape != (outer, inner)}
    blocks: dict[int, bytearray] = {}  # by size: the full blocks and the tail

    def _block(o0: int, o1: int, j0: int, j1: int) -> str:
        # the kernel writes each field's cells in place, and the block's own
        # translate drops the NUL bytes: no copy of the cells or block; the
        # template fill rewrites every byte of a reused block
        size = (o1 - o0) * (j1 - j0) * record.size
        block = blocks.get(size)
        if block is None:
            block = blocks[size] = bytearray(size)
        out = np.frombuffer(block, np.uint8).reshape(o1 - o0, j1 - j0, record.size)
        _items(out)[...] = _items(record)
        records = out.reshape(-1, record.size)
        for j, f in enumerate(fields):
            if j in axes:
                _items(out[:, :, starts[j]:starts[j] + width])[..., 0] = axes[j][o0:o1, j0:j1]
            else:
                _cells(f[o0:o1, j0:j1].ravel(), shortest,
                       out=records[:, starts[j]:starts[j] + width])
        text = block.translate(None, b"\0").decode("ascii")
        return text if o0 or j0 else text[len(sep):]

    spans = [(j0, min(j0 + _BLOCK_ROWS, inner)) for j0 in range(0, inner, _BLOCK_ROWS)]
    step = max(1, _BLOCK_ROWS // inner) if inner else 1

    def _render(stream):
        stream.write(head)
        for o0 in range(0, outer, step):
            for j0, j1 in spans:
                stream.write(_block(o0, min(o0 + step, outer), j0, j1))
        stream.write(tail)

    if hasattr(path, "write"):
        _render(path)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as stream:
            _render(stream)
    except OSError as exc:
        raise OSError(f"cannot write table to {path!r}: {exc}") from exc


class _CliError(Exception):
    """Usage error carrying the offending flag name."""

    def __init__(self, flag: str, message: str):
        super().__init__(f"{flag}: {message}")
        self.flag = flag


def _finite_float(text: str) -> float:
    """argparse type of every float flag: a finite number."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _read_config(path: str) -> dict[str, str]:
    """Parse a 'key = value' file; '#' starts a comment."""
    values: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise _CliError("--config", f"line {lineno} is not 'key = value': {raw.strip()!r}")
                key, value = line.split("=", 1)
                values[key.strip().replace("-", "_")] = value.strip()
    except OSError as exc:
        raise _CliError("--config", str(exc)) from exc
    return values


def _config_flags(p: argparse.ArgumentParser, path: str) -> list[str]:
    """The config file's entries as '--flag=value' arguments of subcommand ``p``,
    which so go through their flags' own types and choices."""
    flags = {a.dest: a.option_strings[0] for a in p._actions if a.option_strings}
    del flags["help"], flags["config"]
    out = []
    for key, value in _read_config(path).items():
        if key not in flags:
            raise _CliError("--config", f"unknown key {key!r}")
        out.append(f"{flags[key]}={value}")
    return out


def _require(condition: bool, flag: str, message: str) -> None:
    if not condition:
        raise _CliError(flag, message)


def _scenario_from_args(args, phi: float) -> Scenario:
    xi = args.xi
    _require(xi >= 0, "--xi", f"must be >= 0, got {xi}")
    theta = args.theta
    if theta is None:
        theta = float(eta_max(xi).theta_opt)
        # asin(sech(xi/2)/sqrt 2) is subnormal from xi ~ 1418 and 0, where eta is 0, from ~1490
        _require(theta >= sys.float_info.min, "--theta",
                 f"the default theta maximising eta underflows to {theta!r} at rapidity "
                 f"xi = {xi!r}; pass --theta")
    _require(0.0 <= theta <= math.pi, "--theta", f"must lie in [0, pi], got {theta}")
    _require(0.0 <= phi < 2.0 * math.pi, "--phi", f"must lie in [0, 2*pi), got {phi}")
    gamma = 1.0 if args.gamma is None else args.gamma
    # a subnormal rate carries too few digits, and its times overflow
    _require(gamma >= sys.float_info.min, "--gamma",
             f"must be a normal float > 0 (at least {sys.float_info.min!r}), got {gamma!r}")
    return Scenario(xi, theta, phi, gamma=gamma)


def _quadrature_from_args(args) -> QuadratureSpec:
    _require(2 <= args.nodes <= MAX_NODES, "--nodes",
             f"must lie in [2, {MAX_NODES}], got {args.nodes}")
    return QuadratureSpec(nodes=args.nodes)


def _time_grid(args, gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """(gamma_t2 grid, times) from --gamma-t2-max/--points at dephasing rate ``gamma``."""
    g_max = args.gamma_t2_max
    points = args.points
    _require(g_max > 0, "--gamma-t2-max", f"must be > 0, got {g_max}")
    _require(points >= 2, "--points", f"must be >= 2, got {points}")
    _require(g_max / gamma < math.inf, "--gamma-t2-max",
             f"times sqrt({g_max} / gamma) overflow at gamma = {gamma!r}")
    grid = np.linspace(0.0, g_max, points)
    return grid, np.sqrt(grid / gamma)


def _echo_params(args, keys: Sequence[str]) -> list[str]:
    parts = [f"command = {args.command}"]
    parts.extend(f"{k.replace('_', '-')} = {_fmt(getattr(args, k))}" for k in keys
                 if getattr(args, k) is not None)
    return parts


def _cmd_scan_eta(args) -> int:
    _require(args.xi_max > 0, "--xi-max", f"must be > 0, got {args.xi_max}")
    _require(args.xi_steps >= 1, "--xi-steps", f"must be >= 1, got {args.xi_steps}")
    _require(args.theta_steps >= 1, "--theta-steps", f"must be >= 1, got {args.theta_steps}")
    _require(0 < args.theta_max <= math.pi, "--theta-max", f"must lie in (0, pi], got {args.theta_max}")
    xi = np.linspace(0.0, args.xi_max, args.xi_steps)[:, None]
    theta = np.linspace(0.0, args.theta_max, args.theta_steps)[None, :]
    comments = _echo_params(args, ("xi_max", "xi_steps", "theta_steps", "theta_max"))
    write_table((xi, theta, eta_profile(xi, theta)), args.out, args.format, ("xi", "theta", "eta"),
                comments)
    return 0


def _cmd_eta_max(args) -> int:
    _require(args.xi_max > 0, "--xi-max", f"must be > 0, got {args.xi_max}")
    _require(args.xi_steps >= 2, "--xi-steps", f"must be >= 2, got {args.xi_steps}")
    xi = np.linspace(0.0, args.xi_max, args.xi_steps)
    opt = eta_max(xi)
    write_table((xi, opt.eta_max, opt.theta_opt, opt.chi_at_opt), args.out, args.format,
                ("xi", "eta_max", "theta_opt", "chi_at_opt"),
                _echo_params(args, ("xi_max", "xi_steps")))
    return 0


def _cmd_offdiag(args) -> int:
    s = _scenario_from_args(args, phi=0.0)
    args.theta = s.theta  # echo the resolved angle
    grid, times = _time_grid(args, s.gamma)
    # the boosted case and the case at rest, one stack of two
    pair = Scenario(np.array([[s.xi], [0.0]]), np.array([[s.theta], [0.0]]), gamma=s.gamma)
    boosted, rest = evolve_elementwise(plus_state(), pair, times)[..., 0, 1].real
    comments = _echo_params(args, ("xi", "theta", "gamma", "gamma_t2_max", "points"))
    write_table((grid, boosted, rest), args.out, args.format,
                ("gamma_t2", "rho_ud_boosted", "rho_ud_rest"), comments)
    return 0


def _warn_unresolved(label: str, worst: float) -> None:
    """One stderr warning naming --nodes when the oracle misses an exact value by > ORACLE_TOL."""
    if not worst <= ORACLE_TOL:
        print(f"warning: {label} = {_fmt(worst)} exceeds {ORACLE_TOL:g}; "
              f"the quadrature oracle may be under-resolved, try a larger --nodes",
              file=sys.stderr)


def _cmd_evolve(args) -> int:
    s = _scenario_from_args(args, args.phi)
    args.theta = s.theta  # echo the resolved angle
    quad = _quadrature_from_args(args)
    try:
        if not args.bloch.isprintable():  # its echo would break the comment block
            raise ValueError(f"must be printable text, got {args.bloch!r}")
        bloch = [float(x) for x in args.bloch.split(",")]
        if len(bloch) != 3:
            raise ValueError("need exactly three components")
        if not np.linalg.norm(bloch) <= 1.0 + 1e-12:
            raise ValueError("Bloch vector must be finite with norm <= 1")
    except ValueError as exc:
        raise _CliError("--bloch", str(exc)) from exc
    rx, ry, rz = bloch
    rho0 = 0.5 * np.array([[1 + rz, rx - 1j * ry], [rx + 1j * ry, 1 - rz]])
    require_valid(rho0)
    grid, times = _time_grid(args, s.gamma)
    ana = evolve_elementwise(rho0, s, times)
    require_valid(ana)
    _require_quadrature(s, times, quad.nodes)  # names the first time the oracle refuses
    num = average_quadrature(rho0, s, times, quad)
    require_valid(num)
    worst = float(np.abs(ana - num).max())
    comments = _echo_params(args, ("xi", "theta", "phi", "gamma", "gamma_t2_max", "points",
                                   "nodes", "bloch"))
    comments.append(f"max_analytic_oracle_diff = {_fmt(worst)}")
    write_table((grid, ana[:, 0, 0].real, num[:, 0, 0].real, ana[:, 0, 1].real,
                 num[:, 0, 1].real, ana[:, 0, 1].imag, num[:, 0, 1].imag), args.out, args.format,
                ("gamma_t2", "rho_uu_analytic", "rho_uu_oracle", "re_rho_ud_analytic",
                 "re_rho_ud_oracle", "im_rho_ud_analytic", "im_rho_ud_oracle"), comments)
    _warn_unresolved("max_analytic_oracle_diff", worst)
    return 0


def _cmd_concurrence(args) -> int:
    s = _scenario_from_args(args, phi=0.0)
    args.theta = s.theta  # echo the resolved angle
    quad = _quadrature_from_args(args)
    grid, times = _time_grid(args, s.gamma)
    _require_quadrature(s, times, quad.nodes)  # names the first time the oracle refuses
    states = two_qubit_average(bell_phi_plus(), s, times, quad)
    require_valid(states)
    values = concurrence(states)
    rest = np.exp(-decay_exponent(4.0 * s.gamma, times))
    boosted = np.exp(-decay_exponent(4.0 * s.gamma_prime, times))
    comments = _echo_params(args, ("xi", "theta", "gamma", "gamma_t2_max", "points", "nodes"))
    write_table((grid, values, rest, boosted), args.out, args.format,
                ("gamma_t2", "concurrence", "reference_rest", "reference_boosted"), comments)
    # at phi = 0 the boosted reference is exact for every theta (see ``entangle``)
    _warn_unresolved("max|concurrence - reference_boosted|",
                     float(np.abs(values - boosted).max()))
    return 0


def _cmd_verify(args) -> int:
    _require(0 <= args.seed < 2**64, "--seed", f"must lie in [0, 2**64), got {args.seed}")
    results = verify_mod.run_checks(seed=args.seed)
    render = verify_mod.format_json if args.format == "json" else verify_mod.format_report
    report = render(results, seed=args.seed)
    if args.out is not sys.stdout:
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(report)
        except OSError as exc:
            raise OSError(f"cannot write report to {args.out!r}: {exc}") from exc
    else:
        with contextlib.suppress(BrokenPipeError):  # a closed stdout keeps verify's exit code
            sys.stdout.write(report)
    return 0 if all(r.passed for r in results) else 1


def _add_common(p: argparse.ArgumentParser, func) -> None:
    p.add_argument("--config", help="key = value file of flag values; explicit flags override it")
    p.add_argument("--out", help="output path (default: stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv",
                   help="table format (default %(default)s)")
    p.set_defaults(func=func)


def _add_scenario_flags(p: argparse.ArgumentParser, gamma_t2_max: float, points: int) -> None:
    p.add_argument("--xi", type=_finite_float, default=2.5)
    p.add_argument("--theta", type=_finite_float, help="default: theta maximising eta")
    p.add_argument("--gamma-t2-max", type=_finite_float, default=gamma_t2_max)
    p.add_argument("--points", type=int, default=points)
    p.add_argument("--gamma", type=_finite_float, help="rest-frame dephasing rate (default 1)")


@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and the parser of each subcommand by name, built
    once per process, on first use. No call changes them."""
    parser = argparse.ArgumentParser(
        prog="spinboost",
        description="Decoherence of a boosted spin-1/2 in Gaussian magnetic noise",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scan-eta", help="eta over a (xi, theta) grid")
    p.add_argument("--xi-max", type=_finite_float, default=3.0)
    p.add_argument("--xi-steps", type=int, default=60)
    p.add_argument("--theta-steps", type=int, default=90)
    p.add_argument("--theta-max", type=_finite_float, default=math.pi / 2)
    _add_common(p, _cmd_scan_eta)

    p = sub.add_parser("eta-max", help="eta_max, theta_opt and chi over a xi grid")
    p.add_argument("--xi-max", type=_finite_float, default=10.0)
    p.add_argument("--xi-steps", type=int, default=101)
    _add_common(p, _cmd_eta_max)

    p = sub.add_parser("offdiag", help="rho_ud(t) boosted vs rest (coherent initial state)")
    _add_scenario_flags(p, gamma_t2_max=4.0, points=200)
    _add_common(p, _cmd_offdiag)

    p = sub.add_parser("evolve", help="single-qubit trajectory, analytic + oracle columns")
    _add_scenario_flags(p, gamma_t2_max=4.0, points=200)
    p.add_argument("--phi", type=_finite_float, default=0.0)
    p.add_argument("--nodes", type=int, default=201,
                   help=f"Gauss-Hermite nodes of the oracle, 2 to {MAX_NODES} (default %(default)s)")
    p.add_argument("--bloch", default="1,0,0",
                   help="initial Bloch vector 'x,y,z' (default %(default)s)")
    _add_common(p, _cmd_evolve)

    p = sub.add_parser("concurrence", help="two-qubit concurrence under the common bath")
    _add_scenario_flags(p, gamma_t2_max=1.0, points=50)
    p.add_argument("--nodes", type=int, default=201,
                   help=f"Gauss-Hermite nodes of the oracle, 2 to {MAX_NODES} (default %(default)s)")
    _add_common(p, _cmd_concurrence)

    p = sub.add_parser("verify", help="run the verification suite")
    p.add_argument("--seed", type=int, default=42,
                   help="seed for randomized checks (default %(default)s)")
    _add_common(p, _cmd_verify)

    return parser, sub.choices


def main(argv: Sequence[str] | None = None) -> int:
    parser, commands = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    code = 0  # a table's, should its reader close stdout while it is written
    try:
        args = parser.parse_args(argv)
        if args.config:
            # the entries come before the explicit flags, which so win
            rest = argv[argv.index(args.command) + 1:]
            args = parser.parse_args([args.command, *_config_flags(commands[args.command],
                                                                   args.config), *rest])
        if args.out is None:
            args.out = sys.stdout
        code = args.func(args)
        sys.stdout.flush()  # so a closed stdout fails here, not at the interpreter's exit
        return code
    except SystemExit as exc:
        # argparse exits with 0 after --help and 2 on usage errors
        return 0 if exc.code == 0 else USAGE_ERROR
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except BrokenPipeError:
        # the reader closed stdout early, no failure of the command; stdout goes to
        # devnull, so that the flush at exit cannot fail again (Python's signal docs)
        with open(os.devnull, "w") as null:
            os.dup2(null.fileno(), sys.stdout.fileno())
        return code
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy raises its own subclass for an array too large
        print(f"error: MemoryError: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
