"""Weighted multigraphs and sum-vertex-cover evaluation.

A graph is undirected, has vertices 0..n-1, strictly positive edge weights,
no self-loops, and may contain parallel edges (kept distinct, never merged
implicitly).

An ordering sigma visits one vertex per step, steps numbered from 1.  An edge
is covered the first time one of its endpoints is visited, and its cover time
is that step number.  The sum-vertex-cover value of an ordering is

    svc(sigma) = sum_e w_e * cover_time(sigma, e)

which equals the sum over t = 0..n-1 of the total weight still uncovered
after the first t visits.  svc_value computes the first; tests hold it
against the second.

Text format (LF line endings, 0-based integer ids below 2^31)::

    msvc-graph 1
    <n> <m>
    <u> <v> <w>     (m lines)

The record reader and writer in this module serve all four text
formats (graph, unique games, labels, hardness config): blank lines after
the header are skipped, row counts must match exactly, and errors name the
line of the file.  Files are read and written as bytes: a CRLF line end is
accepted, a bare CR ends no line, and a non-ASCII byte is an error.  A
table is read in one pass, a block of lines at a time, into columns sized
from its header, and written a chunk of rows at a time, each chunk
formatting only its own distinct values, so neither holds the text of the
whole file or an array as long as a column.  The blocks are parsed one
after another on the calling thread: rows as the writer writes them with
numpy array operations, any others with np.loadtxt, so both give the same
values and the same errors.  A read that fails counts the lines once
more, a block at a time, only to number the line it names.
"""

from __future__ import annotations

import collections
import hashlib
import io
import os
import re
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from typing import NamedTuple

import numpy as np

GRAPH_MAGIC = "msvc-graph 1"

# Bitmask tables are only built while 2^n stays modest.
_TABLE_MAX_BITS = 24

# Vertex counts stay below this, so that ids fit int32 (16 bytes per edge,
# not 24); the n-entry arrays of degrees and positions would not fit past it.
_MAX_VERTICES = 1 << 31

# Rows per chunk of a table written, of cover times gathered and of edges
# checked.  save_graph of the L = 8 reduction graph traces 0.78 MiB above
# the graph (1.5 MiB with 2^14 rows, 6.2 MiB with 2^16), in 8% more time
# than with 2^14 rows; its chunks set the peak RSS of `reduce build`.
_CHUNK_ROWS = 1 << 13

# Arrays of fewer bytes come from the heap: below this a mapping and its
# unmapping cost more than the pages they hand back (a one-column copula
# slab is 768 bytes to 3 KiB).
_MAPPED_MIN_BYTES = 1 << 16

# numpy asks for transparent huge pages for arrays from 4 MiB up, and so
# does _mapped_zeros: in 4 KiB pages an 8 MiB table faults in 2 ms more.
_HUGE_PAGE_MIN_BYTES = 1 << 22


def _workers():
    """Pool size: one thread per CPU in this process's affinity set."""
    return len(os.sched_getaffinity(0))


def _parallel_map(fn, items):
    """list(map(fn, items)) on _workers() threads, in input order.

    The calls must write disjoint data; they overlap where numpy drops the
    GIL.  Fewer than two items run inline, without a pool.
    """
    if len(items) < 2:
        return list(map(fn, items))
    with ThreadPoolExecutor(_workers()) as pool:
        return list(pool.map(fn, items))


def _mapped_zeros(count, dtype):
    """np.zeros(count, dtype), held in a private anonymous mapping of its
    own from _MAPPED_MIN_BYTES up (its .base is the mmap.mmap).

    The pages leave the process when the array and its views die,
    whatever glibc's dynamic mmap threshold has become.  A freed 8 MB
    table raises that threshold, and a heap array of that size then comes
    from the brk heap and stays resident after its call.
    """
    # imported here, so that the commands that map nothing (reduce,
    # unweight) do not load the extension: 40 KiB of their peak RSS
    import mmap

    dtype = np.dtype(dtype)
    nbytes = count * dtype.itemsize
    if nbytes < _MAPPED_MIN_BYTES:
        return np.zeros(count, dtype)
    buffer = mmap.mmap(-1, nbytes, flags=mmap.MAP_PRIVATE)
    if nbytes >= _HUGE_PAGE_MIN_BYTES and hasattr(mmap, "MADV_HUGEPAGE"):
        try:
            buffer.madvise(mmap.MADV_HUGEPAGE)
        except OSError:  # a kernel built without transparent huge pages
            pass
    return np.ndarray(count, dtype, buffer=buffer)


def _distinct(values):
    """The sorted distinct values of a 1-d array, as np.unique gives them.

    np.unique also copies its input and imports numpy.ma on its first call.
    """
    values = np.sort(values)
    keep = np.empty(values.size, dtype=bool)
    keep[:1] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


class GraphFormatError(ValueError):
    """A graph/instance file does not match its documented text format."""


def _first_problem(bad):
    """(row, reason) for the first row flagged in a {reason: row mask} dict, or None."""
    first = {reason: int(np.argmax(mask)) for reason, mask in bad.items() if mask.any()}
    if not first:
        return None
    reason = min(first, key=first.get)
    return first[reason], reason


def _edge_problem(n, u, v, w):
    """(row, reason) for the first edge that breaks the graph invariants, or None.

    The bounds of the columns are tested first (NaN fails them too), so
    that a valid graph builds no mask as long as the edge list but u == v.
    If one fails, the reason masks are built a _CHUNK_ROWS chunk at a time:
    the first chunk with a bad row holds the first bad row.
    """
    if (min(u.size, v.size, w.size) and 0 <= min(u.min(), v.min()) and max(u.max(), v.max()) < n
            and w.min() > 0.0 and np.isfinite(w.max()) and not (u == v).any()):
        return None
    for lo in range(0, u.size, _CHUNK_ROWS):
        cu, cv, cw = (a[lo : lo + _CHUNK_ROWS] for a in (u, v, w))
        problem = _first_problem({
            "vertex id out of range": (cu < 0) | (cu >= n) | (cv < 0) | (cv >= n),
            "self-loop": cu == cv,
            "weight must be positive and finite": ~(np.isfinite(cw) & (cw > 0.0)),
        })
        if problem is not None:
            return lo + problem[0], problem[1]
    return None


def _vertex_count(n):
    """int(n), for 0 <= n < _MAX_VERTICES; a ValueError otherwise."""
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    if n >= _MAX_VERTICES:
        raise ValueError(f"vertex count must be below 2^31, got {n}")
    return int(n)


class WeightedGraph:
    """Undirected weighted multigraph without self-loops."""

    __slots__ = ("n", "_u", "_v", "_w")

    def __init__(self, n, edges):
        self._assign(n, [e[0] for e in edges], [e[1] for e in edges], [e[2] for e in edges])

    @classmethod
    def from_arrays(cls, n, u, v, w):
        g = cls.__new__(cls)
        g._assign(n, u, v, w)
        return g

    @classmethod
    def _from_checked(cls, n, u, v, w):
        """The graph of int32 u, v (0-based integer ids below 2^31) and float64 w.

        _edge_problem has passed them, and they are not checked again; only n is.
        """
        g = cls.__new__(cls)
        g.n, g._u, g._v, g._w = _vertex_count(n), u, v, w
        return g

    def _assign(self, n, u, v, w):
        # int32 ids are checked as they come, any others as int64; then narrowed once
        self.n = _vertex_count(n)
        u, v = np.asarray(u), np.asarray(v)
        u, v = (x if x.dtype == np.int32 else x.astype(np.int64, copy=False) for x in (u, v))
        self._w = np.asarray(w, dtype=np.float64)
        problem = _edge_problem(self.n, u, v, self._w)
        if problem is not None:
            raise ValueError(f"edge {problem[0]}: {problem[1]}")
        self._u, self._v = u.astype(np.int32, copy=False), v.astype(np.int32, copy=False)

    @property
    def m(self):
        return int(self._u.size)

    @property
    def edges(self):
        return [
            (int(a), int(b), float(c))
            for a, b, c in zip(self._u, self._v, self._w)
        ]

    def edge_arrays(self):
        """Return (u, v, w), int32 ids and float64 weights, as read-only views of the internal arrays."""
        return self._u, self._v, self._w

    def total_weight(self):
        return float(self._w.sum())

    def is_unit_weighted(self):
        return bool(np.all(self._w == 1.0))

    def weight_matrix(self):
        """Symmetric n x n matrix of aggregated pair weights."""
        a = np.zeros((self.n, self.n))
        np.add.at(a, (self._u, self._v), self._w)
        np.add.at(a, (self._v, self._u), self._w)
        return a

    def weighted_degrees(self):
        d = np.zeros(self.n)
        np.add.at(d, self._u, self._w)
        np.add.at(d, self._v, self._w)
        return d

    def degrees(self):
        d = np.zeros(self.n, dtype=np.int64)
        np.add.at(d, self._u, 1)
        np.add.at(d, self._v, 1)
        return d

    def __eq__(self, other):
        if not isinstance(other, WeightedGraph):
            return NotImplemented
        return (
            self.n == other.n
            and np.array_equal(self._u, other._u)
            and np.array_equal(self._v, other._v)
            and np.array_equal(self._w, other._w)
        )

    def __repr__(self):
        return f"WeightedGraph(n={self.n}, m={self.m})"


class Ordering:
    """A permutation of 0..n-1; position 0 is visited first (step 1)."""

    __slots__ = ("perm", "_pos")

    def __init__(self, perm):
        p = tuple(int(x) for x in perm)
        if sorted(p) != list(range(len(p))):
            raise ValueError("not a permutation of 0..n-1")
        self.perm = p
        self._pos = None

    def __len__(self):
        return len(self.perm)

    def __iter__(self):
        return iter(self.perm)

    def positions(self):
        """positions()[v] = 0-based step at which v is visited."""
        if self._pos is None:
            pos = np.empty(len(self.perm), dtype=np.int64)
            pos[np.asarray(self.perm, dtype=np.int64)] = np.arange(len(self.perm))
            self._pos = pos
        return self._pos

    def __eq__(self, other):
        return isinstance(other, Ordering) and self.perm == other.perm

    def __hash__(self):
        return hash(self.perm)

    def __repr__(self):
        return f"Ordering({list(self.perm)})"


def _positions(n, ordering):
    if len(ordering) != n:
        raise ValueError("ordering length does not match vertex count")
    return ordering.positions()


def cover_times(graph, ordering):
    """1-indexed cover time per edge, aligned with graph.edges order."""
    u, v, _ = graph.edge_arrays()
    times = np.empty(u.size, np.int64)
    _cover_times_into(times, _positions(graph.n, ordering), u, v)
    return times


def _cover_times_into(times, pos, u, v):
    """times[i] = min(pos[u[i]], pos[v[i]]) + 1, _CHUNK_ROWS edges at a time."""
    for lo in range(0, u.size, _CHUNK_ROWS):
        hi = lo + _CHUNK_ROWS
        np.minimum(pos[u[lo:hi]], pos[v[lo:hi]], out=times[lo:hi])
        times[lo:hi] += 1


def svc_value(graph, ordering):
    """Sum over edges of weight times cover time.

    The cover times go into one float64 array, _CHUNK_ROWS edges at a
    time, with no int64 array the length of the edge list: np.dot sees the
    values it would see over cover_times.  OpenBLAS splits a long np.dot
    across its threads, so the last digits depend on their count.
    """
    u, v, w = graph.edge_arrays()
    times = np.empty(w.size)
    _cover_times_into(times, _positions(graph.n, ordering), u, v)
    return float(np.dot(w, times))


def inside_weight_table(graph):
    """table[mask] = total weight of edges with both endpoints in mask.

    Size 2^n, and no other array of that order: each vertex's sums are
    built in the table's own still-zero slots, which _mapped_zeros maps
    apart from the heap.  Refuses for n above the bitmask limit.  In the
    dtype of _table_dtype(graph): with integer weights every entry and
    every sum of the exact DP is an integer of at most (n + 1) W(V, V),
    which uint16 or float32 holds exactly, so each add and min gives the
    float64 result.
    """
    n = graph.n
    if n > _TABLE_MAX_BITS:
        raise ValueError(f"bitmask table limited to n <= {_TABLE_MAX_BITS}")
    dtype = _table_dtype(graph)
    a = graph.weight_matrix().astype(dtype)
    table = _mapped_zeros(1 << n, dtype)
    for v in range(n - 1, -1, -1):
        # the masks with lowest bit v, still zero; cross[i] = weight from v
        # into the set i << (v + 1), summed by doubling: the sets with top
        # bit j add a[v, v + 1 + j] to those without
        cross = table[1 << v :: 2 << v]
        for j in range(n - v - 1):
            np.add(cross[: 1 << j], a[v, v + 1 + j], out=cross[1 << j : 2 << j])
        # plus the weight inside the rest, from the masks with no bit at or below v
        np.add(table[:: 2 << v], cross, out=cross)
    return table


def _table_dtype(graph):
    """The dtype of inside_weight_table(graph), the narrowest that is exact.

    With integer weights, uint16 while (n + 1) W(V, V) < 2^15 (the DP's
    sentinel 2^15 plus W(V, V) then fits too) and float32 while it is at
    most 2^24; float64 otherwise.
    """
    w = graph.edge_arrays()[2]
    bound = (graph.n + 1) * graph.total_weight()
    if bound > 1 << 24 or not np.array_equal(w, np.floor(w)):
        return np.dtype(np.float64)
    return np.dtype(np.uint16 if bound < 1 << 15 else np.float32)


def _format_weight(w):
    if w == int(w) and abs(w) < 1e15:
        return str(int(w))
    return repr(w)


class _RecordFormat(NamedTuple):
    """A text format: magic line, header of nonnegative integers, rows.

    A table's header ends with its row count and columns is its row dtype.
    With columns None, header field k + 1 is the length of integer row k.
    build(header, fields) makes the object; check(header, fields) may name
    a bad row as (row, reason); float_text writes float fields.
    """

    magic: str
    header: tuple
    columns: np.dtype | None
    error: type
    build: Callable
    check: Callable | None = None
    float_text: Callable = repr


# An ASCII byte that str.strip() keeps: all but \t-\r, \x1c-\x1f and space.
# np.loadtxt skips the same lines as blank.
_NONBLANK = re.compile(rb"[^\t-\r\x1c- ]")
# For _line_number: the blank bytes but the newline, and a table of each
# byte, or "x" for a nonblank one.
_BLANK_IN_LINE = bytes(c for c in range(256) if c != ord("\n") and not _NONBLANK.match(bytes([c])))
_MARK_NONBLANK = bytes(ord("x") if _NONBLANK.match(bytes([c])) else c for c in range(256))

# Bytes of table text per block, plus the rest of the last line.  Larger
# blocks parse faster (fewer numpy calls per byte), but _parse_plain's
# arrays peak at about 3.9 bytes per byte of its block: load_graph traces
# 1.00x the size of a 7.6 MB long-code graph, and 1.03x with 256 KB
# blocks, where the graph's own arrays are 0.83x.  A block is above glibc's
# initial 128 KB mmap threshold, and freeing it raises the threshold to its
# size: in fresh processes an exact DP (n = 22) after loading the L = 8
# reduction graph peaked 1.0 MB above the DP alone, and 11.5-13.8 MB above
# it with 4 MB blocks.
_BLOCK_BYTES = 1 << 17

# Plain table text, as _write_records writes it, is parsed by _parse_plain:
# integer tokens of at most _INT_DIGITS digits, float tokens of at most
# _FLOAT_BYTES bytes of _FLOAT_TEXT.
_INT_DIGITS, _FLOAT_BYTES, _FLOAT_TEXT = 18, 24, b"0123456789.eE+-"

# _WORD_MASKS[i, r] keeps the bytes of a token of r bytes in its word i,
# the 8 bytes from its byte 8 * i on; _HASH mixes the words into one.
# _PADDING follows the text of each block read, for the last word of its
# last token to lie in the block.
_WORD_MASKS = np.array(
    [[(1 << 8 * min(max(r - 8 * i, 0), 8)) - 1 for r in range(_FLOAT_BYTES + 1)] for i in range(3)],
    dtype=np.uint64,
)
_HASH = np.array([0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9], dtype=np.uint64)
_PADDING = bytes(_FLOAT_BYTES)


def _loadtxt(text, dtype):
    """np.loadtxt of text, each integer field of dtype parsed in 64 bits, as _plain_integers does.

    (With a narrower field, loadtxt raises OverflowError, not ValueError, on a large id.)
    """
    dtype = np.dtype(dtype)
    if dtype.names:
        dtype = np.dtype([(name, np.int64 if dtype[name].kind == "i" else dtype[name]) for name in dtype.names])
    return np.loadtxt(io.BytesIO(text), dtype=dtype, comments=None, ndmin=1, encoding="ascii")


def _read_records(data, fmt):
    """Parse data in format fmt; return fmt.build(header, fields).

    data is a binary stream, or bytes or str (str is encoded); a stream
    that cannot seek, such as a pipe, is read whole first.  Line 1 is the
    magic line and line 2 the header.  The rows are read in one pass and
    then checked by fmt.check.  Either finds a problem as a row index; only
    then is the text after the header scanned again, to name the row's line.
    """
    if isinstance(data, str):
        data = data.encode(errors="replace")
    stream = io.BytesIO(data) if isinstance(data, bytes) else data
    if not stream.seekable():
        stream = io.BytesIO(stream.read())
    if stream.readline().decode("ascii", "replace").strip() != fmt.magic:
        raise fmt.error(f"line 1: expected header {fmt.magic!r}")
    head = stream.readline()
    try:
        header = _loadtxt(head, np.int64).tolist() if _NONBLANK.search(head) else []
    except ValueError:
        header = []
    if len(header) != len(fmt.header) or min(header) < 0:
        raise fmt.error(f"line 2: expected {' '.join(fmt.header)!r}, nonnegative integers")
    start = stream.tell()
    if fmt.columns is None:
        fields, problem = _read_lines(stream, header)
    else:
        fields, problem = _read_table(stream, fmt.columns, header[-1])
    problem = problem or (fmt.check and fmt.check(header, fields))
    if problem:
        raise fmt.error(f"line {_line_number(stream, start, problem[0])}: {problem[1]}")
    try:
        return fmt.build(header, fields)
    except ValueError as exc:
        raise fmt.error(str(exc)) from None


def _read_table(stream, columns, count):
    """(the columns of the count table rows left in stream, None), or (None, (row, reason)).

    Blank lines are skipped and the row count must match exactly; a bad
    token in a row below count comes first.  A row takes at least two bytes
    per column (the last row one less), so the columns are no longer than
    the remaining bytes can fill, whatever count says.  The blocks are
    parsed one after another, on the calling thread.
    """
    start = stream.tell()
    room = (stream.seek(0, io.SEEK_END) - start + 1) // (2 * len(columns))
    stream.seek(start)
    fields = [np.empty(min(count, room), columns[name]) for name in columns.names]
    filled, miscount = 0, (count, f"expected {count} rows")
    # whole lines and _PADDING, till the padding alone is left
    for block in iter(lambda: b"".join((stream.read(_BLOCK_BYTES), stream.readline(), _PADDING)), _PADDING):
        table = _parse_block(block, columns)
        if isinstance(table, int):
            row = filled + table
            return None, (row, f"expected {' '.join(columns.names)!r}") if row < count else miscount
        rows = table[0].size
        if rows > count - filled:
            return None, miscount
        for field, column in zip(fields, table):
            # integers are parsed in 64 bits; a narrower field holds them
            # clamped, so an id past its range stays out of range
            if column.dtype == field.dtype:
                field[filled : filled + rows] = column
            else:
                info = np.iinfo(field.dtype)
                column.clip(info.min, info.max, out=field[filled : filled + rows])
        filled += rows
    return (fields, None) if filled == count else (None, miscount)


def _parse_block(block, columns):
    """The columns of the rows in block, or the index among its nonblank lines of the first bad one.

    block is whole lines of text, then _PADDING.  Plain rows are parsed by
    _parse_plain, any others by np.loadtxt.
    """
    table = _parse_plain(block, columns)
    if table is not None:
        return table
    block = block[: -len(_PADDING)]
    if not _NONBLANK.search(block):
        return [np.empty(0, columns[name]) for name in columns.names]
    try:
        table = _loadtxt(block, columns)
    except ValueError:
        return _first_bad_row(block, columns)
    return [table[name] for name in columns.names]


def _parse_plain(block, columns):
    """The columns of a block of plain rows and _PADDING, as np.loadtxt parses them, or None.

    Plain rows hold nonempty tokens, one space between two and a newline
    after the last; see _INT_DIGITS for the tokens.  Integers are summed
    digit by digit.  Float tokens are grouped by a hash of their bytes, and
    each is compared byte for byte with one token of its group; float()
    parses that one, rounding as np.loadtxt does.  The arrays peak at about
    four bytes per byte of the block.
    """
    size, k = len(block) - len(_PADDING), len(columns)
    text = np.frombuffer(block, np.uint8)
    separators = _separators(text[:size])
    if not block.endswith(b"\n" + _PADDING) or (separators.size - 1) % k:
        return None
    ends, befores = separators[1:].reshape(-1, k).T, separators[:-1].reshape(-1, k).T
    expected = np.full((k, 1), ord(" "), np.uint8)
    expected[-1] = ord("\n")
    if (ends - befores).min() < 2 or not (text.take(ends) == expected).all():
        return None
    table = [None] * k
    ints = [j for j, name in enumerate(columns.names) if columns[name].kind == "i"]
    if ints:
        values = _plain_integers(text, ends[ints], befores[ints])
        if values is None:
            return None
        for j, column in zip(ints, values):
            table[j] = column
    for j in range(k):
        if j not in ints:
            table[j] = _plain_floats(block, text, ends[j], befores[j])
            if table[j] is None:
                return None
    return table


def _plain_integers(text, end, before):
    """The integers between the separators at offsets before and end of text, or None.

    before and end hold a row of offsets per column; a token must be 1 to
    _INT_DIGITS digits.
    """
    width = int((end - before).max()) - 1
    if width > _INT_DIGITS:
        return None
    # the digits right-aligned, "0" in front of the first (a place before
    # the text wraps around to its zero padding, and is masked)
    places = end - np.arange(width, 0, -1)[:, None, None]
    digits = np.where(places > before, text.take(places), ord("0"))
    digits -= ord("0")
    if digits.max() > 9:
        return None
    values = digits[0].astype(np.int64)
    for place in digits[1:]:
        values *= 10
        values += place
    return values


def _plain_floats(block, text, end, before):
    """The floats between the separators at offsets before and end of text, or None.

    block holds the bytes of text; a token must be 1 to _FLOAT_BYTES bytes
    of _FLOAT_TEXT that float() reads.
    """
    words = -(-(int((end - before).max()) - 1) // 8)
    if words > _FLOAT_BYTES // 8:
        return None
    # the 8 bytes from each byte of the text on, as a view: "V8" needs no
    # alignment, and an index (unlike take) copies no strided array
    at = np.ndarray((text.size - 7,), "V8", text, 0, (1,))
    start, length = before + 1, end - before - 1
    keys = at[start + np.arange(0, 8 * words, 8)[:, None]].view("<u8")
    keys &= _WORD_MASKS[:words].take(length, axis=1)
    hashes = _HASH[:words] @ keys
    group = _distinct(hashes).searchsorted(hashes)
    one = np.empty(group.max() + 1, np.intp)
    one[group] = np.arange(group.size)
    if not (keys.take(one.take(group), axis=1) == keys).all():
        return None
    tokens = [block[p : p + q] for p, q in zip(start.take(one).tolist(), length.take(one).tolist())]
    if any(token.translate(None, _FLOAT_TEXT) for token in tokens):
        return None
    try:
        return np.array([float(token) for token in tokens]).take(group)
    except ValueError:
        return None


def _separators(text):
    """The offset of each byte of text up to a space, after a -1, as int32.

    Its own function, so that the larger arrays it makes are gone when it returns.
    """
    found = np.flatnonzero(text <= ord(" "))
    separators = np.empty(found.size + 1, np.int32)
    separators[0] = -1
    separators[1:] = found
    return separators


def _first_bad_row(block, columns):
    """The index among the nonblank lines of block of the first that np.loadtxt rejects.

    loadtxt's messages do not name the line: bisect, parsing the block about once more.
    """
    rows = [line for line in block.split(b"\n") if _NONBLANK.search(line)]
    lo, hi = 0, len(rows)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            _loadtxt(b"\n".join(rows[lo:mid]), columns)
            lo = mid
        except ValueError:
            hi = mid
    return lo


def _read_lines(stream, header):
    """Like _read_table, for rows of integers: row k holds header[k + 1] of them."""
    lines, fields = filter(_NONBLANK.search, iter(stream.readline, b"")), []
    for row, (size, line) in enumerate(zip(header[1:], lines)):
        try:
            fields.append(_loadtxt(line, np.int64))
        except ValueError:
            return None, (row, f"expected {size} integers")
        if fields[-1].size != size:
            return None, (row, f"expected {size} integers")
    if len(fields) < len(header) - 1 or next(lines, None):
        return None, (len(header) - 1, f"expected {len(header) - 1} rows")
    return fields, None


def _line_number(stream, start, row):
    """The number of the line of nonblank row `row` after the header, which ends at offset start.

    Lines are counted a block at a time; only the block that holds the row
    is scanned line by line.  A row past the last names the line after the text.
    """
    stream.seek(start)
    number = 2
    for block in iter(lambda: stream.read(_BLOCK_BYTES) + stream.readline(), b""):
        # each nonblank byte as "x", with the other blank bytes gone: a
        # nonblank line starts the block with "x" or follows a newline with it
        marked = block.translate(_MARK_NONBLANK, _BLANK_IN_LINE)
        rows = marked.count(b"\nx") + marked.startswith(b"x")
        if row >= rows:
            row -= rows
            number += block.count(b"\n") + (not block.endswith(b"\n"))
            continue
        for number, line in enumerate(block.split(b"\n"), start=number + 1):
            if _NONBLANK.search(line):
                if row == 0:
                    return number
                row -= 1
    return number + 1


def _write_records(fmt, header, fields):
    """Yield the bytes of format fmt in chunks; fields are a table's columns or the rows.

    A chunk of _CHUNK_ROWS table rows formats each distinct value of each
    field once, into a table of NUL-padded cells, and looks its values up
    in the sorted distinct values.  Each row is laid out as one record of
    its cells and separators, and the NULs are dropped.  No array is as
    long as a column.
    """
    yield f"{fmt.magic}\n{' '.join(map(str, header))}\n".encode()
    if fmt.columns is None:
        for values in fields:
            yield (" ".join(map(str, values)) + "\n").encode()
        return
    fields = [np.asarray(values) for values in fields]
    for lo in range(0, fields[0].size, _CHUNK_ROWS):
        cells = []
        for values in fields:
            values = values[lo : lo + _CHUNK_ROWS]
            to_text = str if values.dtype.kind == "i" else fmt.float_text
            # distinct by bit pattern, so that 0.0 and -0.0 keep their own text
            bits = values.view(f"u{values.itemsize}")
            keys = _distinct(bits)
            table = np.array([to_text(x) for x in keys.view(values.dtype).tolist()], dtype=bytes)
            cells.append((table, keys, bits))
        rows = np.empty(cells[0][2].size, [(f"{part}{j}", dtype) for j, (table, _, _) in enumerate(cells)
                                           for part, dtype in (("cell", table.dtype), ("end", "S1"))])
        for j, (table, keys, bits) in enumerate(cells):
            rows[f"cell{j}"] = table[np.searchsorted(keys, bits)]
            rows[f"end{j}"] = b" "
        rows[f"end{len(cells) - 1}"] = b"\n"
        # freed before the NULs are dropped: two copies of the chunk at most
        text = rows.tobytes()
        del rows
        yield text.translate(None, b"\0")


class _File(io.BufferedReader):
    """A binary file open for reading; len() is its size in bytes, as for bytes
    (the benchmark's tracer counts the bytes read_graph reads by it).

    sha256 hashes every byte that read and readline return.  A parse that
    succeeds reads each byte of the file once, in order (only a failing one
    reads again, to number a line), so its digest is the file's.
    """

    def __init__(self, raw):
        super().__init__(raw)
        self.sha256 = hashlib.sha256()

    def __len__(self):
        return os.fstat(self.fileno()).st_size

    def read(self, size=-1):
        data = super().read(size)
        self.sha256.update(data)
        return data

    def readline(self, size=-1):
        data = super().readline(size)
        self.sha256.update(data)
        return data


# While the CLI runs, a dict of the sha256 of each file that _load_records
# has read, by path as given, for the run manifest; None otherwise.
_digests = None


def _load_records(path, parse):
    """parse(the file at path, open for binary reading); its sha256 goes to _digests, if a dict."""
    with _File(io.FileIO(path)) as fh:
        result = parse(fh)
    if _digests is not None:
        _digests[path] = fh.sha256.hexdigest()
    return result


def _save_records(path, chunks):
    """Write the chunks of _write_records to path, one at a time; return the bytes written."""
    with open(path, "wb") as fh:
        return sum(map(fh.write, chunks))


_GRAPH_FORMAT = _RecordFormat(
    GRAPH_MAGIC,
    ("n", "m"),
    np.dtype([("u", np.int32), ("v", np.int32), ("w", np.float64)]),
    GraphFormatError,
    build=lambda header, fields: WeightedGraph._from_checked(header[0], *fields),
    check=lambda header, fields: _edge_problem(header[0], *fields),
    float_text=_format_weight,
)


def write_graph(graph):
    """Serialize to the documented text format."""
    return b"".join(_write_records(_GRAPH_FORMAT, (graph.n, graph.m), graph.edge_arrays())).decode()


def read_graph(text):
    """Parse the documented text format (str, bytes or a binary stream); errors name the 1-based line."""
    return _read_records(text, _GRAPH_FORMAT)


def load_graph(path):
    return _load_records(path, read_graph)


def save_graph(graph, path):
    """Write the graph to path in the text format; return the bytes written."""
    return _save_records(path, _write_records(_GRAPH_FORMAT, (graph.n, graph.m), graph.edge_arrays()))


# ---------------------------------------------------------------------------
# small graph factories, used by tests and the counterexample construction


def complete_graph(n, weight=1.0):
    return WeightedGraph(n, [(i, j, weight) for i in range(n) for j in range(i + 1, n)])


def star_graph(leaves, weight=1.0):
    return WeightedGraph(leaves + 1, [(0, i, weight) for i in range(1, leaves + 1)])


def path_graph(n, weight=1.0):
    return WeightedGraph(n, [(i, i + 1, weight) for i in range(n - 1)])


def cycle_graph(n, weight=1.0):
    return WeightedGraph(n, [(i, (i + 1) % n, weight) for i in range(n)])


def complete_bipartite(a, b, weight=1.0):
    return WeightedGraph(a + b, [(i, a + j, weight) for i in range(a) for j in range(b)])


def disjoint_union(graphs):
    edges = []
    offset = 0
    for g in graphs:
        edges.extend((u + offset, v + offset, w) for u, v, w in g.edges)
        offset += g.n
    return WeightedGraph(offset, edges)


def random_weighted_graph(n, p, seed, unit_weights=False):
    """G(n, p) with unit or Uniform(0.1, 2) weights, at least one edge."""
    if n < 2:
        raise ValueError(f"need n >= 2 for at least one edge, got {n}")
    rng = np.random.default_rng(seed)
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                w = 1.0 if unit_weights else float(rng.uniform(0.1, 2.0))
                edges.append((i, j, w))
    if not edges:
        i, j = sorted(rng.choice(n, size=2, replace=False).tolist())
        edges.append((int(i), int(j), 1.0))
    return WeightedGraph(n, edges)


def random_regular_graph(n, d, seed, max_tries=1000):
    """Simple d-regular graph by the pairing model with rejection.

    When max_tries pairings all have a loop or a repeated pair, which is
    likely for d >= 6, the last one is made simple by switches that keep
    every degree (see _switch_to_simple).
    """
    if n * d % 2 != 0:
        raise ValueError("n*d must be even")
    if d >= n:
        raise ValueError("need d < n")
    rng = np.random.default_rng(seed)
    stubs = np.repeat(np.arange(n), d)
    pairs = stubs.reshape(-1, 2)
    for _ in range(max_tries):
        perm = rng.permutation(stubs)
        pairs = perm.reshape(-1, 2)
        if np.any(pairs[:, 0] == pairs[:, 1]):
            continue
        lo = np.minimum(pairs[:, 0], pairs[:, 1])
        hi = np.maximum(pairs[:, 0], pairs[:, 1])
        key = lo * n + hi
        if np.unique(key).size != key.size:
            continue
        return WeightedGraph(n, [(int(a), int(b), 1.0) for a, b in zip(lo, hi)])
    return WeightedGraph(n, [(a, b, 1.0) for a, b in _switch_to_simple(np.sort(pairs, axis=1).tolist(), rng)])


def _switch_to_simple(pairs, rng):
    """The (a, b), a <= b, pairs of a multigraph made simple by degree-preserving switches.

    A switch takes a loop or repeated pair {a, b} and a random pair {c, e}
    and puts {a, c} and {b, e} in their place, when neither is a loop or a
    pair already there.  Each one leaves at least one bad pair fewer and
    adds none; after 100 tries per pair, a RuntimeError.
    """
    pairs = [tuple(p) for p in pairs]
    counts = collections.Counter(pairs)
    bad = [i for i, (a, b) in enumerate(pairs) if a == b or counts[a, b] > 1]
    for _ in range(100 * len(pairs)):
        if not bad:
            return pairs
        i = bad[rng.integers(len(bad))]
        j = int(rng.integers(len(pairs)))
        (a, b), (c, e) = pairs[i], pairs[j]
        if rng.integers(2):
            c, e = e, c
        new = tuple(sorted((a, c))), tuple(sorted((b, e)))
        if a == c or b == e or new[0] == new[1] or counts[new[0]] or counts[new[1]]:
            continue
        counts.subtract((pairs[i], pairs[j]))
        counts.update(new)
        pairs[i], pairs[j] = new
        bad = [k for k in bad if pairs[k][0] == pairs[k][1] or counts[pairs[k]] > 1]
    raise RuntimeError("switches failed to produce a simple graph")
