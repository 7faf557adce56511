"""GEMM problem instances, exact integer matrices, and the reference oracle.

Every simulator in this package consumes the same operand containers and is
checked bit-exactly against :func:`reference_matmul`, whose every product and
sum is an unbounded Python int; numpy only reads its operands and result.
"""

from __future__ import annotations

import functools
import operator
import random
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

# Operands are signed 8-bit-equivalent integers; accumulators are 64-bit
# equivalent.  With |a*b| <= 128*128 = 2^14, an int64 accumulator cannot
# overflow for any problem size this workbench can hold in memory, and a
# float64 one is exact while k < 2^53 / 2^14 = 2^39 (the streamer's product).
OPERAND_MIN = -128
OPERAND_MAX = 127
PRODUCT_MAX = max(-OPERAND_MIN, OPERAND_MAX) ** 2  # the largest |a*b|


def as_count(value: object, name: str, minimum: int) -> int:
    """The one rule for an integer parameter of a simulator or an analytic model.

    value must be a Python or numpy integer, never a bool (Python or
    ``np.bool_``) or a float, and at least minimum.  The result is a Python
    int, so no numpy integer type can wrap in the arithmetic it feeds.
    """
    if type(value) is not int:  # the common case skips both isinstance checks
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        value = int(value)
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return value


@dataclass(frozen=True)
class GemmShape:
    """Dimensions of C (m x n) = A (m x k) . B (k x n)."""

    m: int
    n: int
    k: int

    def __post_init__(self) -> None:
        for name in ("m", "n", "k"):
            object.__setattr__(self, name, as_count(getattr(self, name), f"shape field {name}", 1))

    @property
    def macs(self) -> int:
        """Total multiply-accumulates a full GEMM of this shape performs."""
        return self.m * self.n * self.k


@dataclass(frozen=True, eq=False)
class Matrix:
    """Immutable row-major matrix stored as one flat, read-only int64 array.

    The constructor copies any flat integer sequence or array into its own
    buffer and rejects floats, bools and values that do not fit in int64.
    """

    rows: int
    cols: int
    data: np.ndarray

    def __post_init__(self) -> None:
        rows, cols = self.rows, self.cols
        # Valid int shapes skip as_count: from_numpy runs this per conversion.
        if type(rows) is not int or type(cols) is not int or rows < 1 or cols < 1:
            object.__setattr__(self, "rows", as_count(rows, "matrix rows", 1))
            object.__setattr__(self, "cols", as_count(cols, "matrix cols", 1))
        data = self.data
        if not isinstance(data, np.ndarray):
            # numpy silently turns bools mixed with ints into ints.
            if not {bool, np.bool_}.isdisjoint(map(type, data)):
                raise ValueError("matrix elements must be integers, got a bool")
            data = np.array(data)
        if data.shape != (self.rows * self.cols,):
            raise ValueError(
                f"expected {self.rows * self.cols} elements for a "
                f"{self.rows}x{self.cols} matrix, got shape {data.shape}"
            )
        kind = data.dtype.kind
        if kind not in "iu" or (kind == "u" and np.any(data > np.iinfo(np.int64).max)):
            raise ValueError(f"matrix elements must be integers that fit in int64, got {data.dtype}")
        data = data.astype(np.int64)
        data.flags.writeable = False
        object.__setattr__(self, "data", data)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return np.array_equal(self.to_numpy(), other.to_numpy())

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.data.tobytes()))

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "Matrix":
        c = len(rows[0]) if rows else 0  # an empty list fails Matrix's row count
        if any(len(row) != c for row in rows):
            raise ValueError("ragged row lengths")
        return cls(len(rows), c, [e for row in rows for e in row])

    @classmethod
    def from_numpy(cls, arr: np.ndarray) -> "Matrix":
        if arr.ndim != 2:
            raise ValueError("expected a 2-D array")
        return cls(arr.shape[0], arr.shape[1], arr.ravel())

    def _index(self, name: str, index: int, size: int) -> int:
        if not 0 <= index < size:
            raise IndexError(f"{name} {index} outside a {self.rows}x{self.cols} matrix")
        return index

    def at(self, i: int, j: int) -> int:
        i, j = self._index("row", i, self.rows), self._index("column", j, self.cols)
        return int(self.data[i * self.cols + j])

    def row(self, i: int) -> tuple[int, ...]:
        i = self._index("row", i, self.rows)
        return tuple(self.data[i * self.cols : (i + 1) * self.cols].tolist())

    def col(self, j: int) -> tuple[int, ...]:
        return tuple(self.data[self._index("column", j, self.cols) :: self.cols].tolist())

    def to_rows(self) -> list[list[int]]:
        return self.to_numpy().tolist()

    def to_numpy(self) -> np.ndarray:
        """Read-only (rows, cols) view of the matrix's own buffer."""
        return self.data.reshape(self.rows, self.cols)


def require_operand_range(*matrices: Matrix) -> None:
    """Reject matrices whose elements fall outside the operand width."""
    for mat in matrices:
        if mat.data.min() < OPERAND_MIN or mat.data.max() > OPERAND_MAX:
            bad = (mat.data < OPERAND_MIN) | (mat.data > OPERAND_MAX)  # names the first
            raise ValueError(
                f"operand element {mat.data[bad.argmax()]} outside [{OPERAND_MIN}, {OPERAND_MAX}]"
            )


def resolve_vector_operands(
    n: int, operands: tuple[Sequence[int], Sequence[int]] | None, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Explicit operand vectors, type- and range-checked, or generated ones.

    Either way the vectors are read-only int64 arrays of length n.
    """
    n = as_count(n, "inner product length", 1)
    if operands is None:
        return make_vectors(n, seed)
    if any(len(v) != n for v in operands):
        raise ValueError(f"operand vectors must have length {n}")
    # Matrix rejects floats, bools and values outside int64.
    a, b = (Matrix(1, n, v) for v in operands)
    require_operand_range(a, b)
    return a.data, b.data


# Draws of at least this many values take their words from numpy's MT19937
# loaded with the generator's state.  The crossover, ~19,000 values on a
# 2-core x86 host, was measured while each draw also built the MT19937
# (~0.4 ms a call with the state copies); this is the next power of two.
NUMPY_DRAW_MIN = 2**15

# A round draws at most this many words, so its buffers keep one small size
# whatever the seed rejects.  Rounds sized by the whole draw make a 2^21-value
# draw's buffers tens of MB, sized by the seed, and the process's peak RSS
# then differs by ~10 MB from one seed to another.
DRAW_ROUND_WORDS = 2**16

# Once at most this many values are missing, a draw finishes word by word:
# each numpy round costs several calls whatever its size, and a corpus-sized
# draw would otherwise spend ~5 of its rounds on the last few dozen values.
DRAW_TAIL = 32

# A round's in-place shift and offset take int16 scalars: Python ints cost
# each of the two calls a conversion, ~3% of a corpus-sized draw.
_SHIFT, _OFFSET = np.int16(7), np.int16(OPERAND_MIN)

# Index of a word's high 16 bits among the int16 views of a native uint64.
_HIGH_HALF = 1 if sys.byteorder == "little" else 2


def _draw_operands(rng: random.Random, count: int) -> np.ndarray:
    """``[rng.randint(OPERAND_MIN, OPERAND_MAX) for _ in range(count)]`` as int64.

    ``randint`` draws ``rng.getrandbits(9)``, the top 9 bits of one 32-bit
    Mersenne Twister word, until it is below 256: it rejects the words
    >= 2**31 and turns an accepted word into ``(word >> 23) + OPERAND_MIN``.
    Whole words go through the numpy rounds of ``_accept_words`` until at
    most ``DRAW_TAIL`` values are missing; ``randint``'s own loop, one
    ``getrandbits(9)`` word at a time, draws the rest.

    The rounds take their words from ``rng.getrandbits(32 * w)``, which
    returns the next w words little-endian, or, for at least
    ``NUMPY_DRAW_MIN`` values, from ``numpy.random.MT19937``, the same
    generator, run from a copy of ``rng``'s state that is written back
    before the tail.  Either way the values and ``rng``'s final state equal
    ``randint``'s.
    """
    if count < NUMPY_DRAW_MIN:
        ops, filled = _accept_words(
            count,
            lambda w: np.frombuffer(rng.getrandbits(32 * w).to_bytes(4 * w, "little"), "<u4"),
            lambda words: words.view("<i2")[1::2],
        )
    else:
        version, internal, gauss_next = rng.getstate()
        mt = _mt19937()
        key = np.array(internal[:-1], dtype=np.uint32)
        mt.state = {"bit_generator": "MT19937", "state": {"key": key, "pos": internal[-1]}}
        # random_raw widens each 32-bit word to a native uint64.
        ops, filled = _accept_words(
            count, mt.random_raw, lambda words: words.view(np.int16)[_HIGH_HALF::4]
        )
        state = mt.state["state"]
        rng.setstate((version, (*state["key"].tolist(), state["pos"]), gauss_next))
    tail = []
    while len(tail) < count - filled:
        value = rng.getrandbits(9)
        if value < 256:
            tail.append(value + OPERAND_MIN)
    ops[filled:] = tail
    return ops


@functools.cache
def _mt19937():
    """The one MT19937 that every large draw loads its own state into, so
    draws from several threads at once would clash; gemmsim draws on one."""
    from numpy.random import MT19937  # ~6 MB of RSS, so only on first use

    return MT19937(0)  # a fixed seed skips the OS entropy; the state is replaced


def _accept_words(
    count: int,
    words: Callable[[int], np.ndarray],
    high_halves: Callable[[np.ndarray], np.ndarray],
) -> tuple[np.ndarray, int]:
    """The numpy rounds of ``_draw_operands``: ``words(w)`` gives the
    generator's next w words as unsigned integers, ``high_halves`` their
    bits 16-31 as an int16 view.

    Each round draws as many words as values are still missing, at most
    ``DRAW_ROUND_WORDS``, so no word is drawn past the last accepted one.  It
    tests the contiguous words against 2**31, gathers the accepted words'
    high halves, shifts and offsets them in place and stores them straight
    into the int64 output.  Returns the output and how many values it holds;
    the rounds stop once at most ``DRAW_TAIL`` are missing.
    """
    ops = np.empty(count, dtype=np.int64)
    filled = 0
    while count - filled > DRAW_TAIL:
        drawn = words(min(count - filled, DRAW_ROUND_WORDS))
        # Indexing by nonzero() beats a boolean mask at every size here: the
        # mask's data-dependent branches mispredict on random words.
        hi = high_halves(drawn)[(drawn < 2**31).nonzero()[0]]
        hi >>= _SHIFT
        hi += _OFFSET
        ops[filled : filled + len(hi)] = hi
        filled += len(hi)
    return ops, filled


def make_gemm(shape: GemmShape, seed: int) -> tuple[Matrix, Matrix]:
    """Build a reproducible (A, B) operand pair for the given shape.

    Generator: ``random.Random(seed)`` (Mersenne Twister), drawing A in
    row-major order first and then B, each element uniform in
    [OPERAND_MIN, OPERAND_MAX].  The generator identity is part of the
    reproducibility contract; traces regenerated from the same (shape, seed)
    are bitwise identical.
    """
    split = shape.m * shape.k
    ops = _draw_operands(random.Random(seed), split + shape.k * shape.n)
    return Matrix(shape.m, shape.k, ops[:split]), Matrix(shape.k, shape.n, ops[split:])


def make_vectors(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Reproducible operand vectors for the inner-product simulators.

    Returns two read-only int64 views of one draw of 2n values: a, then b.
    """
    n = as_count(n, "vector length", 1)
    ops = _draw_operands(random.Random(seed), 2 * n)
    ops.flags.writeable = False
    return ops[:n], ops[n:]


def reference_matmul(a: Matrix, b: Matrix) -> Matrix:
    """Ground-truth GEMM in exact integer arithmetic, by Kronecker substitution.

    The oracle every simulator is compared against, so every product and sum
    is an unbounded Python int.  numpy only reads the operands' extremes,
    narrows the packed factor to the field type and reinterprets C's bytes.
    Each row of B is packed into one big int of w-bit fields, each starting
    at 2^(w-1) so it never borrows, and row i of C is one big-int
    multiply-add per element of A's row i.  When C has fewer columns than
    rows, the packing goes along the shorter side: C^T = B^T . A^T, with the
    rows of A^T packed and one multiply-add per element of B^T, so the
    multiply-adds number min(m, n) * k.  w is 32 while
    k * max|A| * max|B| < 2^31, 64 while it is below 2^63; larger operands
    raise ValueError.  That bound is at least max|B|, and at least max|A|
    when B is nonzero, so after a flip A's elements fit their fields too;
    when B is zero, every product is zero whatever A's fields hold.
    """
    if a.cols != b.rows:
        raise ValueError(f"dimension mismatch: {a.rows}x{a.cols} . {b.rows}x{b.cols}")
    # int() before negating: numpy's -int64(-2^63) wraps to -2^63.
    amax = max(int(a.data.max()), -int(a.data.min()))
    # At least max|B|, so every element of B also fits in a field.
    bound = max(a.cols * amax, 1) * max(int(b.data.max()), -int(b.data.min()))
    if bound >= 1 << 63:
        raise ValueError(f"k * max|A| * max|B| = {bound} does not fit in 64 bits")
    dtype, width = (np.int32, 32) if bound < 1 << 31 else (np.int64, 64)
    order = sys.byteorder  # numpy's field types use the native byte order
    flip = b.cols < a.rows  # pack the rows of A^T and compute C^T
    left, right = (b.to_numpy().T, a.to_numpy().T) if flip else (a.to_numpy(), b.to_numpy())
    size = right.shape[1] * width // 8
    # 2^(w-1) in each of right's fields: the fields' top bits alone.
    offset = ((1 << 8 * size) - 1) // ((1 << width) - 1) << (width - 1)
    raw = right.astype(dtype).tobytes()
    # Read unsigned, field j holds right[t][j] mod 2^w; flipping its top bit
    # makes it right[t][j] + 2^(w-1), and subtracting the offset leaves the
    # signed sum_j right[t][j] * 2^(w*j).
    packed = [
        (int.from_bytes(raw[lo : lo + size], order) ^ offset) - offset
        for lo in range(0, len(raw), size)
    ]
    out = bytearray()
    for row in left.tolist():
        # Each field now holds the output + 2^(w-1) in [0, 2^w); flipping its
        # top bit leaves the output in two's complement.
        out += (sum(map(operator.mul, row, packed), offset) ^ offset).to_bytes(size, order)
    c = np.frombuffer(out, dtype).reshape(len(left), -1)
    return Matrix.from_numpy(c.T if flip else c)


def outer_product_schedule(a: Matrix, b: Matrix, block_width: int) -> list[tuple[Matrix, Matrix]]:
    """Split A into block columns and B into block rows of the given width.

    Returns ceil(k / block_width) (column block of A, row block of B) pairs,
    one rank-b update C += col (m x b) . row (b x n) each; the final pair may
    be narrower when the inner dimension is not a multiple of the width.
    Summing the pairs' products reconstructs the full product exactly.
    """
    if a.cols != b.rows:
        raise ValueError(f"dimension mismatch: {a.rows}x{a.cols} . {b.rows}x{b.cols}")
    k, block_width = a.cols, as_count(block_width, "block width", 1)
    if block_width > k:
        raise ValueError(f"block width must be in [1, {k}], got {block_width}")
    an, bn = a.to_numpy(), b.to_numpy()
    blocks = [slice(lo, lo + block_width) for lo in range(0, k, block_width)]
    return [(Matrix.from_numpy(an[:, s]), Matrix.from_numpy(bn[s])) for s in blocks]
