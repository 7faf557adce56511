"""GEMM problem instances, exact integer matrices, and the reference oracle.

Every simulator in this package consumes the same operand containers and is
checked bit-exactly against :func:`reference_matmul`, whose every product and
sum is an unbounded Python int; numpy only reads its operands and result.
"""

from __future__ import annotations

import functools
import math
import operator
import random
import sys
import threading
from dataclasses import FrozenInstanceError
from typing import Callable, Sequence

import numpy as np

# Operands are signed 8-bit-equivalent integers; accumulators are 64-bit
# equivalent.  With |a*b| <= 128*128 = 2^14, an int64 accumulator cannot
# overflow for any problem size this workbench can hold in memory, and a
# float64 one is exact while k < 2^53 / 2^14 = 2^39 (the streamer's product).
OPERAND_MIN = -128
OPERAND_MAX = 127
PRODUCT_MAX = max(-OPERAND_MIN, OPERAND_MAX) ** 2  # the largest |a*b|


def as_count(value: object, name: str, minimum: int | None = None) -> int:
    """The one rule for an integer parameter of a simulator or an analytic model.

    value must be a Python or numpy integer, never a bool (Python or
    ``np.bool_``) or a float, and at least minimum unless that is None (as
    for seeds).  The result is a Python int, so no numpy integer type can
    wrap in the arithmetic it feeds.
    """
    if type(value) is not int:  # the common case skips both isinstance checks
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        value = int(value)
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return value


def as_real(value: object, name: str) -> object:
    """The type rule for a real parameter of an analytic model: a Python or
    numpy integer or float, never a bool, returned as it is."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return value


class Record:
    """Immutable value type: its fields, in order, give its equality, hash and repr.

    A subclass names its fields in ``_fields``.  ``__init__`` binds its
    arguments to them, by position or name, as a call with those parameters
    would, and sets each once through ``object.__setattr__``; a subclass that
    checks its fields ends its own ``__init__`` in ``super().__init__``.
    Assigning or deleting an attribute afterwards raises
    ``FrozenInstanceError``, as on a frozen dataclass.  A record equals only a
    record of its own class with equal fields (a named tuple would also equal
    a plain tuple).  Records replace dataclasses and named tuples, which build
    each generated method from source text with its own ``exec`` or ``eval``
    when their module is imported, 0.25-1.3 ms a class on every start.
    ``SimResult`` is a record that also carries dataclass field metadata, for
    the tests that build faulty results with ``dataclasses.replace``.
    """

    _fields: tuple[str, ...] = ()

    def __init__(self, *args: object, **kwargs: object) -> None:
        fields, rest = self._fields, self._fields[len(args) :]
        # Positional calls skip the names; the others must name exactly the rest.
        if len(args) + len(kwargs) != len(fields) or kwargs and kwargs.keys() != set(rest):
            got = f"{len(args)} by position and {[*kwargs]} by name"
            raise TypeError(f"{type(self).__name__}() takes the fields {fields}, got {got}")
        for name, value in zip(fields, args):
            object.__setattr__(self, name, value)
        for name in rest:
            object.__setattr__(self, name, kwargs[name])

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class GemmShape(Record):
    """Dimensions of C (m x n) = A (m x k) . B (k x n)."""

    _fields = ("m", "n", "k")

    def __init__(self, m: int, n: int, k: int) -> None:
        super().__init__(
            as_count(m, "shape field m", 1),
            as_count(n, "shape field n", 1),
            as_count(k, "shape field k", 1),
        )

    @property
    def macs(self) -> int:
        """Total multiply-accumulates a full GEMM of this shape performs."""
        return self.m * self.n * self.k


class Matrix(Record):
    """Immutable row-major matrix stored as one flat, read-only int64 array.

    The constructor copies any flat integer sequence or array into its own
    buffer and rejects floats, bools and values that do not fit in int64;
    copies and pickles rebuild through it, so their buffers are read-only too.
    Operands and results that gemmsim builds itself adopt their arrays
    without a copy (``_adopt``).  Reads go through :meth:`to_numpy`.
    """

    _fields = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data: np.ndarray | Sequence[int]) -> None:
        rows, cols = as_count(rows, "matrix rows", 1), as_count(cols, "matrix cols", 1)
        if not isinstance(data, np.ndarray):
            # numpy silently turns bools mixed with ints into ints.
            if not {bool, np.bool_}.isdisjoint(map(type, data)):
                raise ValueError("matrix elements must be integers, got a bool")
            data = np.array(data)
        if data.shape != (rows * cols,):
            raise ValueError(
                f"expected {rows * cols} elements for a "
                f"{rows}x{cols} matrix, got shape {data.shape}"
            )
        kind = data.dtype.kind
        if kind not in "iu" or (kind == "u" and np.any(data > np.iinfo(np.int64).max)):
            raise ValueError(f"matrix elements must be integers that fit in int64, got {data.dtype}")
        data = data.astype(np.int64)
        data.flags.writeable = False
        # Filled directly, as in _adopt: Record.__init__'s binding costs ~1 us a matrix.
        self.__dict__.update(rows=rows, cols=cols, data=data)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return np.array_equal(self.to_numpy(), other.to_numpy())

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.data.tobytes()))

    def __reduce__(self) -> tuple:
        return (type(self), (self.rows, self.cols, self.data))

    @classmethod
    def from_numpy(cls, arr: np.ndarray) -> "Matrix":
        if arr.ndim != 2:
            raise ValueError("expected a 2-D array")
        return cls(arr.shape[0], arr.shape[1], arr.ravel())

    def to_numpy(self) -> np.ndarray:
        """Read-only (rows, cols) view of the matrix's own buffer.

        numpy bounds each axis on its own, so no index can read across a row.
        """
        return self.data.reshape(self.rows, self.cols)


def _adopt(arr: np.ndarray) -> Matrix:
    """``Matrix.from_numpy(arr)`` without its checks and copy, for a 2-D int64
    array that gemmsim has just built and holds nowhere else: the matrix
    takes arr's buffer (a contiguous arr's ravel is a view), read-only."""
    data = arr.ravel()
    data.flags.writeable = False
    mat = Matrix.__new__(Matrix)
    # Filled directly: Record.__init__'s binding would double this call's cost.
    mat.__dict__.update(rows=arr.shape[0], cols=arr.shape[1], data=data)
    return mat


def require_operand_range(*operands: Matrix | np.ndarray) -> None:
    """Reject matrices or vectors whose elements fall outside the operand width."""
    for data in (op.data if isinstance(op, Matrix) else op for op in operands):
        if data.min() < OPERAND_MIN or data.max() > OPERAND_MAX:
            bad = (data < OPERAND_MIN) | (data > OPERAND_MAX)  # names the first
            raise ValueError(
                f"operand element {data[bad.argmax()]} outside [{OPERAND_MIN}, {OPERAND_MAX}]"
            )


def resolve_vector_operands(
    n: int, operands: tuple[Sequence[int], Sequence[int]] | None, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Read-only operand vectors of length n: generated ones are int8; an
    explicit 1-D signed-integer array is read in place at its own width; a
    list, a tuple or any other array becomes int64 through Matrix, which
    rejects floats, bools and values outside int64.  Explicit ones are then
    range-checked."""
    n, seed = as_count(n, "inner product length", 1), as_count(seed, "seed")
    if operands is None:
        return make_vectors(n, seed, np.int8)
    if any(len(v) != n for v in operands):
        raise ValueError(f"operand vectors must have length {n}")
    a, b = (
        v.view() if isinstance(v, np.ndarray) and v.ndim == 1 and v.dtype.kind == "i"
        else Matrix(1, n, v).data
        for v in operands
    )
    a.flags.writeable = b.flags.writeable = False
    require_operand_range(a, b)
    return a, b


def exact_inner_product(a: np.ndarray, b: np.ndarray) -> Matrix:
    """a . b as a 1 x 1 matrix, accumulated in int64 whatever the operands'
    signed-integer widths or byte orders.  ``np.dot`` accumulates in its
    operands' type, so int8 vectors would wrap; in-range ones keep |sum| <= n * 2^14."""
    return _adopt(np.array([[np.einsum("i,i->", a, b, dtype=np.int64)]]))


# Draws of at least this many values take their words from numpy's legacy
# MT19937 stream, which fills a round in C instead of through one big Python
# int.  It is faster from ~2,000 values on (best of 15 on a 2-core x86 host:
# 8,192 values take 0.32 ms from getrandbits and 0.15 ms from numpy, 32,768
# take 1.34 and 0.62 ms), but 2^15 keeps numpy.random (~6 MB of RSS) out of
# every shipped config, whose largest draw is 8,192 values.
NUMPY_DRAW_MIN = 2**15

# A round draws at most this many words, so its buffers keep one small size
# whatever the seed rejects.  Rounds sized by the whole draw make a 2^21-value
# draw's buffers tens of MB, sized by the seed, and the process's peak RSS
# then differs by ~10 MB from one seed to another.
DRAW_ROUND_WORDS = 2**16

# A round's in-place shift and offset take int16 scalars: Python ints cost
# each of the two calls a conversion, ~3% of a corpus-sized draw.
_SHIFT, _OFFSET = np.int16(7), np.int16(OPERAND_MIN)


def _draw_operands(seed: int, count: int, dtype: type = np.int64) -> np.ndarray:
    """``[random.Random(seed).randint(OPERAND_MIN, OPERAND_MAX) for _ in
    range(count)]`` as a read-only array of dtype, a signed integer type.

    ``randint`` draws ``getrandbits(9)``, the top 9 bits of one 32-bit
    Mersenne Twister word, until it is below 256: it rejects the words
    >= 2**31 and turns an accepted word into ``(word >> 23) + OPERAND_MIN``.
    The draw owns its generator, so ``_accept_words`` may draw words past
    the last one it keeps.  They come from ``getrandbits(32 * w)``, the next
    w words little-endian, or, for at least ``NUMPY_DRAW_MIN`` values, from
    the shared ``numpy.random.RandomState`` (whose legacy stream numpy keeps
    frozen) reseeded under ``_MT19937_LOCK`` with ``random.seed``'s key:
    |seed| in 32-bit words, low first.  The key goes in as a list, so it
    seeds through ``init_by_array`` as ``random.seed`` does; a one-element
    array would be squeezed and seed another stream through ``init_genrand``.
    """
    if count < NUMPY_DRAW_MIN:
        bits = random.Random(seed).getrandbits
        return _accept_words(
            count, lambda w: np.frombuffer(bits(32 * w).to_bytes(4 * w, "little"), "<u4"), dtype
        )
    key = [abs(seed) >> s & 0xFFFFFFFF for s in range(0, max(abs(seed).bit_length(), 1), 32)]
    with _MT19937_LOCK:
        rs = _random_state()
        rs.seed(key)
        # astype copies only on big-endian hosts.
        return _accept_words(
            count, lambda w: rs.randint(0, 2**32, w, np.uint32).astype("<u4", copy=False), dtype
        )


# Held by a large draw from reseeding the shared RandomState until its last
# round, so draws from several threads never interleave.
_MT19937_LOCK = threading.Lock()


@functools.cache
def _random_state():
    """The one RandomState that every large draw reseeds, under ``_MT19937_LOCK``."""
    from numpy.random import RandomState  # ~6 MB of RSS, so only on first use

    return RandomState(0)  # a fixed seed skips the OS entropy; each draw reseeds


def _accept_words(count: int, words: Callable[[int], np.ndarray], dtype: type) -> np.ndarray:
    """The rounds of ``_draw_operands``; ``words(w)`` gives the next w words as "<u4".

    Each round draws 2 * missing + 4 * sqrt(2 * missing) words, at most
    ``DRAW_ROUND_WORDS``.  About half are accepted, so a round falls short
    only four standard deviations below the mean, and a draw that fits one
    round rarely takes a second.  It tests the contiguous words against 2**31, gathers the high
    halves of the first ``missing`` accepted words, shifts and offsets them
    in place and stores them, all in range, straight into the dtype output.
    """
    ops = np.empty(count, dtype=dtype)
    filled = 0
    while filled < count:
        missing = count - filled
        drawn = words(min(2 * missing + math.isqrt(32 * missing), DRAW_ROUND_WORDS))
        # Indexing by nonzero() beats a boolean mask at every size here: the
        # mask's data-dependent branches mispredict on random words.
        hi = drawn.view("<i2")[1::2][(drawn < 2**31).nonzero()[0][:missing]]
        hi >>= _SHIFT
        hi += _OFFSET
        ops[filled : filled + len(hi)] = hi
        filled += len(hi)
    ops.flags.writeable = False
    return ops


def make_gemm(shape: GemmShape, seed: int) -> tuple[Matrix, Matrix]:
    """Build a reproducible (A, B) operand pair for the given shape.

    Generator: ``random.Random(seed)`` (Mersenne Twister), drawing A in
    row-major order first and then B, each element uniform in
    [OPERAND_MIN, OPERAND_MAX].  The generator identity is part of the
    reproducibility contract; traces regenerated from the same (shape, seed)
    are bitwise identical.
    """
    split = shape.m * shape.k
    ops = _draw_operands(as_count(seed, "seed"), split + shape.k * shape.n)
    return _adopt(ops[:split].reshape(shape.m, shape.k)), _adopt(ops[split:].reshape(shape.k, -1))


def make_vectors(n: int, seed: int, dtype: type = np.int64) -> tuple[np.ndarray, np.ndarray]:
    """Reproducible operand vectors for the inner-product simulators.

    Returns two read-only views of one draw of 2n values, a then b, of dtype,
    a signed integer type (int8 when the simulators draw their own).
    """
    n = as_count(n, "vector length", 1)
    if np.dtype(dtype).kind != "i":
        raise ValueError(f"vector dtype must be a signed integer type, got {np.dtype(dtype)}")
    ops = _draw_operands(as_count(seed, "seed"), 2 * n, dtype)
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
    return _adopt(np.ascontiguousarray(c.T if flip else c, dtype=np.int64))


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
