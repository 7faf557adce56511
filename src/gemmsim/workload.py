"""GEMM problem instances, exact integer matrices, and the reference oracle.

Every simulator in this package consumes the same operand containers and is
checked bit-exactly against :func:`reference_matmul`, which is deliberately
implemented with plain Python integer arithmetic so it stays an independent
route from the numpy-backed simulator internals.
"""

from __future__ import annotations

import operator
import random
import sys
from array import array
from dataclasses import dataclass
from typing import Sequence

import numpy as np

# Operands are signed 8-bit-equivalent integers; accumulators are 64-bit
# equivalent.  With |a*b| <= 128*128, an int64 accumulator cannot overflow
# for any problem size this workbench can hold in memory.
OPERAND_MIN = -128
OPERAND_MAX = 127


@dataclass(frozen=True)
class GemmShape:
    """Dimensions of C (m x n) = A (m x k) . B (k x n)."""

    m: int
    n: int
    k: int

    def __post_init__(self) -> None:
        for name in ("m", "n", "k"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 1:
                raise ValueError(f"shape field {name} must be a positive integer, got {value!r}")

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
        if self.rows < 1 or self.cols < 1:
            raise ValueError(f"matrix must be at least 1x1, got {self.rows}x{self.cols}")
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
        c = len(rows[0])
        if any(len(row) != c for row in rows):
            raise ValueError("ragged row lengths")
        return cls(len(rows), c, [e for row in rows for e in row])

    @classmethod
    def from_numpy(cls, arr: np.ndarray) -> "Matrix":
        if arr.ndim != 2:
            raise ValueError("expected a 2-D array")
        return cls(arr.shape[0], arr.shape[1], arr.ravel())

    def at(self, i: int, j: int) -> int:
        return int(self.data[i * self.cols + j])

    def row(self, i: int) -> tuple[int, ...]:
        return tuple(self.data[i * self.cols : (i + 1) * self.cols].tolist())

    def col(self, j: int) -> tuple[int, ...]:
        return tuple(self.data[j :: self.cols].tolist())

    def to_rows(self) -> list[list[int]]:
        return self.to_numpy().tolist()

    def to_numpy(self) -> np.ndarray:
        """Read-only (rows, cols) view of the matrix's own buffer."""
        return self.data.reshape(self.rows, self.cols)

    def slice_rows(self, lo: int, hi: int) -> "Matrix":
        if not (0 <= lo < hi <= self.rows):
            raise ValueError(f"bad row slice [{lo}, {hi}) for {self.rows} rows")
        return Matrix(hi - lo, self.cols, self.data[lo * self.cols : hi * self.cols])

    def slice_cols(self, lo: int, hi: int) -> "Matrix":
        if not (0 <= lo < hi <= self.cols):
            raise ValueError(f"bad column slice [{lo}, {hi}) for {self.cols} columns")
        return Matrix(self.rows, hi - lo, self.to_numpy()[:, lo:hi].ravel())


def require_operand_range(*matrices: Matrix) -> None:
    """Reject matrices whose elements fall outside the operand width."""
    for mat in matrices:
        bad = (mat.data < OPERAND_MIN) | (mat.data > OPERAND_MAX)
        if bad.any():
            raise ValueError(
                f"operand element {mat.data[bad.argmax()]} outside [{OPERAND_MIN}, {OPERAND_MAX}]"
            )


def resolve_vector_operands(
    n: int, operands: tuple[Sequence[int], Sequence[int]] | None, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Explicit operand vectors, type- and range-checked, or generated ones.

    Either way the vectors are read-only int64 arrays of length n.
    """
    if n < 1:
        raise ValueError(f"inner product length must be >= 1, got {n}")
    if operands is None:
        return make_vectors(n, seed)
    if any(len(v) != n for v in operands):
        raise ValueError(f"operand vectors must have length {n}")
    # Matrix rejects floats, bools and values outside int64.
    a, b = (Matrix(1, n, v) for v in operands)
    require_operand_range(a, b)
    return a.data, b.data


@dataclass(frozen=True)
class OuterProductStep:
    """One rank-b update: C += col_block (m x b) . row_block (b x n)."""

    index: int
    col_block: Matrix
    row_block: Matrix

    @property
    def width(self) -> int:
        return self.col_block.cols


def _draw_operands(rng: random.Random, count: int) -> np.ndarray:
    """``[rng.randint(OPERAND_MIN, OPERAND_MAX) for _ in range(count)]`` as int64.

    ``randint`` keeps the top 9 bits of one 32-bit Mersenne Twister word and
    rejects values >= 256.  ``getrandbits(32 * w)`` returns the next w words
    little-endian, so filtering those words in numpy yields the same values
    and leaves ``rng`` in the same state.  Each round draws only as many
    words as values are still missing, so no word is drawn past the last
    accepted one.
    """
    width = OPERAND_MAX - OPERAND_MIN + 1
    shift = 32 - width.bit_length()
    parts = [np.empty(0, dtype=np.uint32)]
    missing = count
    while missing:
        words = rng.getrandbits(32 * missing).to_bytes(4 * missing, "little")
        candidates = np.frombuffer(words, "<u4") >> shift
        accepted = candidates[candidates < width]
        parts.append(accepted)
        missing -= len(accepted)
    return np.concatenate(parts).astype(np.int64) + OPERAND_MIN


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
    if n < 1:
        raise ValueError(f"vector length must be >= 1, got {n}")
    ops = _draw_operands(random.Random(seed), 2 * n)
    ops.flags.writeable = False
    return ops[:n], ops[n:]


def reference_matmul(a: Matrix, b: Matrix) -> Matrix:
    """Ground-truth GEMM in exact integer arithmetic, by Kronecker substitution.

    Pure Python on purpose: this is the oracle every simulator is compared
    against, so it shares no numpy arithmetic with them.  Each row of B is
    packed into one big int of w-bit fields, each starting at 2^(w-1) so it
    never borrows, and row i of C is one big-int multiply-add per element of
    A's row i.  w is 32 while k * max|A| * max|B| < 2^31, 64 while it is
    below 2^63; larger operands raise ValueError.
    """
    if a.cols != b.rows:
        raise ValueError(f"dimension mismatch: {a.rows}x{a.cols} . {b.rows}x{b.cols}")
    arows, bflat = a.to_rows(), b.to_numpy().ravel().tolist()
    amax = max(max(map(max, arows)), -min(map(min, arows)))
    # At least max|B|, so every element of B also fits in a field.
    bound = max(a.cols * amax, 1) * max(max(bflat), -min(bflat))
    if bound >= 1 << 63:
        raise ValueError(f"k * max|A| * max|B| = {bound} does not fit in 64 bits")
    code, width = ("i", 32) if bound < 1 << 31 else ("q", 64)
    order = sys.byteorder  # array and memoryview use the native byte order
    size = b.cols * width // 8
    # -2^(w-1) in w-bit two's complement is the field's top bit alone.
    offset = int.from_bytes(array(code, [-(1 << width - 1)] * b.cols).tobytes(), order)
    braw = array(code, bflat).tobytes()
    # Read unsigned, field j holds B[k][j] mod 2^w; flipping its top bit makes
    # it B[k][j] + 2^(w-1), and subtracting the offset leaves the signed
    # sum_j B[k][j] * 2^(w*j).
    packed = [
        (int.from_bytes(braw[lo : lo + size], order) ^ offset) - offset
        for lo in range(0, len(braw), size)
    ]
    out = []
    for arow in arows:
        # Each field now holds C[i][j] + 2^(w-1) in [0, 2^w); flipping its top
        # bit leaves C[i][j] in two's complement.
        acc = sum(map(operator.mul, arow, packed), offset) ^ offset
        out += memoryview(acc.to_bytes(size, order)).cast(code).tolist()
    return Matrix(a.rows, b.cols, out)


def outer_product_schedule(a: Matrix, b: Matrix, block_width: int) -> list[OuterProductStep]:
    """Split A into block columns and B into block rows of the given width.

    Returns ceil(k / block_width) steps; the final step may be narrower when
    the inner dimension is not a multiple of the width.  Summing the steps'
    outer products reconstructs the full product exactly.
    """
    if a.cols != b.rows:
        raise ValueError(f"dimension mismatch: {a.rows}x{a.cols} . {b.rows}x{b.cols}")
    k = a.cols
    if block_width < 1 or block_width > k:
        raise ValueError(f"block width must be in [1, {k}], got {block_width}")
    steps = []
    for t, lo in enumerate(range(0, k, block_width)):
        hi = min(k, lo + block_width)
        steps.append(OuterProductStep(t, a.slice_cols(lo, hi), b.slice_rows(lo, hi)))
    return steps
