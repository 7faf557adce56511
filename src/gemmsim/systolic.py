"""Cycle-level weight-stationary systolic array running GEMM.

The array has R rows (inner-dimension axis) and C columns (output-column
axis).  For each (k-tile, n-tile) pass, a B tile is loaded so PE(r, c) holds
B[r, c] of the tile; A rows then stream in from the west edge, skewed one
cycle per array row, moving one PE east per clock, while partial sums move
one PE south per clock and accumulate on the way.  Finished output values
leave the bottom row.  Weight load and streaming never overlap, and ragged
edge tiles leave zero-weight PEs that still burn clocks, which is exactly
what depresses utilization at low inner dimension.

The passes are independent, so one clock loop advances all of them.  Its
state is array-row-major, (R, n-tiles, k-tiles, C): the southward shift is
one contiguous add, and the bottom row is one contiguous block summed over
its k-tiles into that clock's row of ``bottom``.  Output row i leaves column
c at stream cycle i + R - 1 + c, so the result is read as one strided view
of ``bottom`` down those diagonals.  Every (i, j, l) of the GEMM meets once,
so the useful MACs are m*n*k; only the activity trace counts busy PEs clock
by clock.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .results import SimResult, build_result
from .workload import OPERAND_MAX, OPERAND_MIN, GemmShape, Matrix, require_operand_range

# In-range products are at most 2^14 in magnitude, and every partial sum and
# every k-tile sum of the bottom rows adds at most k of them, so int32 state
# holds each one exactly while k is below this.
INT32_EXACT_K = 2**31 // max(-OPERAND_MIN, OPERAND_MAX) ** 2


@dataclass(frozen=True)
class SystolicConfig:
    """Array extents: rows along the inner dimension, cols along output columns."""

    rows: int
    cols: int

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ValueError(f"array must be at least 1x1, got {self.rows}x{self.cols}")

    @property
    def num_pes(self) -> int:
        return self.rows * self.cols


def systolic_cycle_formula(shape: GemmShape, cfg: SystolicConfig) -> int:
    """Closed-form cycle count the event simulation must reproduce.

    Per tile pass: R cycles of weight load plus the skewed streaming span
    m + R + C - 2; there are ceil(k/R) * ceil(n/C) passes.
    """
    r, c = cfg.rows, cfg.cols
    passes = -(-shape.k // r) * -(-shape.n // c)
    return passes * (r + (shape.m + r + c - 2))


def simulate_systolic_gemm(
    a: Matrix, b: Matrix, cfg: SystolicConfig, *, with_trace: bool = False
) -> SimResult:
    """Run GEMM on the array, clock by clock, and return exact results.

    Counts every cycle of every pass (load, fill, steady streaming, drain);
    mac_ops_issued counts only useful MACs, m*n*k.  The trace is pass-major
    (k-tile major): R load zeros, then the pass's streaming clocks.  Like a
    TPU's 8-bit multipliers feeding 32-bit accumulators, the array state is
    int32 while k < INT32_EXACT_K = 2^17, where no partial sum can leave
    int32, and int64 from there on; the result is int64 either way.
    """
    if a.cols != b.rows:
        raise ValueError(f"dimension mismatch: {a.rows}x{a.cols} . {b.rows}x{b.cols}")
    require_operand_range(a, b)
    m, k, n = a.rows, a.cols, b.cols
    r_ext, c_ext = cfg.rows, cfg.cols
    kt, nt = -(-k // r_ext), -(-n // c_ext)
    stream_span = m + r_ext + c_ext - 2

    dtype = np.int32 if k < INT32_EXACT_K else np.int64
    # Injection schedule: at stream cycle s, array row r of k-tile t receives
    # A[s - r, t*R + r] (skewed wavefront), zero outside range.
    a_np = a.to_numpy()
    inject = np.zeros((stream_span, r_ext, kt), dtype=dtype)
    for r in range(min(r_ext, k)):
        cols = a_np[:, r::r_ext]
        inject[r : r + m, r, : cols.shape[1]] = cols
    # weights[r, u, t, c] is B[t*R + r, u*C + c], zero past the edges.
    weights = np.zeros((kt * r_ext, nt * c_ext), dtype=dtype)
    weights[:k, :n] = b.to_numpy()
    weights = weights.reshape(kt, r_ext, nt, c_ext).transpose(1, 2, 0, 3).copy()

    # Double-buffered A registers and partial sums: clock s writes buffer
    # s & 1 from buffer 1 - (s & 1).  The views each clock touches are built
    # once per parity.
    a_buf = [np.zeros((r_ext, 1, kt, c_ext), dtype=dtype) for _ in range(2)]
    p_buf = [np.zeros(weights.shape, dtype=dtype) for _ in range(2)]
    steps = [
        (
            a_buf[j][:, 0, :, 0],
            a_buf[j][..., 1:],
            a_buf[1 - j][..., :-1],
            a_buf[j],
            p_buf[j],
            p_buf[j][1:],
            p_buf[1 - j][:-1],
            p_buf[j][-1],
        )
        for j in range(2)
    ]
    bottom = np.empty((stream_span, nt, c_ext), dtype=dtype)
    for s, (a_in, p_out) in enumerate(zip(inject, bottom)):
        a_west, a_east, a_from, a_next, p_next, p_south, p_from, p_bottom = steps[s & 1]
        # A moves one PE east; partial sums move one PE south and accumulate.
        a_west[...] = a_in
        a_east[...] = a_from
        np.multiply(a_next, weights, out=p_next)
        np.add(p_south, p_from, out=p_south)
        # The bottom row leaves the array; the k-tiles of an output add up.
        np.add.reduce(p_bottom, axis=1, out=p_out)
    # Free the pass state before the result is copied.
    del inject, weights, a_buf, p_buf, steps, a_in
    del a_west, a_east, a_from, a_next, p_next, p_south, p_from, p_bottom
    # Column c of n-tile u finishes logical row i at stream cycle i + R - 1 + c,
    # at most m + R + C - 3, bottom's last row.
    s0, s1, s2 = bottom.strides
    c_acc = as_strided(bottom[r_ext - 1 :], (m, nt, c_ext), (s0, s1, s0 + s2), writeable=False)

    trace = None
    if with_trace:
        # Busy PEs per pass and stream cycle: (r, c) with r < ke, c < ne and
        # a real A row in flight (0 <= s - r - c < m).  Tiles share one of at
        # most two (ke, ne) extents each, so count once per distinct extent.
        ke, ke_of = np.unique(np.minimum(r_ext, k - r_ext * np.arange(kt)), return_inverse=True)
        ne, ne_of = np.unique(np.minimum(c_ext, n - c_ext * np.arange(nt)), return_inverse=True)
        d = np.arange(stream_span)[:, None] - np.arange(r_ext)  # s - r
        lo = np.maximum(0, d - m + 1)
        hi = np.minimum(ne[:, None, None] - 1, d)
        per_row = np.maximum(0, hi - lo + 1)  # (ne, s, r)
        active = per_row.cumsum(axis=2)[:, :, ke - 1]  # (ne, s, ke)
        per_pass = np.zeros((kt, nt, r_ext + stream_span), dtype=np.int64)
        per_pass[:, :, r_ext:] = active[ne_of][:, :, ke_of].transpose(2, 0, 1)
        trace = tuple(per_pass.ravel().tolist())

    passes = kt * nt
    return build_result(
        passes * (r_ext + stream_span),
        Matrix.from_numpy(c_acc.reshape(m, nt * c_ext)[:, :n]),
        m * n * k,
        cfg.num_pes,
        phases={"load": passes * r_ext, "stream": passes * stream_span},
        activity_trace=trace,
    )
