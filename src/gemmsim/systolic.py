"""Cycle-level weight-stationary systolic array running GEMM.

The array has R rows (inner-dimension axis) and C columns (output-column
axis).  For each (k-tile, n-tile) pass, a B tile is loaded so PE(r, c) holds
B[r, c] of the tile; A rows then stream in from the west edge, skewed one
cycle per array row, moving one PE east per clock, while partial sums move
one PE south per clock and accumulate on the way.  Finished output values
leave the bottom row.  Weight load and streaming never overlap, and ragged
edge tiles leave zero-weight PEs that still burn clocks, which is exactly
what depresses utilization at low inner dimension.

The passes are independent, so one loop advances all of them, in one of two
orders.  The clock loop steps every PE of every pass one clock at a time;
the row loop steps one array row at a time over every clock, which is legal
because a partial sum depends only on the PE above one clock earlier and an
A register on the PE to the west one clock earlier.  Calls whose per-clock
state or whose one n-tile series is small, where per-clock numpy calls cost
more than their arithmetic, take the row loop; both fill the same
``bottom``, the bottom row's k-tile sums per clock, from the same
n-tile-major weights (n-tiles, R, k-tiles, C).
Output row i leaves column c at stream cycle i + R - 1 + c, so the result
is read as one strided view of ``bottom`` down those diagonals.  Every
(i, j, l) of the GEMM meets once, so the useful MACs are m*n*k; only the
activity trace counts busy PEs clock by clock.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .results import SimResult, build_result
from .workload import PRODUCT_MAX, GemmShape, Matrix, Record, as_count, require_operand_range

# In-range products are at most 2^14 in magnitude, and every partial sum and
# every k-tile sum of the bottom rows adds at most k of them, so int32 state
# holds each one exactly while k is below this.
INT32_EXACT_K = 2**31 // PRODUCT_MAX
# The row loop runs when one n-tile's partial sums over every clock, k-tiles *
# C * (span + 1) elements, or the per-clock state, R * n-tiles * k-tiles * C
# elements, fit in this many; other calls run the clock loop.  The two loops
# cross between states of 16,384 and 36,864 elements (README).  The row loop
# holds two buffers of at most this size, or of one n-tile's series when
# that series is longer.
ROW_LOOP_ELEMENTS = 2**15


class SystolicConfig(Record):
    """Array extents: rows along the inner dimension, cols along output columns."""

    _fields = ("rows", "cols")

    def __init__(self, rows: int, cols: int) -> None:
        self._set(as_count(rows, "array rows", 1), as_count(cols, "array cols", 1))

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


def _clock_loop(inject: np.ndarray, weights: np.ndarray, bottom: np.ndarray) -> None:
    """Advance every pass one clock at a time, filling ``bottom``.

    The partial sums are n-tile-major, (n-tiles, R + 1, k-tiles, C): the A
    registers (R, k-tiles, C) broadcast over the outermost axis, and each
    n-tile's array rows end in one separator row that is not a PE.  The
    southward shift is then one flat add over the whole buffer; it carries
    row R - 1 into the separator, and the separator, zeroed after every add,
    into the next n-tile's row 0, so nothing crosses n-tiles.
    """
    nt, r_ext, kt, c_ext = weights.shape
    row = kt * c_ext
    # Double-buffered A registers and partial sums: clock s writes buffer
    # s & 1 from buffer 1 - (s & 1).  The views each clock touches are built
    # once per parity.
    a_buf = [np.zeros((r_ext, kt, c_ext), dtype=weights.dtype) for _ in range(2)]
    p_buf = [np.zeros((nt, r_ext + 1, kt, c_ext), dtype=weights.dtype) for _ in range(2)]
    steps = [
        (
            a_buf[j][..., 0],
            a_buf[j].reshape(-1)[1:],
            a_buf[1 - j].reshape(-1)[:-1],
            a_buf[j],
            p_buf[j][:, :r_ext],
            p_buf[j].reshape(-1)[row:],
            p_buf[1 - j].reshape(-1)[:-row],
            p_buf[j][:, r_ext],
            p_buf[j][:, r_ext - 1],
        )
        for j in range(2)
    ]
    clocks = np.moveaxis(inject[..., c_ext:], 2, 0)
    for s, (a_in, p_out) in enumerate(zip(clocks, bottom)):
        a_west, a_east, a_from, a_next, p_next, p_south, p_from, p_sep, p_bottom = steps[s & 1]
        # A moves one PE east in one flat copy; column 0, which that copy
        # fills with the element before it in memory, then takes the
        # injected elements.
        np.copyto(a_east, a_from)
        a_west[...] = a_in
        np.multiply(a_next, weights, out=p_next)
        # Partial sums move one PE south and accumulate.
        np.add(p_south, p_from, out=p_south)
        p_sep.fill(0)
        # The bottom row leaves the array; the k-tiles of an output add up.
        np.einsum("ukc->uc", p_bottom, out=p_out)


def _row_loop(inject: np.ndarray, weights: np.ndarray, bottom: np.ndarray, chunk: int) -> None:
    """Advance every pass one array row at a time, over every clock, filling ``bottom``.

    Row r's state is (n-tiles, k-tiles, C, span + 1), clocks -1 .. span - 1,
    for ``chunk`` n-tiles at a time.  PE (r, c) holds at clock s what row r
    received at clock s - c, one strided view of the schedule.  Row r - 1's
    partial sums one clock earlier arrive in one flat add shifted by one
    element; the element crossing into the next series is row r - 1's at
    clock span - 1, zero because only row R - 1 holds a partial sum then.
    """
    nt, r_ext, kt, c_ext = weights.shape
    span = bottom.shape[0]
    # a_rows[r, t, c, 1 + s] is inject[r, t, C + s - c].
    s0, s1, s2 = inject.strides
    a_rows = as_strided(
        inject[..., c_ext - 1 :], (r_ext, kt, c_ext, span + 1), (s0, s1, -s2, s2), writeable=False
    )
    p_buf = [np.empty((chunk, kt, c_ext, span + 1), dtype=weights.dtype) for _ in range(2)]
    # w_rows[r, u, t, c] is weights[u, r, t, c], broadcast over the clocks.
    w_rows = weights.transpose(1, 0, 2, 3)[..., None]
    for u0 in range(0, nt, chunk):
        # Row r writes buffer r & 1 from buffer 1 - (r & 1); the last chunk
        # may hold fewer n-tiles.
        p_rows = [p[: nt - u0] for p in p_buf]
        flat = [p.reshape(-1) for p in p_rows]
        steps = [(p_rows[j], flat[j][1:], flat[1 - j][:-1]) for j in range(2)]
        for r, (a_row, w_row) in enumerate(zip(a_rows, w_rows[:, u0 : u0 + chunk])):
            p_next, p_south, p_from = steps[r & 1]
            np.multiply(a_row, w_row, out=p_next)
            if r:
                # Row r - 1's partial sums one clock earlier move one PE south.
                np.add(p_south, p_from, out=p_south)
        # The bottom row leaves the array; the k-tiles of an output add up.
        np.add.reduce(p_next[..., 1:], axis=1, out=bottom[:, u0 : u0 + chunk].transpose(1, 2, 0))


def simulate_systolic_gemm(
    a: Matrix, b: Matrix, cfg: SystolicConfig, *, with_trace: bool = False
) -> SimResult:
    """Run GEMM on the array and return exact, cycle-counted results.

    Counts every cycle of every pass (load, fill, steady streaming, drain);
    mac_ops_issued counts only useful MACs, m*n*k.  The passes advance in the
    row loop when one n-tile's partial sums over every clock, ceil(k/R) * C *
    (m + R + C - 1) elements, or the per-clock state, R * ceil(n/C) *
    ceil(k/R) * C elements, fit in ROW_LOOP_ELEMENTS, and in the clock loop
    otherwise; every PE value, and so the result, is the same either way.
    The trace is pass-major (k-tile major): R load zeros, then the pass's
    streaming clocks.  Like a TPU's 8-bit multipliers feeding 32-bit
    accumulators, the array state is int32 while k < INT32_EXACT_K = 2^17,
    where no partial sum can leave int32, and int64 from there on; the
    result is int64 either way.
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
    # A[s - r, t*R + r] (skewed wavefront), held at inject[r, t, C + s]; the C
    # leading zeros are what PEs east of column 0 hold before the stream.
    a_np = a.to_numpy()
    inject = np.zeros((r_ext, kt, c_ext + stream_span), dtype=dtype)
    for r in range(min(r_ext, k)):
        cols = a_np[:, r::r_ext].T
        inject[r, : cols.shape[0], c_ext + r : c_ext + r + m] = cols
    # weights[u, r, t, c] is B[t*R + r, u*C + c], zero past the edges.
    weights = np.zeros((kt * r_ext, nt * c_ext), dtype=dtype)
    weights[:k, :n] = b.to_numpy()
    weights = weights.reshape(kt, r_ext, nt, c_ext).transpose(2, 1, 0, 3).copy()

    bottom = np.empty((stream_span, nt, c_ext), dtype=dtype)
    series = kt * c_ext * (stream_span + 1)
    if min(series, r_ext * nt * kt * c_ext) <= ROW_LOOP_ELEMENTS:
        _row_loop(inject, weights, bottom, min(nt, max(1, ROW_LOOP_ELEMENTS // series)))
    else:
        _clock_loop(inject, weights, bottom)
    # Free the pass state before the result is copied.
    del inject, weights
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
