"""Differential test: the batched systolic engine against the per-pass loop.

``simulate_systolic_gemm`` advances every (k-tile, n-tile) pass at once, in
either a clock loop or a row loop.  The reference below is the per-pass
engine they replaced: one clock loop per pass over a single R x C register
file.  Both loop orders must return ``SimResult`` objects equal to it,
activity trace included.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gemmsim import (
    GemmShape,
    Matrix,
    SystolicConfig,
    make_gemm,
    reference_matmul,
    simulate_systolic_gemm,
    systolic,
    systolic_cycle_formula,
)
from gemmsim.results import build_result
from gemmsim.workload import require_operand_range


def per_pass_systolic_gemm(a, b, cfg, *, with_trace=False):
    if a.cols != b.rows:
        raise ValueError(f"dimension mismatch: {a.rows}x{a.cols} . {b.rows}x{b.cols}")
    require_operand_range(a, b)
    m, k, n = a.rows, a.cols, b.cols
    r_ext, c_ext = cfg.rows, cfg.cols

    a_np = a.to_numpy()
    b_np = b.to_numpy()
    c_acc = np.zeros((m, n), dtype=np.int64)

    stream_span = m + r_ext + c_ext - 2
    cycles = 0
    mac_ops = 0
    trace = []

    for k0 in range(0, k, r_ext):
        ke = min(r_ext, k - k0)
        inject = np.zeros((stream_span, r_ext), dtype=np.int64)
        for r in range(ke):
            inject[r : r + m, r] = a_np[:, k0 + r]
        for n0 in range(0, n, c_ext):
            ne = min(c_ext, n - n0)
            weights = np.zeros((r_ext, c_ext), dtype=np.int64)
            weights[:ke, :ne] = b_np[k0 : k0 + ke, n0 : n0 + ne]

            cycles += r_ext
            if with_trace:
                trace.extend([0] * r_ext)

            a_reg = np.zeros((r_ext, c_ext), dtype=np.int64)
            psum = np.zeros((r_ext, c_ext), dtype=np.int64)
            rs = np.arange(ke)
            for s in range(stream_span):
                new_a = np.empty_like(a_reg)
                new_a[:, 0] = inject[s]
                new_a[:, 1:] = a_reg[:, :-1]
                prod = new_a * weights
                new_psum = np.empty_like(psum)
                new_psum[0, :] = prod[0, :]
                new_psum[1:, :] = psum[:-1, :] + prod[1:, :]

                lo = np.maximum(0, s - rs - m + 1)
                hi = np.minimum(ne - 1, s - rs)
                active = int(np.maximum(0, hi - lo + 1).sum())
                mac_ops += active
                if with_trace:
                    trace.append(active)

                c_hi = min(ne - 1, s - (r_ext - 1))
                c_lo = max(0, s - (r_ext - 1) - (m - 1))
                if c_hi >= c_lo:
                    cs = np.arange(c_lo, c_hi + 1)
                    c_acc[s - (r_ext - 1) - cs, n0 + cs] += new_psum[r_ext - 1, cs]

                a_reg = new_a
                psum = new_psum
            cycles += stream_span

    passes = math.ceil(k / r_ext) * math.ceil(n / c_ext)
    phases = {"load": passes * r_ext, "stream": passes * stream_span}
    return build_result(
        cycles,
        Matrix.from_numpy(c_acc),
        mac_ops,
        cfg.num_pes,
        phases=phases,
        activity_trace=tuple(trace) if with_trace else None,
    )


@st.composite
def instances(draw):
    m = draw(st.integers(1, 12))
    n = draw(st.integers(1, 12))
    k = draw(st.integers(1, 12))
    rows = draw(st.integers(1, 6))
    cols = draw(st.integers(1, 6))
    seed = draw(st.integers(0, 2**20))
    return m, n, k, rows, cols, seed


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(instances())
@example((1, 5, 7, 3, 2, 1))  # a single A row
@example((1, 1, 1, 1, 1, 2))  # 1x1 everything
@example((6, 5, 4, 1, 1, 3))  # 1x1 array: one pass per (k, n) element
@example((4, 3, 2, 6, 2, 4))  # R > k: one ragged k-tile
@example((4, 2, 5, 2, 6, 5))  # C > n: one ragged n-tile
@example((7, 11, 10, 4, 3, 6))  # ragged last tiles in both k and n
@example((9, 12, 12, 4, 4, 7))  # tiles divide k and n exactly
@example((1, 3, 4, 1, 1, 8))  # stream span 1: one clock, one buffer parity
@example((2, 2, 3, 1, 1, 9))  # stream span 2: each parity once
@example((1, 3, 5, 2, 2, 10))  # stream span 3: parity 0 twice
@example((1, 11, 10, 3, 4, 11))  # m = 1 drained from 4 k-tiles and 3 n-tiles
@example((5, 12, 11, 4, 3, 12))  # kt = 3, nt = 4, R > C
@example((3, 10, 12, 2, 4, 13))  # kt = 6, nt = 3, R < C
@example((1, 2, 9, 2, 6, 14))  # m = 1, C > n, kt = 5
@example((3, 12, 5, 2, 2, 15))  # nt = 6: row-loop chunks of 2, 2 and 2 n-tiles
@example((4, 9, 7, 3, 2, 16))  # nt = 5: chunks of 2, 2 and a ragged 1
@example((1, 5, 3, 1, 1, 17))  # stream span 1 in chunks of 2, 2 and 1
@example((1, 5, 3, 2, 1, 18))  # stream span 2, kt = 2, in chunks of 2, 2 and 1
@example((1, 7, 5, 2, 2, 19))  # stream span 3, kt = 3, in chunks of 2 and 2
def test_batched_engine_matches_per_pass_loop(inst):
    m, n, k, rows, cols, seed = inst
    a, b = make_gemm(GemmShape(m, n, k), seed)
    cfg = SystolicConfig(rows, cols)
    want = {t: per_pass_systolic_gemm(a, b, cfg, with_trace=t) for t in (False, True)}
    # ROW_LOOP_ELEMENTS = 0 sends every call through the clock loop; twice one
    # n-tile's series runs the row loop in chunks of two n-tiles, and the
    # default in one chunk.  INT32_EXACT_K = 1 sends every k through the int64
    # state.
    series = -(-k // rows) * cols * (m + rows + cols - 1)
    for row_loop_elements in (0, 2 * series, systolic.ROW_LOOP_ELEMENTS):
        for int32_exact_k in (systolic.INT32_EXACT_K, 1):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(systolic, "ROW_LOOP_ELEMENTS", row_loop_elements)
                patch.setattr(systolic, "INT32_EXACT_K", int32_exact_k)
                for with_trace in (False, True):
                    got = simulate_systolic_gemm(a, b, cfg, with_trace=with_trace)
                    assert got == want[with_trace]
    assert got.result == reference_matmul(a, b)


def test_trace_is_pass_major_by_k_tile():
    # m=2, k=4, n=3 on a 3x2 array: k-tiles of 3 and 1 rows, n-tiles of 2
    # and 1 columns, stream span 2+3+2-2 = 5.  PE (r, c) of a pass is busy at
    # stream cycle s when r < ke, c < ne and 0 <= s - r - c < 2; each pass
    # starts with 3 load cycles.
    shape, cfg = GemmShape(2, 3, 4), SystolicConfig(3, 2)
    a, b = make_gemm(shape, 8)
    res = simulate_systolic_gemm(a, b, cfg, with_trace=True)
    assert res.activity_trace == (
        (0, 0, 0, 1, 3, 4, 3, 1)  # k-tile 0, n-tile 0: ke=3, ne=2
        + (0, 0, 0, 1, 2, 2, 1, 0)  # k-tile 0, n-tile 1: ke=3, ne=1
        + (0, 0, 0, 1, 2, 1, 0, 0)  # k-tile 1, n-tile 0: ke=1, ne=2
        + (0, 0, 0, 1, 1, 0, 0, 0)  # k-tile 1, n-tile 1: ke=1, ne=1
    )
    assert res.cycles == systolic_cycle_formula(shape, cfg) == 32
    assert res.phases == {"load": 12, "stream": 20}
    assert res.mac_ops_issued == shape.macs == 24
    assert res.result == reference_matmul(a, b)
