"""Workload types, the reference oracle, and the outer-product schedule."""

import random

import numpy as np
import pytest

from gemmsim import (
    GemmShape,
    Matrix,
    make_gemm,
    make_vectors,
    outer_product_schedule,
    reference_matmul,
)
from gemmsim.workload import _draw_operands


def outer_product_sum(steps, m, n):
    """Independent accumulation of the schedule's rank updates."""
    acc = [[0] * n for _ in range(m)]
    for step in steps:
        cb, rb = step.col_block, step.row_block
        for i in range(m):
            for j in range(n):
                acc[i][j] += sum(cb.at(i, t) * rb.at(t, j) for t in range(cb.cols))
    return Matrix.from_rows(acc)


def test_shape_validation():
    GemmShape(1, 1, 1)
    with pytest.raises(ValueError):
        GemmShape(0, 1, 1)
    with pytest.raises(ValueError):
        GemmShape(1, 1, -3)


def test_matrix_validation():
    with pytest.raises(ValueError):
        Matrix(2, 2, (1, 2, 3))
    with pytest.raises(ValueError):
        Matrix(0, 1, ())
    with pytest.raises(ValueError):
        Matrix(1, 2, (1.5, 2))


def test_matrix_accessors():
    m = Matrix.from_rows([[1, 2, 3], [4, 5, 6]])
    assert m.at(1, 2) == 6
    assert m.row(0) == (1, 2, 3)
    assert m.col(1) == (2, 5)
    assert m.slice_cols(1, 3).to_rows() == [[2, 3], [5, 6]]
    assert m.slice_rows(1, 2).to_rows() == [[4, 5, 6]]
    assert Matrix.from_numpy(m.to_numpy()) == m


@pytest.mark.parametrize(
    "data",
    [
        (1, 2.0),
        (True, 2),
        (np.True_, 2),
        (2**63, 0),
        (-(2**63) - 1, 0),
        np.array([1.0, 2.0]),
        np.array([True, False]),
        np.array([2**63, 0], dtype=np.uint64),
    ],
)
def test_matrix_rejects_non_int64_elements(data):
    with pytest.raises(ValueError):
        Matrix(1, 2, data)


def test_matrix_accepts_int64_range_and_numpy_ints():
    m = Matrix(1, 3, (np.int64(2**63 - 1), -(2**63), np.uint8(7)))
    assert m.row(0) == (2**63 - 1, -(2**63), 7)
    assert m.data.dtype == np.int64


def test_matrix_storage_is_read_only():
    m = Matrix.from_rows([[1, 2], [3, 4]])
    view = m.to_numpy()
    assert not view.flags.writeable
    with pytest.raises(ValueError):
        view[0, 0] = 9
    with pytest.raises(ValueError):
        m.data[0] = 9
    assert m.to_rows() == [[1, 2], [3, 4]]


def test_matrix_never_aliases_its_input():
    arr = np.array([[1, 2], [3, 4]], dtype=np.int64)
    m = Matrix.from_numpy(arr)
    assert not np.shares_memory(m.data, arr)
    arr[0, 0] = 99
    assert m.at(0, 0) == 1
    flat = np.array([5, 6], dtype=np.int64)
    v = Matrix(1, 2, flat)
    flat[1] = 0
    assert v.at(0, 1) == 6


def test_matrix_equality_compares_shape_and_values():
    a = Matrix.from_rows([[1, 2, 3, 4]])
    assert a == Matrix(1, 4, np.arange(1, 5))
    assert hash(a) == hash(Matrix(1, 4, np.arange(1, 5)))
    assert a != Matrix(2, 2, (1, 2, 3, 4))
    assert a != Matrix(1, 4, (1, 2, 3, 5))


def test_make_gemm_deterministic():
    a1, b1 = make_gemm(GemmShape(1, 1, 1), 0)
    a2, b2 = make_gemm(GemmShape(1, 1, 1), 0)
    assert (a1, b1) == (a2, b2)

    first = make_gemm(GemmShape(4, 4, 4), 7)
    second = make_gemm(GemmShape(4, 4, 4), 7)
    assert first == second


def test_make_gemm_seed_sensitivity():
    a1, b1 = make_gemm(GemmShape(8, 8, 8), 1)
    a2, b2 = make_gemm(GemmShape(8, 8, 8), 2)
    assert a1.data.tolist() != a2.data.tolist() or b1.data.tolist() != b2.data.tolist()


def test_make_gemm_operand_range():
    a, b = make_gemm(GemmShape(16, 16, 16), 3)
    assert all(-128 <= e <= 127 for e in a.data.tolist() + b.data.tolist())


@pytest.mark.parametrize("seed", [0, 1, 7, 2**31 + 5])
def test_operand_draws_match_randint(seed):
    expected_rng, rng = random.Random(seed), random.Random(seed)
    for count in (0, 1, 3, 1000):
        drawn = _draw_operands(rng, count)
        assert drawn.tolist() == [expected_rng.randint(-128, 127) for _ in range(count)]
        # The generator must be left where randint leaves it.
        assert rng.random() == expected_rng.random()


def randint_draws(rng, count):
    return [rng.randint(-128, 127) for _ in range(count)]


@pytest.mark.parametrize("seed", [3, 2**40 + 1])
def test_multi_round_draw_matches_randint(seed):
    # About half the words are rejected, so 100 000 values take ~17 rounds.
    expected_rng, rng = random.Random(seed), random.Random(seed)
    drawn = _draw_operands(rng, 100_000)
    assert drawn.dtype == np.int64
    assert drawn.tolist() == randint_draws(expected_rng, 100_000)
    assert rng.getstate() == expected_rng.getstate()


@pytest.mark.parametrize("dims", [(1, 1, 1), (3, 5, 2), (17, 4, 9), (64, 64, 64)])
@pytest.mark.parametrize("seed", [0, 11, 2**33])
def test_make_gemm_matches_randint_construction(dims, seed):
    m, n, k = dims
    rng = random.Random(seed)
    want_a = [randint_draws(rng, k) for _ in range(m)]
    want_b = [randint_draws(rng, n) for _ in range(k)]
    a, b = make_gemm(GemmShape(m, n, k), seed)
    assert a.to_rows() == want_a
    assert b.to_rows() == want_b


@pytest.mark.parametrize("n", [1, 2, 999, 50_000])
@pytest.mark.parametrize("seed", [0, 11, 2**33])
def test_make_vectors_matches_randint_construction(n, seed):
    rng = random.Random(seed)
    want_a = randint_draws(rng, n)
    want_b = randint_draws(rng, n)
    a, b = make_vectors(n, seed)
    assert a.tolist() == want_a
    assert b.tolist() == want_b
    for v in (a, b):
        assert v.dtype == np.int64 and not v.flags.writeable


def test_make_vectors():
    assert [v.tolist() for v in make_vectors(5, 1)] == [v.tolist() for v in make_vectors(5, 1)]
    assert [v.tolist() for v in make_vectors(5, 1)] != [v.tolist() for v in make_vectors(5, 2)]
    with pytest.raises(ValueError):
        make_vectors(0, 1)


def test_reference_matmul_identity():
    b = Matrix.from_rows([[5, -3, 2], [0, 7, 1], [9, 9, -8]])
    assert reference_matmul(Matrix.from_numpy(np.eye(3, dtype=np.int64)), b) == b


def zeros(rows, cols):
    return Matrix.from_numpy(np.zeros((rows, cols), dtype=np.int64))


def test_reference_matmul_zero():
    b = Matrix.from_rows([[1, 2], [3, 4], [5, 6]])
    assert reference_matmul(zeros(2, 3), b) == zeros(2, 2)


def test_reference_matmul_known_product():
    a = Matrix.from_rows([[1, 2], [3, 4]])
    b = Matrix.from_rows([[5, 6], [7, 8]])
    assert reference_matmul(a, b) == Matrix.from_rows([[19, 22], [43, 50]])


def test_reference_matmul_dimension_mismatch():
    with pytest.raises(ValueError):
        reference_matmul(zeros(2, 3), zeros(2, 2))


def test_reference_matmul_against_numpy():
    rng = random.Random(42)
    for _ in range(20):
        shape = GemmShape(rng.randint(1, 20), rng.randint(1, 20), rng.randint(1, 20))
        a, b = make_gemm(shape, rng.randrange(1 << 20))
        ours = reference_matmul(a, b).to_numpy()
        theirs = a.to_numpy() @ b.to_numpy()
        assert np.array_equal(ours, theirs)


def test_schedule_single_block():
    a, b = make_gemm(GemmShape(3, 4, 8), 5)
    steps = outer_product_schedule(a, b, 8)
    assert len(steps) == 1
    assert steps[0].col_block == a and steps[0].row_block == b


def test_schedule_reconstruction():
    a, b = make_gemm(GemmShape(5, 6, 8), 11)
    steps = outer_product_schedule(a, b, 2)
    assert len(steps) == 4
    assert outer_product_sum(steps, 5, 6) == reference_matmul(a, b)


def test_schedule_ragged_widths():
    a, b = make_gemm(GemmShape(2, 3, 5), 1)
    steps = outer_product_schedule(a, b, 2)
    assert [s.width for s in steps] == [2, 2, 1]
    assert outer_product_sum(steps, 2, 3) == reference_matmul(a, b)


def test_schedule_block_concatenation():
    a, b = make_gemm(GemmShape(4, 4, 7), 2)
    steps = outer_product_schedule(a, b, 3)
    rebuilt_a = [
        sum((list(step.col_block.row(i)) for step in steps), []) for i in range(4)
    ]
    assert Matrix.from_rows(rebuilt_a) == a
    rebuilt_b = [row for step in steps for row in step.row_block.to_rows()]
    assert Matrix.from_rows(rebuilt_b) == b


def test_schedule_width_errors():
    a, b = make_gemm(GemmShape(2, 2, 4), 0)
    with pytest.raises(ValueError):
        outer_product_schedule(a, b, 0)
    with pytest.raises(ValueError):
        outer_product_schedule(a, b, 5)


def test_schedule_property_random():
    rng = random.Random(7)
    for _ in range(25):
        shape = GemmShape(rng.randint(1, 16), rng.randint(1, 16), rng.randint(1, 16))
        a, b = make_gemm(shape, rng.randrange(1 << 20))
        width = rng.randint(1, shape.k)
        steps = outer_product_schedule(a, b, width)
        assert len(steps) == -(-shape.k // width)
        assert outer_product_sum(steps, shape.m, shape.n) == reference_matmul(a, b)
