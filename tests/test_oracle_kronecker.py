"""Differential test: the Kronecker-substitution oracle against a dot-product loop.

``reference_matmul`` packs each row of B into one big int of 32- or 64-bit
fields and reads row i of C back from one big-int multiply-add per element of
A's row i; when C has fewer columns than rows it does the same for
C^T = B^T . A^T and transposes the result.  The reference below is the
oracle it replaced: one Python ``sum(map(operator.mul, ...))`` per output
element.  Both must agree exactly on every shape and operand, in both
orientations and at the field-width boundary included.
"""

import operator

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gemmsim import GemmShape, Matrix, make_gemm, reference_matmul


def dot_product_matmul(a, b):
    bcols = list(zip(*b.to_rows()))
    out = [sum(map(operator.mul, arow, bcol)) for arow in a.to_rows() for bcol in bcols]
    return Matrix(a.rows, b.cols, out)


def filled(rows, cols, value):
    return Matrix(rows, cols, [value] * (rows * cols))


def assert_matches_reference(a, b):
    ours = reference_matmul(a, b)
    assert ours == dot_product_matmul(a, b)
    assert (ours.rows, ours.cols) == (a.rows, b.cols)


dims = st.integers(1, 48)


@st.composite
def operand_pairs(draw):
    m, n, k = draw(dims), draw(dims), draw(dims)
    if draw(st.booleans()):
        return make_gemm(GemmShape(m, n, k), draw(st.integers(0, 2**32 - 1)))
    # Short lists of any in-range values, repeated to fill A and B, keep the
    # draw cheap while hypothesis still reaches -128, 127 and 0.
    values = st.lists(st.integers(-128, 127), min_size=1, max_size=16)
    a, b = draw(values), draw(values)
    return (
        Matrix(m, k, (a * (m * k))[: m * k]),
        Matrix(k, n, (b * (k * n))[: k * n]),
    )


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(operand_pairs())
@example((filled(1, 1, -128), filled(1, 1, -128)))  # m = n = k = 1
@example(make_gemm(GemmShape(1, 1, 9), 3))  # m = n = 1
@example((filled(3, 5, 0), filled(5, 4, 127)))  # zero A
@example((filled(4, 2, 127), filled(2, 1, -128)))  # one output column
@example(make_gemm(GemmShape(5, 2, 3), 7))  # m > n: packs the rows of A^T
def test_matches_dot_products(operands):
    assert_matches_reference(*operands)


# k * 128 * 128 is 2^31 - 2^14 at k = 131071 (32-bit fields) and exactly
# 2^31 at k = 131072 (64-bit fields): all -128 operands then need a field
# that holds +2^31.  The expected product k * a * b stands in for the slower
# dot-product reference here.
@pytest.mark.parametrize("k", [131071, 131072])
@pytest.mark.parametrize("a_value, b_value", [(-128, -128), (127, 127), (-128, 127)])
def test_field_width_boundary(k, a_value, b_value):
    product = reference_matmul(filled(1, k, a_value), filled(k, 2, b_value))
    assert product == filled(1, 2, k * a_value * b_value)


# The transposed shape, 2 x k . k x 1, packs the rows of A^T instead of B's.
@pytest.mark.parametrize("k", [131071, 131072])
@pytest.mark.parametrize("a_value, b_value", [(-128, -128), (127, 127), (-128, 127)])
def test_field_width_boundary_transposed(k, a_value, b_value):
    product = reference_matmul(filled(2, k, a_value), filled(k, 1, b_value))
    assert product == filled(2, 1, k * a_value * b_value)


OUTSIDE_OPERAND_RANGE = [
    (2**20, -(2**20), 5),  # 64-bit fields
    (-(2**20), 3, 100),  # 32-bit fields
    (0, 2**40, 4),  # a zero A still needs fields wide enough for B
    (2**32, 2**31 - 1, 1),  # 2^63 - 2^32, just below the limit
]


def wide_operands(a_value, b_value, k):
    return Matrix(2, k, [a_value, -a_value] * k), Matrix(k, 3, [b_value, -b_value, 1] * k)


@pytest.mark.parametrize("a_value, b_value, k", OUTSIDE_OPERAND_RANGE)
def test_operands_outside_operand_range(a_value, b_value, k):
    assert_matches_reference(*wide_operands(a_value, b_value, k))


# B^T . A^T, 3 x k . k x 2, takes the flipped path and packs the transpose of
# its first factor.  In the zero-A case that side holds 2^40 while the bound
# is 0, so 32-bit fields cut it; every product is zero all the same.
@pytest.mark.parametrize("a_value, b_value, k", OUTSIDE_OPERAND_RANGE)
def test_operands_outside_operand_range_transposed(a_value, b_value, k):
    a, b = wide_operands(a_value, b_value, k)
    assert_matches_reference(Matrix.from_numpy(b.to_numpy().T), Matrix.from_numpy(a.to_numpy().T))


def test_bound_of_2_to_the_63_is_rejected():
    with pytest.raises(ValueError, match="does not fit in 64 bits"):
        reference_matmul(filled(1, 2, 2**31), filled(2, 1, 2**31))


# -2^63 has no int64 negation: a bound that negated it in numpy would wrap,
# pick 32-bit fields and overflow (in A) or truncate it silently (in B).
@pytest.mark.parametrize("swap", [False, True])
def test_int64_minimum_is_rejected(swap):
    a, b = Matrix(1, 2, [1, -(2**63)]), Matrix(2, 1, [1, 1])
    if swap:
        a, b = Matrix(1, 2, [1, 1]), Matrix(2, 1, [1, -(2**63)])
    with pytest.raises(ValueError, match="does not fit in 64 bits"):
        reference_matmul(a, b)


def test_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        reference_matmul(filled(2, 3, 1), filled(2, 2, 1))
