"""Workload types, the reference oracle, and the outer-product schedule."""

import copy
import os
import pickle
import random
import re
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import gemmsim
from gemmsim import (
    DarkSiliconPoint,
    GemmShape,
    Matrix,
    SystolicConfig,
    build_ce_tree,
    make_gemm,
    make_vectors,
    outer_product_schedule,
    reference_matmul,
    simulate_chain_reduction,
    simulate_cs_gemm,
    simulate_grid_reduction,
    simulate_systolic_gemm,
    simulate_tree_inner_product,
)
from gemmsim import workload
from gemmsim.harness.validation import corpus_instances, run_validation
from gemmsim.workload import DRAW_ROUND_WORDS, NUMPY_DRAW_MIN, _draw_operands, require_operand_range


def outer_product_sum(steps, m, n):
    """Independent accumulation of the schedule's rank updates."""
    acc = [[0] * n for _ in range(m)]
    for cb, rb in steps:
        col, row = cb.to_numpy().tolist(), rb.to_numpy().tolist()
        for i in range(m):
            for j in range(n):
                acc[i][j] += sum(col[i][t] * row[t][j] for t in range(cb.cols))
    return Matrix.from_numpy(np.array(acc))


def test_shape_validation():
    GemmShape(1, 1, 1)
    with pytest.raises(ValueError):
        GemmShape(0, 1, 1)
    with pytest.raises(ValueError):
        GemmShape(1, 1, -3)
    with pytest.raises(ValueError, match="shape field m must be an integer, got True"):
        GemmShape(True, 2, 2)
    shape = GemmShape(np.int64(2), 2, 2)
    assert type(shape.m) is int
    assert shape == GemmShape(2, 2, 2)


@pytest.mark.parametrize(
    "args, kwargs, got",
    [
        ((4.0, 0.5), {}, "2 by position and [] by name"),
        ((4.0,), {"effective_multiplier": 2.0},
         "1 by position and ['effective_multiplier'] by name"),
        ((4.0, 0.5, 2.0, 1.0), {}, "4 by position and [] by name"),
        ((4.0, 0.5), {"core_multiplier": 4.0}, "2 by position and ['core_multiplier'] by name"),
        ((4.0, 0.5), {"cores": 4}, "2 by position and ['cores'] by name"),
        ((4.0, 0.5, 2.0), {"cores": 4}, "3 by position and ['cores'] by name"),
    ],
    ids=["missing", "missing-by-name", "too-many", "doubled", "unknown", "unknown-extra"],
)
def test_record_binds_fields_like_a_call(args, kwargs, got):
    message = (
        "DarkSiliconPoint() takes the fields ('core_multiplier', 'powered_fraction', "
        f"'effective_multiplier'), got {got}"
    )
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        DarkSiliconPoint(*args, **kwargs)
    by_name = {"effective_multiplier": 2.0, "powered_fraction": 0.5}
    assert DarkSiliconPoint(4.0, **by_name) == DarkSiliconPoint(4.0, 0.5, 2.0)
    assert len(by_name) == 2  # binding never consumes the caller's dict


def test_matrix_validation():
    with pytest.raises(ValueError):
        Matrix(2, 2, (1, 2, 3))
    with pytest.raises(ValueError):
        Matrix(0, 1, ())
    with pytest.raises(ValueError):
        Matrix(1, 2, (1.5, 2))
    with pytest.raises(ValueError, match="^expected a 2-D array$"):
        Matrix.from_numpy(np.arange(4))


def test_matrix_accessors():
    # to_numpy() is the one read path: elements, rows and columns.
    view = Matrix(2, 3, [1, 2, 3, 4, 5, 6]).to_numpy()
    assert view[1, 2] == 6
    assert view[0].tolist() == [1, 2, 3]
    assert view[:, 1].tolist() == [2, 5]
    assert Matrix.from_numpy(view) == Matrix(2, 3, [1, 2, 3, 4, 5, 6])


@pytest.mark.parametrize(
    "index, bad, axis",
    [
        ((0, 5), 5, 1),  # the flat buffer's element 5 would read 6
        ((0, 3), 3, 1),  # the flat buffer would read the next row's first, 4
        ((-3, 0), -3, 0),  # numpy wraps only -2 and -1 onto the rows
        ((2, 0), 2, 0),
        (2, 2, 0),
        (-3, -3, 0),
        ((slice(None), 3), 3, 1),
        ((slice(None), -4), -4, 1),
    ],
    ids=["at-col-past-end", "at-col-wraps", "at-negative-row", "at-row-past-end",
         "row-past-end", "row-negative", "col-past-end", "col-negative"],
)
def test_matrix_accessors_reject_indices_outside_the_shape(index, bad, axis):
    view = Matrix(2, 3, [1, 2, 3, 4, 5, 6]).to_numpy()
    message = f"^index {bad} is out of bounds for axis {axis} with size {view.shape[axis]}$"
    with pytest.raises(IndexError, match=message):
        view[index]


@pytest.mark.parametrize(
    "shape", [(0, 1), (1, 0), (2, 0)], ids=["no-rows", "one-empty-row", "two-empty-rows"]
)
def test_matrix_from_empty_rows_is_rejected(shape):
    with pytest.raises(ValueError, match=r"^matrix (rows|cols) must be >= 1, got 0$"):
        Matrix.from_numpy(np.zeros(shape, dtype=np.int64))


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


@pytest.mark.parametrize(
    "rows, cols, name",
    [(2.0, 2, "rows"), (2, 2.0, "cols"), (True, 4, "rows"), (4, np.True_, "cols")],
    ids=["float-rows", "float-cols", "bool-rows", "numpy-bool-cols"],
)
def test_matrix_dimensions_must_be_integers(rows, cols, name):
    with pytest.raises(ValueError, match=f"^matrix {name} must be an integer"):
        Matrix(rows, cols, [1, 2, 3, 4])


def test_matrix_accepts_int64_range_and_numpy_ints():
    m = Matrix(1, 3, (np.int64(2**63 - 1), -(2**63), np.uint8(7)))
    assert m.to_numpy()[0].tolist() == [2**63 - 1, -(2**63), 7]
    assert m.data.dtype == np.int64
    m = Matrix(np.int64(2), np.uint8(2), [1, 2, 3, 4])
    assert type(m.rows) is int and type(m.cols) is int


def test_matrix_storage_is_read_only():
    m = Matrix(2, 2, [1, 2, 3, 4])
    view = m.to_numpy()
    assert not view.flags.writeable
    with pytest.raises(ValueError):
        view[0, 0] = 9
    with pytest.raises(ValueError):
        m.data[0] = 9
    assert view.tolist() == [[1, 2], [3, 4]]


def test_matrix_never_aliases_its_input():
    arr = np.array([[1, 2], [3, 4]], dtype=np.int64)
    m = Matrix.from_numpy(arr)
    assert not np.shares_memory(m.data, arr)
    arr[0, 0] = 99
    assert m.to_numpy()[0, 0] == 1
    flat = np.array([5, 6], dtype=np.int64)
    v = Matrix(1, 2, flat)
    flat[1] = 0
    assert v.to_numpy()[0, 1] == 6


def built_matrices():
    """Every matrix gemmsim builds for a caller, with the operands it must not share."""
    a, b = make_gemm(GemmShape(5, 7, 6), 3)
    tall_a, tall_b = make_gemm(GemmShape(7, 5, 6), 4)  # the oracle computes C^T
    wide_a, wide_b = Matrix(1, 2, [2**20, 1]), Matrix(2, 1, [2**20, 3])  # 64-bit fields
    u, v = make_vectors(9, 4)
    vectors = {"operands": (u, v)}
    return {
        "make_gemm": ((a, b), ()),
        "reference_matmul": (reference_matmul(a, b), (a, b)),
        "reference_matmul-flipped": (reference_matmul(tall_a, tall_b), (tall_a, tall_b)),
        "reference_matmul-int64": (reference_matmul(wide_a, wide_b), (wide_a, wide_b)),
        "systolic": (simulate_systolic_gemm(a, b, SystolicConfig(4, 3)).result, (a, b)),
        "streamer": (simulate_cs_gemm(a, b, build_ce_tree(4), 2).result, (a, b)),
        "chain": (simulate_chain_reduction(9, **vectors).result, (u, v)),
        "grid": (simulate_grid_reduction(9, **vectors).result, (u, v)),
        "tree": (simulate_tree_inner_product(9, **vectors).result, (u, v)),
    }


@pytest.mark.parametrize("name", built_matrices())
def test_built_matrices_own_read_only_int64_buffers(name):
    matrices, operands = built_matrices()[name]
    for mat in matrices if isinstance(matrices, tuple) else (matrices,):
        assert mat.data.dtype == np.int64
        assert not mat.data.flags.writeable and not mat.to_numpy().flags.writeable
        for op in operands:
            assert not np.shares_memory(mat.data, getattr(op, "data", op))
        for twin in (copy.copy(mat), copy.deepcopy(mat), pickle.loads(pickle.dumps(mat))):
            assert twin == mat and twin.data.dtype == np.int64
            assert not twin.data.flags.writeable


def test_matrix_equality_compares_shape_and_values():
    a = Matrix(1, 4, [1, 2, 3, 4])
    assert a == Matrix(1, 4, np.arange(1, 5))
    assert hash(a) == hash(Matrix(1, 4, np.arange(1, 5)))
    assert a != Matrix(2, 2, (1, 2, 3, 4))
    assert a != Matrix(1, 4, (1, 2, 3, 5))


def test_operand_range_error_names_the_first_offending_element():
    # -300 is the farther out of range, but 200 comes first.
    with pytest.raises(ValueError, match=r"operand element 200 outside \[-128, 127\]"):
        require_operand_range(Matrix(1, 3, [0, 200, -300]))
    require_operand_range(Matrix(1, 2, [-128, 127]))


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


def randint_draws(rng, count):
    return [rng.randint(-128, 127) for _ in range(count)]


T = NUMPY_DRAW_MIN
# Both word sources: getrandbits below NUMPY_DRAW_MIN, numpy's RandomState
# from it on; 100 000 values take several capped rounds.
COUNTS = (*range(67), 1000, T - 1, T, T + 1, 100_000)
# Zero, negative and multi-word seeds.  Seeds below 2**32 make one-element
# keys on the numpy side, which seed another stream if passed as an array.
SEEDS = [0, 5, -7, 2**32, 2**40 + 1, 1, 7, 2**31 + 5, -5, -(2**40)]


@pytest.mark.parametrize("seed", SEEDS)
def test_operand_draws_match_randint(seed):
    # Every draw seeds its own generator, so each count reads a prefix of one stream.
    want = randint_draws(random.Random(seed), max(COUNTS))
    for count in COUNTS:
        drawn = _draw_operands(seed, count)
        assert drawn.dtype == np.int64 and not drawn.flags.writeable
        assert drawn.tolist() == want[:count], count


@pytest.mark.parametrize("seed", [3, -5, 2**40 + 1])
def test_multi_round_draw_matches_randint(seed, monkeypatch):
    # Rounds of 7 words accept 0 to 7 values, so on both word sources the
    # rounds hand over at every point and many fall short of what is missing.
    monkeypatch.setattr(workload, "DRAW_ROUND_WORDS", 7)
    want = randint_draws(random.Random(seed), T + 3)
    for count in (1, 2, 50, T + 3):
        assert _draw_operands(seed, count).tolist() == want[:count]


@pytest.mark.parametrize("seed", SEEDS)
def test_int8_draws_match_int64_draws(seed):
    for count in COUNTS:
        drawn = _draw_operands(seed, count, np.int8)
        assert drawn.dtype == np.int8 and not drawn.flags.writeable
        assert np.array_equal(drawn, _draw_operands(seed, count)), count


@pytest.mark.parametrize("seed", SEEDS)
def test_int8_multi_round_draws_match_int64_draws(seed, monkeypatch):
    monkeypatch.setattr(workload, "DRAW_ROUND_WORDS", 7)
    for count in (1, 2, 50, T + 3):
        assert np.array_equal(_draw_operands(seed, count, np.int8), _draw_operands(seed, count))


def test_interleaved_large_draws_match_randint():
    # Large draws share one RandomState: each reseeds it first, so a draw for
    # seed -7 between two for seed 3 changes neither.
    want = {seed: randint_draws(random.Random(seed), T + 5) for seed in (3, -7)}
    for seed, count in ((3, T), (-7, T + 5), (3, T + 1)):
        assert _draw_operands(seed, count).tolist() == want[seed][:count]


def test_large_draws_on_several_threads_match_serial_draws():
    # Every large draw reseeds the one shared RandomState, so two threads
    # drawing at once would each read words the other's seed left.  A short
    # switch interval makes the threads swap inside every draw.
    seeds = range(4)
    expected = {seed: make_vectors(NUMPY_DRAW_MIN * 2, seed) for seed in seeds}
    got = {}
    start = threading.Barrier(len(seeds))

    def draw(seed):
        start.wait()
        got[seed] = make_vectors(NUMPY_DRAW_MIN * 2, seed)

    threads = [threading.Thread(target=draw, args=(seed,)) for seed in seeds]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for seed in seeds:
        assert [v.tolist() for v in got[seed]] == [v.tolist() for v in expected[seed]], seed


@pytest.mark.parametrize("seed", [1, 2])
def test_large_draw_peaks_at_output_plus_one_round(seed):
    # Capped rounds keep a draw's memory the same whatever the seed rejects:
    # the int64 output plus one round's buffers (4 bytes a word drawn, 1 of
    # mask, up to 8 of index and 2 of accepted value).
    count = 2**21
    _draw_operands(0, NUMPY_DRAW_MIN)  # imports numpy.random
    tracemalloc.start()
    try:
        _draw_operands(seed, count)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 8 * count <= peak < 8 * count + 32 * DRAW_ROUND_WORDS


def test_large_int8_draw_peaks_at_output_plus_one_round():
    # As above, with one byte a value in the output.
    count = 2**21
    _draw_operands(0, NUMPY_DRAW_MIN)  # imports numpy.random
    tracemalloc.start()
    try:
        _draw_operands(1, count, np.int8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count <= peak < count + 32 * DRAW_ROUND_WORDS


def test_small_draws_never_import_numpy_random():
    # numpy.random costs ~6 MB of RSS; only draws of NUMPY_DRAW_MIN or more need it.
    code = (
        "import sys\n"
        "from gemmsim import GemmShape, make_gemm, make_vectors\n"
        "make_gemm(GemmShape(64, 64, 64), 1)\n"
        "make_vectors(4096, 2)\n"
        "assert 'numpy.random' not in sys.modules, 'numpy.random was imported'\n"
    )
    src = str(Path(gemmsim.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("dims", [(1, 1, 1), (3, 5, 2), (17, 4, 9), (64, 64, 64)])
@pytest.mark.parametrize("seed", [0, 11, 2**33])
def test_make_gemm_matches_randint_construction(dims, seed):
    m, n, k = dims
    rng = random.Random(seed)
    want_a = [randint_draws(rng, k) for _ in range(m)]
    want_b = [randint_draws(rng, n) for _ in range(k)]
    a, b = make_gemm(GemmShape(m, n, k), seed)
    assert a.to_numpy().tolist() == want_a
    assert b.to_numpy().tolist() == want_b


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


@pytest.mark.parametrize("n", [1, 999, 50_000])
def test_make_vectors_defaults_to_int64(n):
    # perfbench multiplies make_vectors(n, seed) elements as numpy scalars,
    # which int8 would wrap.
    wide, narrow = make_vectors(n, 7), make_vectors(n, 7, np.int8)
    for v, w in zip(wide, narrow):
        assert v.dtype == np.int64 and w.dtype == np.int8 and not w.flags.writeable
        assert np.array_equal(v, w)


@pytest.mark.parametrize("dtype", [np.uint8, np.bool_, np.float64])
def test_make_vectors_rejects_other_dtypes(dtype):
    name = np.dtype(dtype).name
    with pytest.raises(ValueError, match=f"signed integer type, got {name}$"):
        make_vectors(4, 1, dtype)


@pytest.mark.parametrize(
    "simulate", [simulate_chain_reduction, simulate_grid_reduction, simulate_tree_inner_product]
)
def test_simulators_draw_generated_operands_once(simulate, monkeypatch):
    # perfbench's traced inner-product run counts one make_vectors span a call.
    calls = []
    draw = workload.make_vectors

    def counted(*args):
        calls.append(args)
        return draw(*args)

    monkeypatch.setattr(workload, "make_vectors", counted)
    res = simulate(1000, seed=3)
    assert calls == [(1000, 3, np.int8)]
    a, b = draw(1000, 3)
    assert res.scalar == sum(x * y for x, y in zip(a.tolist(), b.tolist()))


def test_exact_inner_product_accumulates_in_int64():
    # (2^17 + 1) * 2^14 is above int32's range, and int8 or int32 sums wrap.
    a = np.full(2**17 + 1, -128, dtype=np.int8)
    c = workload.exact_inner_product(a, a)
    assert c.data.dtype == np.int64 and (c.rows, c.cols) == (1, 1)
    assert c.data.tolist() == [(2**17 + 1) * 2**14]


# Every entry point that takes a seed, each returning a comparable value.
SEEDED = {
    "make_gemm": lambda seed: make_gemm(GemmShape(3, 2, 4), seed),
    "make_vectors": lambda seed: [v.tolist() for v in make_vectors(5, seed)],
    "chain": lambda seed: simulate_chain_reduction(5, seed=seed).scalar,
    "grid": lambda seed: simulate_grid_reduction(5, seed=seed).scalar,
    "tree": lambda seed: simulate_tree_inner_product(5, seed=seed).scalar,
    "tree-operands": lambda seed: simulate_tree_inner_product(
        2, operands=([1, 2], [3, 4]), seed=seed
    ).scalar,
    "corpus_instances": lambda seed: corpus_instances(seed, 3),
    "run_validation": lambda seed: run_validation(seed, 1).lines(),
}


@pytest.mark.parametrize("entry", SEEDED)
def test_seeds_follow_the_integer_rule(entry):
    draw = SEEDED[entry]
    assert draw(np.int64(5)) == draw(np.uint8(5)) == draw(5)
    for seed in (True, np.True_, 1.0, 1.5):
        with pytest.raises(ValueError, match=f"^seed must be an integer, got {seed!r}$"):
            draw(seed)


def test_negative_seeds_draw_what_their_absolute_value_draws():
    # random.seed hashes |a| for an int a.
    assert make_gemm(GemmShape(3, 2, 4), -5) == make_gemm(GemmShape(3, 2, 4), 5)


@pytest.mark.parametrize(
    "size, message", [(2.5, "an integer, got 2.5"), (0, ">= 1, got 0")], ids=["float", "zero"]
)
def test_validation_corpus_size_follows_the_integer_rule(size, message):
    for run in (corpus_instances, run_validation):
        with pytest.raises(ValueError, match=f"^corpus size must be {message}$"):
            run(0, size)


def test_reference_matmul_identity():
    b = Matrix(3, 3, [5, -3, 2, 0, 7, 1, 9, 9, -8])
    assert reference_matmul(Matrix.from_numpy(np.eye(3, dtype=np.int64)), b) == b


def zeros(rows, cols):
    return Matrix.from_numpy(np.zeros((rows, cols), dtype=np.int64))


def test_reference_matmul_zero():
    b = Matrix(3, 2, [1, 2, 3, 4, 5, 6])
    assert reference_matmul(zeros(2, 3), b) == zeros(2, 2)


def test_reference_matmul_known_product():
    a = Matrix(2, 2, [1, 2, 3, 4])
    b = Matrix(2, 2, [5, 6, 7, 8])
    assert reference_matmul(a, b) == Matrix(2, 2, [19, 22, 43, 50])


def test_reference_matmul_dimension_mismatch():
    with pytest.raises(ValueError):
        reference_matmul(zeros(2, 3), zeros(2, 2))


@pytest.mark.parametrize(
    "product",
    [lambda a, b: outer_product_schedule(a, b, 1),
     lambda a, b: simulate_cs_gemm(a, b, build_ce_tree(4), 1)],
    ids=["schedule", "streamer"],
)
def test_products_reject_mismatched_dimensions(product):
    with pytest.raises(ValueError, match=r"^dimension mismatch: 2x3 \. 2x2$"):
        product(zeros(2, 3), zeros(2, 2))


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
    assert steps == [(a, b)]


def test_schedule_reconstruction():
    a, b = make_gemm(GemmShape(5, 6, 8), 11)
    steps = outer_product_schedule(a, b, 2)
    assert len(steps) == 4
    assert outer_product_sum(steps, 5, 6) == reference_matmul(a, b)


def test_schedule_ragged_widths():
    a, b = make_gemm(GemmShape(2, 3, 5), 1)
    steps = outer_product_schedule(a, b, 2)
    assert [col.cols for col, _ in steps] == [2, 2, 1]
    assert outer_product_sum(steps, 2, 3) == reference_matmul(a, b)


def test_schedule_block_concatenation():
    a, b = make_gemm(GemmShape(4, 4, 7), 2)
    steps = outer_product_schedule(a, b, 3)
    assert Matrix.from_numpy(np.hstack([col.to_numpy() for col, _ in steps])) == a
    assert Matrix.from_numpy(np.vstack([row.to_numpy() for _, row in steps])) == b


def test_schedule_width_errors():
    a, b = make_gemm(GemmShape(2, 2, 4), 0)
    with pytest.raises(ValueError):
        outer_product_schedule(a, b, 0)
    with pytest.raises(ValueError):
        outer_product_schedule(a, b, 5)
    # True used to give k one-wide blocks and 1.5 a TypeError from range.
    for width in (True, 1.5):
        with pytest.raises(ValueError, match="^block width must be an integer"):
            outer_product_schedule(a, b, width)


def test_schedule_property_random():
    rng = random.Random(7)
    for _ in range(25):
        shape = GemmShape(rng.randint(1, 16), rng.randint(1, 16), rng.randint(1, 16))
        a, b = make_gemm(shape, rng.randrange(1 << 20))
        width = rng.randint(1, shape.k)
        steps = outer_product_schedule(a, b, width)
        assert len(steps) == -(-shape.k // width)
        assert outer_product_sum(steps, shape.m, shape.n) == reference_matmul(a, b)
