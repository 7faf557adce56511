"""The simulators' common result: build_result's accounting checks and SimResult.scalar."""

import re

import pytest

from gemmsim import Matrix
from gemmsim.results import build_result

ONE = Matrix(1, 1, (7,))


def test_scalar_reads_only_a_1x1_result():
    assert build_result(1, ONE, 1, 1).scalar == 7
    with pytest.raises(ValueError, match=r"^result is not 1x1$"):
        build_result(1, Matrix(2, 2, (1, 2, 3, 4)), 4, 4).scalar


@pytest.mark.parametrize(
    "args, kwargs, message",
    [
        ((0, ONE, 0, 1), {}, "simulation produced 0 cycles"),
        ((2, ONE, 3, 1), {}, "utilization 1.5 out of [0, 1]; accounting bug"),
        ((4, ONE, 2, 1), {"steady_cycles": 1},
         "steady-state utilization 2.0 above 1; accounting bug"),
        ((3, ONE, 1, 1), {"phases": {"load": 1, "reduce": 1}},
         "phase cycles {'load': 1, 'reduce': 1} do not sum to total 3"),
    ],
    ids=["no-cycles", "utilization", "steady-state", "phases"],
)
def test_build_result_rejects_broken_accounting(args, kwargs, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build_result(*args, **kwargs)


def test_build_result_accepts_full_utilization():
    res = build_result(2, ONE, 2, 1, steady_cycles=2, phases={"load": 0, "reduce": 2})
    assert res.utilization == res.steady_state_utilization == 1.0
