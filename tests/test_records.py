"""gemmsim's value records: construction, immutability, equality, repr, copies."""

import copy
import dataclasses
import importlib
import inspect
import pickle
import pkgutil

import numpy as np
import pytest

import gemmsim
from gemmsim import (
    CETree,
    ClusterModel,
    CommModel,
    DarkSiliconPoint,
    GemmShape,
    Matrix,
    MeshBoundInput,
    MeshConfig,
    SummaResult,
    SystolicConfig,
)
from gemmsim.harness.validation import CorpusInstance

# One valid instance of every record, as its fields in order.
RECORDS = [
    (GemmShape, dict(m=2, n=3, k=4)),
    (Matrix, dict(rows=2, cols=2, data=(1, 2, 3, 4))),
    (SystolicConfig, dict(rows=4, cols=8)),
    (MeshConfig, dict(extents=(2, 3), hop_latency=2)),
    (CETree, dict(num_pes=16, fanout=4, level_latency=1, root_port_width=4)),
    (MeshBoundInput, dict(inputs=32, outputs=1, computations=16, dimension=2)),
    (CommModel, dict(alpha=1e-6, beta=1e-9)),
    (DarkSiliconPoint, dict(core_multiplier=4.0, powered_fraction=0.5, effective_multiplier=2.0)),
    (
        ClusterModel,
        dict(p_rows=2, p_cols=3, comm=CommModel(1e-6, 1e-9), node_mac_rate=1e9, element_bytes=2),
    ),
    (
        SummaResult,
        dict(
            total_time=3.5, comm_time=2.5, comp_time=1.0, steps=4, row_broadcasts=8,
            col_broadcasts=12, comm_latency_time=2.0, comm_bandwidth_time=0.5, mac_ops=64,
        ),
    ),
    (
        CorpusInstance,
        dict(
            shape=GemmShape(2, 3, 4), seed=7, array_rows=4, array_cols=8, pes=6, fanout=2,
            level_latency=1, port_width=2, block_width=3,
        ),
    ),
]


@pytest.mark.parametrize("cls, fields", RECORDS, ids=[cls.__name__ for cls, _ in RECORDS])
def test_record_behaviour(cls, fields):
    record = cls(**fields)
    positional = cls(*fields.values())
    assert record == positional and hash(record) == hash(positional)
    assert list(vars(record)) == list(fields)

    values = tuple(getattr(record, name) for name in fields)
    assert record != values
    if cls is not Matrix:  # a Matrix equals any Matrix of its shape and values
        other = type("Other", (cls,), {})(**fields)
        assert record != other and other != record

    for name in fields:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, name, getattr(record, name))
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(record, name)
    assert list(vars(record)) == list(fields)

    expected = ", ".join(f"{name}={getattr(record, name)!r}" for name in fields)
    assert repr(record) == f"{cls.__name__}({expected})"

    for clone in (copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(clone) is cls and clone == record and hash(clone) == hash(record)


def test_mesh_config_constructors():
    assert MeshConfig.chain(5) == MeshConfig((5,), 1) == MeshConfig(extents=(5,))
    assert MeshConfig.chain(5, 3) == MeshConfig((5,), hop_latency=3)
    assert MeshConfig.grid(2, 3) == MeshConfig((2, 3), 1)
    assert MeshConfig.grid(2, 3, hop_latency=2) == MeshConfig(extents=(2, 3), hop_latency=2)
    assert MeshConfig.chain(6) != MeshConfig.grid(1, 6)


@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy, lambda m: pickle.loads(pickle.dumps(m))],
                         ids=["copy", "deepcopy", "pickle"])
def test_matrix_copies_stay_read_only(clone):
    m = Matrix(2, 3, np.arange(6))
    c = clone(m)
    assert c == m and hash(c) == hash(m)
    assert not c.data.flags.writeable
    with pytest.raises(ValueError):
        c.data[0] = 9


def test_sim_result_is_the_only_dataclass():
    # SimResult stays a dataclass because tests/test_harness.py and
    # perfbench/test_bench.py build faulty results with dataclasses.replace.
    # Every other value type is a workload.Record: a dataclass generates its
    # methods through exec when its module is imported, which gemmsim pays
    # on every start.
    found = set()
    for info in pkgutil.walk_packages(gemmsim.__path__, "gemmsim."):
        module = importlib.import_module(info.name)
        for name, obj in inspect.getmembers(module, inspect.isclass):
            if obj.__module__ == module.__name__ and dataclasses.is_dataclass(obj):
                found.add(f"{module.__name__}.{name}")
    assert found == {"gemmsim.results.SimResult"}
