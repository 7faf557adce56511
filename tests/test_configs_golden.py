"""Golden CLI runs: every shipped config, and a table of bad configs.

Each file in ``configs/`` runs through ``cli.main`` as ``run`` (and also as
``sweep`` where the kind allows it).  Its CSV bytes and the sidecar's
``resolved_config`` (without ``output``) must match the digests below, and
each bad config must exit with its code and its exact stderr line.  A
digest changes only with an intended change to the report or to config
resolution.
"""

import copy
import hashlib
import json
from pathlib import Path

import pytest

from gemmsim.harness import cli
from gemmsim.harness.config import OUTPUT_DIR_ENV

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

# config stem -> (sha256 of report.csv, sha256 of the resolved config without "output")
GOLDEN = {
    "bounds_inner_product": (
        "464ef26c1e483c9bb8b0dbda0d49a1c5000c354cace42396c17b06d3a0087a83",
        "cbebcea2bbe568e7e47379ac3bf95607266cc578469f14d79a76ca93418c48cc",
    ),
    "compare_low_k": (
        "5ad64a60c04b07e79f60197b7a9019cec199a45a7981531224de2efc6b716623",
        "f8c7fd976a2eeaaeccf2eff6ddfc70fdd40990779c1757107da638a93b0bcbcd",
    ),
    "simulate_systolic": (
        "8e60b8fb5579bbe8faa129ff876b16b3e47bc34e6639ad56b2e6896ee9a97bd1",
        "ec20b7cb6eec00431fbfb152462aa7a52d68fade2841bf38ab109cb2bd56de3a",
    ),
    "summa_cluster": (
        "36b8368a3b918b10b018ba872cb3f3976d60f61df5b4287587053a36dba10ee6",
        "c7b211d3bccd38fc3201302f5c5d8d9882bd23ebe8951a86f280e5628803bad0",
    ),
    "sweep_darksilicon": (
        "7bb563d5673456ed3a588853ca61463cff242344bf92fa92cf339f182005c2b9",
        "f05f87647b00da06eb8801bae8941a5d8845b9c87ebd2ebd28b1ef70bfb8d74e",
    ),
    "sweep_inner_product": (
        "7a311e7ac6496258ff7500470c86d9c00100ffa0d890c5657065cbbdd6cdf526",
        "86de82f87c028f17c46c739991f0648152333c5bef8e1e25dad38308bf873a69",
    ),
    "sweep_systolic_k": (
        "be642b8757a2f99daebf5d917610c088e8db27a86024ae344601f4b04b2f962c",
        "cba731d152666f711ae2374635e051c704796fe728de16931a9e551d2605c76d",
    ),
    "validate": (
        "2bf30cff17941887886ed402991874c2c89e8ac3764fe7eb223e46f70e282c75",
        "52876b3e503545dd9a7baf5ca0ee0eaa82daa98286b7ec2763782eab75c10241",
    ),
}
SWEEP_CONFIGS = {"sweep_darksilicon", "sweep_inner_product", "sweep_systolic_k"}


def digest(resolved: dict) -> str:
    return hashlib.sha256(json.dumps(resolved, sort_keys=True).encode()).hexdigest()


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.delenv(OUTPUT_DIR_ENV, raising=False)
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_every_shipped_config_is_pinned():
    assert sorted(GOLDEN) == sorted(path.stem for path in CONFIG_DIR.glob("*.json"))


@pytest.mark.parametrize("stem", sorted(GOLDEN))
def test_config_report_matches_golden(workdir, stem):
    path = CONFIG_DIR / f"{stem}.json"
    out = workdir / json.loads(path.read_text())["output"]["dir"]
    for command in ["run", "sweep"] if stem in SWEEP_CONFIGS else ["run"]:
        assert cli.main([command, str(path)]) == 0
        resolved = json.loads((out / "report.meta.json").read_text())["resolved_config"]
        del resolved["output"]
        got = hashlib.sha256((out / "report.csv").read_bytes()).hexdigest(), digest(resolved)
        assert got == GOLDEN[stem], command


GEMM = {"m": 4, "n": 4, "k": 4}
SYSTOLIC = {"type": "systolic", "rows": 4, "cols": 4}
VALID = {
    "simulate": {"workload": GEMM, "arch": SYSTOLIC},
    "sweep": {"workload": GEMM, "arch": SYSTOLIC, "grid": {"workload.k": [1, 2]}},
    "compare": {"workload": GEMM, "archs": [SYSTOLIC]},
    "bounds": {"entries": [{"inputs": 32, "outputs": 1, "computations": 16, "dimension": 1}]},
    "darksilicon": {"generations": [0, 1]},
    "validate": {"corpus_size": 1},
}


def config(kind, **changes):
    return {"schema_version": 1, "kind": kind, **copy.deepcopy(VALID.get(kind, {})), **changes}


CONFIG_ERROR = "gemmsim: config error: "
KIND_LIST = "('simulate', 'sweep', 'compare', 'bounds', 'darksilicon', 'validate')"

# (id, command, payload, exit code, stderr)
BAD_CONFIGS = [
    ("kind-list", "run", dict(config("simulate"), kind=["simulate"]), 2,
     f"kind must be one of {KIND_LIST}, got ['simulate']"),
    ("kind-object", "run", dict(config("simulate"), kind={"simulate": 1}), 2,
     f"kind must be one of {KIND_LIST}, got {{'simulate': 1}}"),
    ("kind-null", "run", dict(config("simulate"), kind=None), 2,
     f"kind must be one of {KIND_LIST}, got None"),
    ("kind-unknown", "run", config("plot"), 2, f"kind must be one of {KIND_LIST}, got 'plot'"),
    *[
        (f"unknown-key-{kind}", "run", config(kind, bogus=1), 2, "unknown key 'bogus' in config")
        for kind in VALID
    ],
    ("unknown-key-after-kind-check", "run", config("compare", archs=[], bogus=1), 2,
     "key 'archs' must be a non-empty list"),
    ("missing-workload", "run", {"schema_version": 1, "kind": "simulate", "arch": SYSTOLIC}, 2,
     "missing required key 'workload' in config"),
    ("empty-archs", "run", config("compare", archs=[]), 2, "key 'archs' must be a non-empty list"),
    ("object-archs", "run", config("compare", archs=SYSTOLIC), 2,
     "key 'archs' must be a non-empty list"),
    ("empty-entries", "run", config("bounds", entries=[]), 2,
     "key 'entries' must be a non-empty list"),
    ("empty-generations", "run", config("darksilicon", generations=[]), 2,
     "key 'generations' must be a non-empty list"),
    ("empty-grid", "sweep", config("sweep", grid={}), 2,
     "sweep requires a non-empty 'grid' object"),
    ("grid-axis-no-field", "sweep", config("sweep", grid={"arch": [1]}), 2,
     "grid key 'arch' must look like 'workload.<field>' or 'arch.<field>'"),
    ("grid-axis-bad-section", "sweep", config("sweep", grid={"model.k": [1]}), 2,
     "grid key 'model.k' must look like 'workload.<field>' or 'arch.<field>'"),
    ("grid-axis-unknown-field", "sweep", config("sweep", grid={"arch.rowz": [1]}), 2,
     "grid key 'arch.rowz' names an unknown arch field"),
    ("grid-axis-empty", "sweep", config("sweep", grid={"workload.k": []}), 2,
     "grid key 'workload.k' must map to a non-empty list"),
    ("sweep-point-below-bound", "sweep", config("sweep", grid={"workload.k": [1, 0]}), 2,
     "key 'k' must be >= 1, got 0"),
    ("sweep-point-wrong-arch", "sweep", config("sweep", grid={"arch.type": ["systolic", "chain"]}),
     2, "arch 'chain' requires workload kind 'inner_product'"),
    *[
        (f"sweep-command-{kind}", "sweep", config(kind), 2,
         f"the sweep command needs kind 'sweep' or 'darksilicon', got '{kind}'")
        for kind in ("simulate", "compare", "bounds", "validate")
    ],
    # A value is checked whether or not the chosen arch type or workload kind uses its key.
    ("unused-arch-key", "run", config("simulate", arch=dict(SYSTOLIC, fanout="junk")), 2,
     "key 'fanout' must be an integer, got 'junk'"),
    ("unused-workload-key", "run",
     config("simulate", workload={"kind": "inner_product", "n": 4, "m": "junk"},
            arch={"type": "chain"}),
     2, "key 'm' must be an integer, got 'junk'"),
    ("unused-compare-arch-key", "run", config("compare", archs=[dict(SYSTOLIC, pes=-3)]), 2,
     "key 'pes' must be >= 1, got -3"),
    ("nul-in-dir", "run", config("simulate", output={"dir": "o\u00003"}), 2,
     "key 'dir' must not contain a NUL character"),
    ("nul-in-basename", "run", config("simulate", output={"basename": "a\u0000b"}), 2,
     "key 'basename' must not contain a NUL character"),
    ("surrogate-in-dir", "run", config("simulate", output={"dir": "o\ud800"}), 2,
     "key 'dir' cannot be encoded as a file name"),
    ("surrogate-in-basename", "run", config("simulate", output={"basename": "a\ud800"}), 2,
     "key 'basename' cannot be encoded as a file name"),
    ("over-long-dir", "run", config("simulate", output={"dir": "d" * 300}), 2,
     f"key 'dir': cannot create output directory {'d' * 300!r}: File name too long"),
    ("infeasible-streamer", "run",
     config("simulate", workload={"m": 2, "n": 2, "k": 2}, arch={"type": "streamer", "pes": 16}),
     2, "point 1 of 1 is infeasible: key 'pes' must satisfy pes <= m*n (streamer pes=16 fanout=4 "
     "level_latency=1 port_width=4; workload kind=gemm m=2 n=2 k=2 seed=0 block_width=1)"),
]


@pytest.mark.parametrize(
    "command, payload, code, message", [case[1:] for case in BAD_CONFIGS],
    ids=[case[0] for case in BAD_CONFIGS],
)
def test_bad_config_exit_code_and_stderr(workdir, capsys, command, payload, code, message):
    path = workdir / "bad.json"
    path.write_text(json.dumps(payload))
    assert cli.main([command, str(path)]) == code
    assert capsys.readouterr().err == f"{CONFIG_ERROR}{message}\n"
    assert sorted(workdir.iterdir()) == [path]
