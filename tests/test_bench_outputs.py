"""The benchmark's operation outputs on seeds 501, 502 and 911, pinned by digest.

``bench/workloads.py`` is loaded from its file and only read: each
workload's operations run on its inputs of one seed, and the SHA-256 of
their outputs' reprs, one per line, must be the digest recorded here.  Seeds
501, 502 and 911 are all pinned for every workload.  A change that speeds a
workload up must leave every output as it was; a change that means to alter
an output records the new digest with the reason.
"""

import hashlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DIGESTS = {
    "bkk_chain": "aba17b661477d0df70c38141af7f3ba5be715106112da34a3a35d3005aded02a",
    "eliminant_verified": "73dd0ae6fcade7c8e140d3e1218f2d2427af3d6f6c355f7b10ab72eef30989b2",
    "euler_genera": "5ad722181f604ab71cc6ea359bc332e796ac381e74884611f025746a74c82f5c",
}

DIGESTS_502 = {
    "bkk_chain": "f6810d3bdc69f98283d460d986e40a28d7c1a8fa537c35acad7031a164f439cc",
    "eliminant_verified": "d31f7cb46a8349089413deac07b42b568342f6e3f0727df2bf401556fa95f34a",
    "euler_genera": "64dc196a09ce4af3e4fe475bd355e7a981b66565e25f3a97bbbde9b741151946",
}

DIGESTS_911 = {
    "bkk_chain": "75297946c34fae62fce9fe87d2817b3f1e68a5e5d6a787da3ca54d799f52f46b",
    "eliminant_verified": "fa3b5883dd9a59aedb72639bfd4ef1bd2ac5e24b6bd3e93b98e74dcc532982b8",
    "euler_genera": "1e8dd0dcf930a74727d6d8599b4aea4165806edeae5f659bd7c1d2c7c8b07670",
}


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _digest(workload: str, seed: int) -> str:
    w = _workloads()
    op = w.OPERATIONS[workload]
    text = "\n".join(repr(op(i)[0]) for i in w.make_inputs(workload, seed))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("workload", sorted(DIGESTS))
def test_every_output_of_seed_501_hashes_as_pinned(workload):
    assert _digest(workload, 501) == DIGESTS[workload]


@pytest.mark.parametrize("workload", sorted(DIGESTS_502))
def test_every_output_of_seed_502_hashes_as_pinned(workload):
    assert _digest(workload, 502) == DIGESTS_502[workload]


@pytest.mark.parametrize("workload", sorted(DIGESTS_911))
def test_every_output_of_seed_911_hashes_as_pinned(workload):
    assert _digest(workload, 911) == DIGESTS_911[workload]
