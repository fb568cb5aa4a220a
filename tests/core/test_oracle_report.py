"""The full §4 report against the reference implementations.

One world (scale 0.002, seed 7) runs through
:class:`~repro.core.pipeline.ReproductionPipeline` twice: once as
production runs it, and once with every analysis name ``stage_analyze``
looks up in :mod:`repro.core.pipeline` patched to its counterpart in
``tests/oracles/`` — the record-dict §4 analyses, and the networkx §4.5
analyses over the graph converted through ``to_networkx``.  The two
``report_to_payload`` JSON documents must be byte-identical, with the
corpus inline and spilled to a store directory.
"""

import json

import pytest

import repro.core.pipeline as pipeline_mod
from repro.core.pipeline import ReproductionPipeline
from repro.core.report import report_to_payload
from repro.graph.csr import CSRGraph
from repro.platform.config import WorldConfig
from repro.platform.world import build_world

from tests.oracles import analyses
from tests.oracles import graph as graph_oracles

CONFIG = dict(scale=0.002, seed=7)


#: pipeline-module name -> the reference implementation patched over it.
ORACLES = {**analyses.PIPELINE_ORACLES, **graph_oracles.PIPELINE_ORACLES}


@pytest.fixture(scope="module")
def world():
    return build_world(WorldConfig(**CONFIG))


def _payload(report) -> str:
    return json.dumps(report_to_payload(report), indent=1)


@pytest.mark.parametrize("spilled", [False, True], ids=["inline", "store_dir"])
def test_oracle_report_is_byte_identical(world, spilled, tmp_path, monkeypatch):
    def run(name):
        kwargs = {}
        if spilled:
            kwargs = dict(store_dir=str(tmp_path / name), segment_records=256)
        return ReproductionPipeline(world=world, **kwargs).run()

    production = run("production")
    if spilled:
        assert list((tmp_path / "production").glob("*.columns.npz"))

    called = set()
    for name, oracle in ORACLES.items():
        def recorded(*args, _name=name, _oracle=oracle, **kwargs):
            called.add(_name)
            return _oracle(*args, **kwargs)
        monkeypatch.setattr(pipeline_mod, name, recorded)
    reference = run("oracle")

    assert called == set(ORACLES)
    assert isinstance(production.hateful_core.subgraph, CSRGraph)
    assert not isinstance(reference.hateful_core.subgraph, CSRGraph)
    assert _payload(production) == _payload(reference)
