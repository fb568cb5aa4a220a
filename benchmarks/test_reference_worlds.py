"""Every benchmark world still builds the bytes its references pin.

``perfbench/references.json`` lists eight world seeds with the comment
count of each world and the sha256 of the ``reproduce`` report on it
(scale 0.002, baseline samples capped at 1000).  The benchmark rejects a
run whose report differs, so a change to the world's draws that alters
only one seed must fail here first.  This test builds each world and
runs the pipeline on it, with the same configuration and digest as the
benchmark's ``reproduce`` workload; the references file is only read.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.core.pipeline import ReproductionPipeline
from repro.core.report import report_to_payload
from repro.platform import WorldConfig, build_world

REFERENCES = Path(__file__).resolve().parents[1] / "perfbench" / "references.json"
WORLDS = json.loads(REFERENCES.read_text(encoding="utf-8"))["worlds"]


def test_eight_worlds_are_pinned():
    assert len(WORLDS) == 8
    assert len({entry["world_seed"] for entry in WORLDS}) == 8


@pytest.mark.parametrize("entry", WORLDS, ids=lambda e: f"seed-{e['world_seed']}")
def test_reference_world_report_digest(entry):
    world = build_world(WorldConfig(
        scale=0.002, seed=entry["world_seed"], baseline_sample_cap=1000,
    ))
    assert len(world.dissenter.comments) == entry["comments"]
    report = ReproductionPipeline(world=world).run()
    payload = json.dumps(report_to_payload(report), sort_keys=True)
    digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
    assert digest == entry["report_sha256"]
