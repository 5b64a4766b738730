"""Back-to-back benchmark runs agree on every non-timing field.

The determinism contract behind all BENCH artifacts: given the same
``context.seed``, two independent runs must produce identical artifacts
once wall-clock-derived fields (the ``repro.util.schema`` timing-key
convention) are stripped — same checksums, same configs, same metric
names, same block counts. Runs here use the ``tiny`` ablation profile
(small matrices, one repeat) so the double run stays tier-1 fast; it is
structurally the same sweep ``repro ablate --smoke`` performs.
"""

from __future__ import annotations

import dataclasses
import json

from repro.ablation import (
    AblationRunner,
    RunnerSettings,
    build_artifact,
    enumerate_configs,
)
from repro.util import non_timing_view


def _artifact(seed: int) -> dict:
    settings = dataclasses.replace(RunnerSettings.tiny(), seed=seed)
    report = AblationRunner(settings).run(enumerate_configs())
    assert report.bit_identical, report.mismatches
    return build_artifact(report)


def test_back_to_back_runs_identical_non_timing_fields():
    first = _artifact(seed=2019)
    second = _artifact(seed=2019)
    assert first != second, "wall-clock fields should differ between runs"
    va, vb = non_timing_view(first), non_timing_view(second)
    # Ranking order is timing-derived; compare it as a set of rows.
    ra = {r["run_id"]: r for r in va.pop("ranking")}
    rb = {r["run_id"]: r for r in vb.pop("ranking")}
    assert ra == rb
    assert json.dumps(va, sort_keys=True) == json.dumps(vb, sort_keys=True)
    # The strongest clause: bit-identical numeric results across runs.
    assert (
        va["baseline"]["spmv_checksums"] == vb["baseline"]["spmv_checksums"]
    )


def test_seed_actually_steers_the_workload():
    first = _artifact(seed=2019)
    other = _artifact(seed=2020)
    assert (
        first["baseline"]["spmv_checksums"]
        != other["baseline"]["spmv_checksums"]
    ), "different seeds must generate different matrices/vectors"
    assert first["context"]["seed"] != other["context"]["seed"]
