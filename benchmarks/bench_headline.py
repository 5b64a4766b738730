"""Bench: regenerate the abstract-level headline table (all claims).

Besides the shape assertions, this bench writes a ``BENCH_headline.json``
artifact — the headline/paper metric pairs plus a per-representative-
matrix breakdown (nnz, bytes/nnz, modeled UDP and CPU decompression
throughput) — so CI runs leave a machine-readable record to diff across
commits. Set ``BENCH_HEADLINE_OUT`` to redirect the artifact path.
"""

import json
import os
import time

import numpy as np

from benchmarks.conftest import run_once
from repro.experiments import headline
from repro.util import BENCH_SCHEMAS, check_schema


def _executor_comparison(lab) -> dict:
    """Serial vs pipelined recoded SpMV on the first representative —
    the side-by-side row the ISSUE asks the headline artifact to carry."""
    from repro.codecs.engine import RecodeEngine
    from repro.core import recoded_spmv

    rep = lab.representatives()[0]
    m = lab.matrix(rep.name, rep.build)
    plan = lab.plan(rep.name, m, "dsh")
    x = np.ones(m.ncols)
    rows = {}
    for mode in ("serial", "pipelined"):
        eng = RecodeEngine(workers=2, chunk_blocks=4, retry_base_s=0.0)
        recoded_spmv(plan, x, engine=eng, mode=mode)  # warm the pool
        t0 = time.perf_counter()
        recoded_spmv(plan, x, engine=eng, mode=mode)
        rows[mode] = time.perf_counter() - t0
    return {
        "matrix": rep.name,
        "nblocks": plan.nblocks,
        "serial_seconds": rows["serial"],
        "pipelined_seconds": rows["pipelined"],
        "pipeline_speedup": rows["serial"] / rows["pipelined"],
    }


def _write_artifact(res, ctx, lab) -> str:
    path = os.environ.get("BENCH_HEADLINE_OUT", "BENCH_headline.json")
    matrices = []
    for rep in lab.representatives():
        m = lab.matrix(rep.name, rep.build)
        plan = lab.plan(rep.name, m, "dsh")
        udp = lab.udp_report(rep.name, m)
        cpu = lab.cpu_report(rep.name, m, "cpu-snappy")
        matrices.append(
            {
                "name": rep.name,
                "nnz": m.nnz,
                "bytes_per_nnz": plan.bytes_per_nnz,
                "udp_gbps": udp.throughput_bytes_per_s / 1e9,
                "cpu_gbps": cpu.throughput_bytes_per_s / 1e9,
            }
        )
    artifact = {
        "executors": _executor_comparison(lab),
        "exp_id": res.exp_id,
        "title": res.title,
        "context": {
            "suite_count": ctx.suite_count,
            "suite_scale": ctx.suite_scale,
            "rep_nnz": ctx.rep_nnz,
            "sample_blocks": ctx.sample_blocks,
            "seed": ctx.seed,
        },
        "headline": res.headline,
        "paper": res.paper,
        "matrices": matrices,
    }
    check_schema(artifact, BENCH_SCHEMAS["headline"], "BENCH_headline.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(artifact, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def test_headline_regenerate(benchmark, ctx, lab):
    res = run_once(benchmark, headline.run, ctx, lab)
    h = res.headline
    # The paper's abstract, as shape checks:
    assert 1.5 < h["gm_spmv_speedup"] < 4.0  # 2.4x
    assert 3.0 < h["gm_dsh_bytes_per_nnz"] < 8.0  # ~5 B/nnz
    assert h["gm_udp_over_cpu_decomp"] > 1.3  # 7x (suite), 2-5x (reps)
    assert 2.0 < h["gm_block_decode_us"] < 220.0  # 21.7 us
    assert h["cpu_flush_waste_frac"] > 0.4  # "80% cycle waste"
    assert h["net_power_saving_ddr4"] > h["net_power_saving_hbm2"]  # 63% > 51%

    path = _write_artifact(res, ctx, lab)
    with open(path, "r", encoding="utf-8") as fh:
        artifact = json.load(fh)
    assert artifact["matrices"], "artifact must carry per-matrix rows"
    for row in artifact["matrices"]:
        assert row["bytes_per_nnz"] > 0
        assert row["udp_gbps"] > row["cpu_gbps"]
    ex = artifact["executors"]
    assert ex["serial_seconds"] > 0 and ex["pipelined_seconds"] > 0
