"""Bench: pipelined executor vs serial, and fused SpMM vs k SpMVs.

Gates (ISSUE acceptance):

* engine-backed pipelined SpMV must be >= 1.3x faster than the serial
  engine-backed path (same engine config, cold cache both sides) — the
  overlap of block decode with the multiply has to actually pay;
* fused SpMM at k right-hand sides must cost <= 0.5x per RHS of k
  independent SpMVs — decoding each block once has to actually fuse.

Writes a ``BENCH_pipeline.json`` artifact (timings, speedups, pipeline
idle split) for CI to upload; set ``BENCH_PIPELINE_OUT`` to redirect.
"""

import json
import os
import time

import numpy as np

from benchmarks.conftest import run_once
from repro import obs
from repro.codecs.engine import RecodeEngine
from repro.codecs.pipeline import compress_matrix
from repro.collection import generators
from repro.core import recoded_spmm, recoded_spmv
from repro.util import BENCH_SCHEMAS, check_schema

#: Right-hand sides for the fusion gate.
NRHS = 8
#: Pool width / prefetch depth for the overlap gate.
WORKERS = 2
DEPTH = 4
#: Matrix / vector seed.
SEED = 17


def _engine() -> RecodeEngine:
    # The engine's process pool: per-block Python holds the GIL, so only
    # processes give the decode side real parallelism. Small chunks keep
    # several tasks in flight at DEPTH=4. No cache — every run decodes
    # cold, which is what the gate compares.
    return RecodeEngine(workers=WORKERS, chunk_blocks=4, retry_base_s=0.0)


def _best_of(n, fn):
    best = float("inf")
    for _ in range(n):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _measure() -> dict:
    m = generators.unstructured(2000, density=0.01, seed=SEED)
    plan = compress_matrix(m, block_bytes=8192)
    rng = np.random.default_rng(SEED)
    x = rng.standard_normal(plan.blocked.shape[1])
    X = rng.standard_normal((plan.blocked.shape[1], NRHS))

    eng_serial = _engine()
    eng_pipe = _engine()
    # Warm both pools (fork/exec lands in pool_startup_seconds, but the
    # first submission also pays import costs in the workers).
    recoded_spmv(plan, x, engine=eng_serial, mode="serial")
    recoded_spmv(plan, x, engine=eng_pipe, mode="pipelined", depth=DEPTH)

    t_serial = _best_of(
        3, lambda: recoded_spmv(plan, x, engine=eng_serial, mode="serial")
    )
    with obs.scoped_registry() as reg:
        t_pipe = _best_of(
            3,
            lambda: recoded_spmv(
                plan, x, engine=eng_pipe, mode="pipelined", depth=DEPTH
            ),
        )
        agg = obs.aggregate_by_name(reg.snapshot())
    speedup = t_serial / t_pipe

    # Fusion gate: k RHS through the fused SpMM vs k independent SpMVs,
    # both decode-bound (no cache, in-process decode).
    t_spmv_k = _best_of(
        2, lambda: [recoded_spmv(plan, X[:, j], mode="serial") for j in range(NRHS)]
    )
    t_spmm = _best_of(2, lambda: recoded_spmm(plan, X, mode="serial"))
    per_rhs_ratio = (t_spmm / NRHS) / (t_spmv_k / NRHS)

    def _val(name):
        entry = agg.get(name)
        return entry["value"] if entry else 0.0

    return {
        "exp_id": "bench_pipeline",
        "context": {
            "seed": SEED,
            "workers": WORKERS,
            "depth": DEPTH,
            "nrhs": NRHS,
        },
        "nblocks": plan.nblocks,
        "nnz": plan.nnz,
        "serial_seconds": t_serial,
        "pipelined_seconds": t_pipe,
        "pipeline_speedup": speedup,
        "spmm_seconds": t_spmm,
        "k_spmv_seconds": t_spmv_k,
        "spmm_per_rhs_ratio": per_rhs_ratio,
        "multiply_idle_seconds": _val("spmv.pipeline.multiply_idle_seconds"),
        "decode_idle_seconds": _val("spmv.pipeline.decode_idle_seconds"),
    }


def _write_artifact(res) -> str:
    check_schema(res, BENCH_SCHEMAS["bench_pipeline"], "BENCH_pipeline.json")
    path = os.environ.get("BENCH_PIPELINE_OUT", "BENCH_pipeline.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(res, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def test_pipeline_gates(benchmark):
    res = run_once(benchmark, _measure)
    path = _write_artifact(res)

    # Gate 1: overlap pays on the engine-backed path.
    assert res["pipeline_speedup"] >= 1.3, (
        f"pipelined speedup {res['pipeline_speedup']:.2f}x < 1.3x gate "
        f"(serial {res['serial_seconds']:.3f}s, "
        f"pipelined {res['pipelined_seconds']:.3f}s)"
    )
    # Gate 2: fused SpMM decodes once for all RHS.
    assert res["spmm_per_rhs_ratio"] <= 0.5, (
        f"SpMM per-RHS cost {res['spmm_per_rhs_ratio']:.2f}x of an "
        f"independent SpMV > 0.5x gate"
    )
    with open(path, "r", encoding="utf-8") as fh:
        artifact = json.load(fh)
    assert artifact["pipeline_speedup"] == res["pipeline_speedup"]
