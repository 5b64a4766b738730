"""Functional end-to-end recoded SpMV/SpMM (paper Figs. 6-7).

``y = A @ x`` where A lives in DRAM as a DSH-compressed block plan. Each
block runs the one :class:`~repro.core.executor.BlockStep`: the DMA engine
streams its compressed records into UDP local memory (``dram -> udp``),
the UDP recodes them back to raw CSR streams (``recode(DSH_unpack, ...)``
in the paper's listing; functionally here, or on the cycle-level UDP
programs), and the CPU multiplies the block (``udp -> cpu``).

:func:`recoded_spmv` / :func:`recoded_spmm` check the operand once, then
pick one of the step's schedules (see :mod:`repro.core.executor`):
``mode="serial"`` (block order; the reference), ``mode="pipelined"`` (the
paper's overlap: a :class:`~repro.codecs.engine.RecodeEngine` pool decodes
up to ``depth`` chunks ahead while blocks multiply as they complete), or
``shards=N`` (the serial schedule over block ranges in worker processes).
Every schedule fills one per-run ledger folded in block order, so results,
TrafficLog byte totals, ``dma_seconds``, degraded-block accounting and
raised errors are bit-identical across them; :func:`record_run` turns it
into :class:`PipelineStats` and emits the per-run metrics.

:func:`recoded_spmm` fuses multiple right-hand sides: each block is
streamed and decoded **once** for all ``k`` columns. The traffic log
proves the headline byte claim: DRAM traffic for A shrinks by the
compression ratio.
"""

from __future__ import annotations

import time
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from os import PathLike

import numpy as np

from repro import obs
from repro.codecs.container import ContainerReader
from repro.codecs.engine import RecodeEngine
from repro.codecs.pipeline import MatrixCompression
from repro.core.executor import (
    DEFAULT_DEPTH,
    BlockStep,
    RunCounters,
    RunLedger,
    block_source,
    check_operand,
    run_pipelined,
    run_sharded,
)
from repro.memsys.dram import DDR4_100GBS, MemorySystem
from repro.memsys.traffic import TrafficLog
from repro.sparse.spmm import spmm_blocked
from repro.sparse.spmv import spmv_blocked

#: Execution modes accepted by :func:`recoded_spmv` / :func:`recoded_spmm`.
MODES = ("serial", "pipelined")

#: :func:`record_run`'s ``{prefix}.{name}`` instruments, keyed
#: ``(prefix, name)`` and looked up once per registry.
_RUN_COUNTERS = obs.BoundInstruments(lambda reg, key: reg.counter(".".join(key)))
_RUN_GAUGES = obs.BoundInstruments(lambda reg, key: reg.gauge(".".join(key)))
_RUN_SECONDS = obs.BoundInstruments(
    lambda reg, prefix: reg.histogram(f"{prefix}.seconds")
)


@dataclass(frozen=True)
class PipelineStats:
    """Byte accounting for one recoded SpMV/SpMM."""

    traffic: TrafficLog
    dram_bytes: int
    baseline_dram_bytes: int
    dma_seconds: float
    #: Snapshot of the recode engine's cumulative counters (blocks decoded,
    #: cache hits, workers, MB/s, ...) when one drove the decode; else None.
    engine_stats: dict | None = None
    #: Failure policy the run executed under (``strict`` | ``degrade``).
    policy: str = "strict"
    #: Blocks whose decode failed and were substituted from the retained
    #: raw CSR partition (``degrade`` policy only). The result is still
    #: bit-exact — the substitution streams raw bytes, costing compression
    #: benefit, not correctness.
    degraded_blocks: int = 0
    #: Executor that produced this run (``serial`` | ``pipelined`` |
    #: ``sharded``).
    mode: str = "serial"
    #: Right-hand-side count: 1 for SpMV, ``k`` for fused SpMM.
    nrhs: int = 1
    #: Out-of-core measurements when the run streamed an mmap-backed
    #: container (bytes mapped, pages touched, shard wall seconds/skew);
    #: None for in-memory plans.
    oocore: dict | None = None

    @property
    def traffic_ratio(self) -> float:
        """Compressed DRAM traffic / baseline (≈ bytes_per_nnz / 12).

        Degraded blocks stream their raw CSR bytes and are counted, so a
        degraded run honestly reports its reduced compression benefit.
        """
        if self.baseline_dram_bytes == 0:
            return 1.0
        return self.dram_bytes / self.baseline_dram_bytes


def _validate(
    policy: str, mode: str, depth: int, engine, use_udp_simulator: bool,
    shards: int, reader, cancel,
) -> None:
    if policy not in ("strict", "degrade"):
        raise ValueError(f"policy must be 'strict' or 'degrade', got {policy!r}")
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if mode == "pipelined":
        if engine is None:
            raise ValueError("mode='pipelined' requires a RecodeEngine")
        if use_udp_simulator:
            raise ValueError(
                "mode='pipelined' cannot run the cycle-level UDP simulator; "
                "use mode='serial' with use_udp_simulator=True"
            )
        if depth < 1:
            raise ValueError(f"depth must be >= 1, got {depth}")
    if shards < 0:
        raise ValueError(f"shards must be >= 0, got {shards}")
    if shards == 0:
        return
    if reader is None or reader.path is None:
        raise ValueError(
            "shards>0 needs a path-backed container: pass a .dsh path or a "
            "ContainerReader opened from one (workers re-map the file)"
        )
    if mode == "pipelined":
        raise ValueError("shards>0 is its own executor; use mode='serial'")
    if engine is not None:
        raise ValueError("shards>0 decodes in shard workers; engine must be None")
    if use_udp_simulator:
        raise ValueError("shards>0 cannot run the cycle-level UDP simulator")
    if cancel is not None:
        raise ValueError(
            "cancel is cooperative per-block and cannot reach shard worker "
            "processes; use shards=0"
        )


@contextmanager
def open_plan(
    plan: "MatrixCompression | ContainerReader | str | PathLike",
) -> Iterator[tuple[MatrixCompression, ContainerReader | None]]:
    """Normalize the ``plan`` argument to ``(plan, reader)``.

    A path opens a lazy-verify :class:`ContainerReader` that the run owns
    (and closes); a reader is borrowed; an in-memory plan passes through.
    """
    if isinstance(plan, MatrixCompression):
        yield plan, None
    elif isinstance(plan, ContainerReader):
        yield plan.plan(), plan
    elif isinstance(plan, (str, PathLike)):
        with ContainerReader(plan, verify="lazy") as reader:
            yield reader.plan(), reader
    else:
        raise TypeError(
            "plan must be a MatrixCompression, a ContainerReader, or a .dsh "
            f"path, got {type(plan).__name__}"
        )


def record_run(
    prefix: str,
    plan: MatrixCompression,
    ledger: RunLedger,
    dma_seconds: float,
    *,
    engine: RecodeEngine | None,
    policy: str,
    mode: str,
    nrhs: int,
    started: float,
    oocore: dict | None = None,
) -> PipelineStats:
    """Build one run's :class:`PipelineStats` and emit its per-run
    ``spmv.*`` / ``spmm.*`` metrics — the one place every schedule,
    session-warm included, reports through."""
    log = ledger.log
    stats = PipelineStats(
        traffic=log,
        dram_bytes=log.bytes_on("dram", "udp") + log.bytes_on("dram", "cpu"),
        baseline_dram_bytes=12 * plan.nnz,
        dma_seconds=dma_seconds,
        engine_stats=engine.stats.as_dict() if engine is not None else None,
        policy=policy,
        degraded_blocks=ledger.degraded,
        mode=mode,
        nrhs=nrhs,
        oocore=oocore,
    )
    counter, gauge = _RUN_COUNTERS, _RUN_GAUGES
    if oocore is not None:
        counter[prefix, "oocore.runs"].inc()
        counter[prefix, "oocore.bytes_mapped"].inc(oocore["mapped_bytes"])
        counter[prefix, "oocore.pages_touched"].inc(oocore["pages_touched"])
        if oocore["shards"]:
            counter[prefix, "oocore.shards"].inc(oocore["shards"])
            gauge[prefix, "oocore.shard_skew"].set(oocore["shard_skew"])
    counter[prefix, "iterations"].inc()
    counter[prefix, "blocks"].inc(plan.nblocks)
    counter[prefix, "nnz"].inc(plan.nnz)
    counter[prefix, "flops"].inc(2 * nrhs * plan.nnz)
    counter[prefix, "bytes.dram_to_udp"].inc(log.bytes_on("dram", "udp"))
    counter[prefix, "bytes.udp_to_cpu"].inc(log.bytes_on("udp", "cpu"))
    counter[prefix, "bytes.baseline"].inc(stats.baseline_dram_bytes)
    counter[prefix, "dma_seconds"].inc(dma_seconds)
    gauge[prefix, "traffic_ratio"].set(stats.traffic_ratio)
    if ledger.degraded:
        counter["spmv", "degraded_blocks"].inc(ledger.degraded)
        counter[prefix, "degraded_iterations"].inc()
    _RUN_SECONDS[prefix].observe(time.perf_counter() - started)
    return stats


def _execute(
    plan: MatrixCompression,
    x: np.ndarray,
    *,
    memory: MemorySystem,
    use_udp_simulator: bool,
    engine: RecodeEngine | None,
    matrix_id: str,
    policy: str,
    mode: str,
    depth: int,
    kernel,
    prefix: str,
    reader: ContainerReader | None = None,
    shards: int = 0,
    cancel=None,
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, PipelineStats]:
    """Shared executor body for recoded SpMV (``prefix="spmv"``, 1-D ``x``)
    and fused SpMM (``prefix="spmm"``, 2-D ``x``): check the operand,
    pick the schedule, fold the ledger, report.

    ``out`` is an optional preallocated accumulator (zero-filled by the
    executor) that sessions reuse across iterations; results are
    bit-identical with or without it.
    """
    x = check_operand(x, plan.blocked.shape[1], fused=prefix == "spmm")
    _validate(policy, mode, depth, engine, use_udp_simulator, shards, reader, cancel)
    started = time.perf_counter()
    pages_before = reader.pages_touched if reader is not None else 0
    ledger = RunLedger()
    oocore: dict | None = None
    run_mode = "sharded" if shards else mode
    with obs.trace(
        f"{prefix}.recoded", nblocks=plan.nblocks, matrix=matrix_id, mode=run_mode
    ):
        if shards:
            counters = RunCounters()
            y, dma_seconds, oocore = run_sharded(
                reader, x, shards=shards, memory=memory, log=ledger.log,
                policy=policy, counters=counters, out=out,
            )
            ledger.degraded = counters.degraded
        else:
            source = block_source(
                plan, engine=engine, matrix_id=matrix_id,
                use_udp_simulator=use_udp_simulator,
            )
            step = BlockStep(
                plan, source, ledger=ledger, policy=policy, memory=memory,
                cancel=cancel, span=f"{prefix}.block",
            )
            if mode == "pipelined":
                y = run_pipelined(
                    step, x, engine=engine, matrix_id=matrix_id, depth=depth, out=out
                )
            else:
                y = kernel(plan.blocked, x, recode=step, out=out)
            dma_seconds = ledger.fold()
    if reader is not None and oocore is None:
        oocore = {
            "shards": 0,
            "mapped_bytes": reader.nbytes,
            "pages_touched": reader.pages_touched - pages_before,
            "shard_seconds": [],
            "shard_skew": 1.0,
        }
    stats = record_run(
        prefix, plan, ledger, dma_seconds, engine=engine, policy=policy,
        mode=run_mode, nrhs=1 if x.ndim == 1 else int(x.shape[1]),
        started=started, oocore=oocore,
    )
    return y, stats


def recoded_spmv(
    plan: "MatrixCompression | ContainerReader | str | PathLike",
    x: np.ndarray,
    memory: MemorySystem = DDR4_100GBS,
    use_udp_simulator: bool = False,
    engine: RecodeEngine | None = None,
    matrix_id: str = "",
    policy: str = "strict",
    mode: str = "serial",
    depth: int = DEFAULT_DEPTH,
    shards: int = 0,
    cancel=None,
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, PipelineStats]:
    """Execute ``y = A @ x`` over the compressed plan.

    Args:
        plan: compressed matrix — an in-memory
            :class:`~repro.codecs.pipeline.MatrixCompression`, an open
            :class:`~repro.codecs.container.ContainerReader`, or a ``.dsh``
            path (opened lazily-verified and mmap-streamed; the run owns
            and closes the mapping).
        x: dense input vector.
        memory: memory system for DMA timing/energy.
        use_udp_simulator: decode blocks with the cycle-level UDP programs
            (slow, bit-exact) instead of the functional decoders.
            ``mode="serial"`` only.
        engine: route block decodes through a
            :class:`~repro.codecs.engine.RecodeEngine`. With a cache
            attached, iterative solvers (PageRank, heat stepping) hit
            already-decoded blocks — the software analogue of the paper's
            steady-state UDP loop — and the returned stats carry the
            engine's counters. Ignored when ``use_udp_simulator`` is set.
        matrix_id: cache namespace for this matrix (pass a stable name when
            re-running SpMV over the same plan).
        policy: what a block decode failure does. ``"strict"`` (default)
            raises the underlying
            :class:`~repro.codecs.errors.BlockDecodeError` naming the
            block. ``"degrade"`` substitutes the failed block from the
            plan's retained raw CSR partition — the result stays
            bit-exact; the substituted block just streams uncompressed
            (counted in ``stats.degraded_blocks`` and the traffic ratio).
        mode: ``"serial"`` decodes then multiplies block by block;
            ``"pipelined"`` overlaps decode with multiply by prefetching
            block decodes through the engine pool (requires ``engine``).
            Both modes produce bit-identical results, traffic, and errors.
        depth: pipelined prefetch depth — max decode chunk tasks in
            flight (``mode="pipelined"`` only).
        shards: split the container into this many contiguous block
            shards and scatter-gather them over worker processes, each
            mapping the file independently (``y`` stays bit-identical to
            serial). Requires a path-backed container; incompatible with
            ``engine`` / ``mode="pipelined"`` / ``use_udp_simulator``.
        cancel: optional zero-arg callable polled at every block
            boundary; returning True abandons the run with
            :class:`~repro.core.executor.RunCancelled` (deadline-bound
            callers — the serve layer — use this to stop a request past
            its deadline from borrowing further decode/DMA capacity).
            Incompatible with ``shards`` (workers cannot poll it).
        out: optional preallocated ``(nrows,)`` float64 accumulator,
            zero-filled and returned as ``y`` — lets iterative callers
            (:class:`~repro.core.session.ExecutionSession`) reuse one
            buffer across calls with bit-identical results.

    Returns:
        ``(y, stats)``.
    """
    with open_plan(plan) as (plan, reader):
        return _execute(
            plan,
            x,
            memory=memory,
            use_udp_simulator=use_udp_simulator,
            engine=engine,
            matrix_id=matrix_id,
            policy=policy,
            mode=mode,
            depth=depth,
            kernel=spmv_blocked,
            prefix="spmv",
            reader=reader,
            shards=shards,
            cancel=cancel,
            out=out,
        )


def recoded_spmm(
    plan: "MatrixCompression | ContainerReader | str | PathLike",
    x: np.ndarray,
    memory: MemorySystem = DDR4_100GBS,
    engine: RecodeEngine | None = None,
    matrix_id: str = "",
    policy: str = "strict",
    mode: str = "serial",
    depth: int = DEFAULT_DEPTH,
    shards: int = 0,
    cancel=None,
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, PipelineStats]:
    """Execute fused ``Y = A @ X`` for ``k`` right-hand sides.

    Each block is streamed from DRAM and decoded exactly **once**, then
    multiplied against all ``k`` columns of ``X`` — so the A-side DRAM
    traffic (and decode work) of a ``k``-column multiply equals one SpMV's,
    instead of ``k`` separate SpMVs'. Column ``j`` of the result is
    bit-identical to ``recoded_spmv(plan, X[:, j])``.

    Accepts the same ``engine`` / ``matrix_id`` / ``policy`` / ``mode`` /
    ``depth`` / ``shards`` knobs (and the same polymorphic ``plan``) as
    :func:`recoded_spmv`; metrics are recorded under the ``spmm.*`` prefix
    with ``flops = 2 * k * nnz``.

    Returns:
        ``(Y, stats)`` with ``Y.shape == (nrows, k)`` and
        ``stats.nrhs == k``.
    """
    with open_plan(plan) as (plan, reader):
        return _execute(
            plan,
            x,
            memory=memory,
            use_udp_simulator=False,
            engine=engine,
            matrix_id=matrix_id,
            policy=policy,
            mode=mode,
            depth=depth,
            kernel=spmm_blocked,
            prefix="spmm",
            reader=reader,
            shards=shards,
            cancel=cancel,
            out=out,
        )
