"""The recoded-SpMV/SpMM block step and the three schedules that run it.

The paper's executor (Figs. 6-7) is one loop: stream a block's compressed
records from DRAM, recode them, multiply. :class:`BlockStep` is that
loop's body, written once: poll ``cancel``, stream the block's two records
and charge their ``dram -> udp`` DMA into the run's :class:`RunLedger`,
take the block from its :func:`block_source` (engine, plan or UDP
toolchain), then settle it — record its ``udp -> cpu`` bytes, or apply
the failure policy (``strict`` raises a :class:`BlockDecodeError` naming
the block, ``degrade`` substitutes :func:`raw_block`).

The schedules differ only in where a block comes from and in what order
blocks finish: **serial** runs it in block order as the blocked kernels'
``recode`` hook; **pipelined** (:func:`run_pipelined`) streams every
block, then settles decode completions as they land; **sharded**
(:func:`run_sharded`) runs the serial schedule over block ranges in
worker processes. Out-of-order results fold through a
:class:`BlockAccumulator`, and every run ends in one
:meth:`RunLedger.fold` in block order, so results, ``TrafficLog`` totals,
``dma_seconds``, degraded counts and errors are bit-identical across
schedules.

A warm :class:`~repro.core.session.ExecutionSession` runs no block step:
its blocks are already decoded and resident, so nothing is streamed,
charged or settled, and it multiplies from one
:class:`~repro.sparse.layout.ResidentLayout` instead. That layout calls
the same :func:`~repro.sparse.layout.segment_sums` as the blocked kernels
and :func:`block_row_sums`, and is bit-identical to serial.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import itertools
import threading
import time
from collections.abc import Callable, Sequence

import numpy as np

from repro import faults, obs
from repro import kernels
from repro.codecs.engine import BlockFailure, DEFAULT_PREFETCH_CHUNKS, RecodeEngine
from repro.codecs.errors import BlockDecodeError, CodecError
from repro.codecs.pipeline import MatrixCompression
from repro.memsys.dma import DMAEngine
from repro.memsys.dram import MemorySystem
from repro.memsys.traffic import TrafficLog
from repro.sparse.blocked import CSRBlock
from repro.sparse.csr import VALUE_DTYPE
from repro.sparse.layout import segment_sums

#: Default prefetch depth (chunk tasks in flight) for ``mode="pipelined"``.
DEFAULT_DEPTH = DEFAULT_PREFETCH_CHUNKS


class RunCancelled(RuntimeError):
    """A run's ``cancel`` callback fired at a block boundary.

    Cooperative cancellation for deadline-bound callers (the serve layer):
    the executor polls the callback between blocks and abandons the run
    as soon as it returns True, so a request past its deadline stops
    borrowing decode workers, DMA model time, and cache capacity. The
    partial result is discarded — nothing observable is half-updated.
    """

    def __init__(self, message: str = "run cancelled", blocks_done: int = 0):
        super().__init__(message)
        self.blocks_done = blocks_done


class RunCounters:
    """Thread-safe per-run counters: a block cursor and a degraded count.

    :func:`run_sharded` reports its degraded-block total here; increments
    take a lock so concurrent consumers cannot lose updates.
    """

    __slots__ = ("_lock", "_cursor", "_degraded")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._cursor = 0
        self._degraded = 0

    def next_block(self) -> int:
        """Claim the next block index."""
        with self._lock:
            i = self._cursor
            self._cursor += 1
            return i

    def add_degraded(self, n: int = 1) -> None:
        with self._lock:
            self._degraded += n

    @property
    def degraded(self) -> int:
        return self._degraded

    @property
    def blocks_started(self) -> int:
        return self._cursor


class BlockAccumulator:
    """Order-independent accumulation of per-block partial results.

    ``out`` may be 1-D (SpMV) or 2-D (SpMM, rows x nrhs); ``add`` may be
    called in any block order. Rows shared between adjacent blocks (split
    rows flagged ``leading_partial``) are deferred and folded in block
    order by :meth:`finalize`, which is what makes the out-of-order sum
    bit-identical to the serial in-order one.
    """

    def __init__(self, blocks: Sequence[CSRBlock], out: np.ndarray):
        self.out = out
        n = len(blocks)
        self._shared_prev = [b.leading_partial for b in blocks]
        self._shared_next = [
            i + 1 < n and blocks[i + 1].leading_partial for i in range(n)
        ]
        self._row_start = [b.row_start for b in blocks]
        self._row_end = [b.row_end for b in blocks]
        self._pending: dict[int, list[tuple[int, np.ndarray]]] = {}
        self._lock = threading.Lock()

    def add(self, block_id: int, rows: np.ndarray, seg: np.ndarray) -> None:
        """Fold one block's segment sums in.

        ``rows`` are the block's non-empty global row indices, ``seg`` the
        matching per-row sums (1-D scalars or 2-D rows).
        """
        if rows.size == 0:
            return
        first_shared = (
            self._shared_prev[block_id] and int(rows[0]) == self._row_start[block_id]
        )
        last_shared = (
            self._shared_next[block_id]
            and int(rows[-1]) == self._row_end[block_id] - 1
        )
        lo = 1 if first_shared else 0
        hi = rows.size - 1 if last_shared else rows.size
        with self._lock:
            if first_shared:
                self._pending.setdefault(int(rows[0]), []).append(
                    (block_id, seg[0])
                )
            if last_shared and not (first_shared and rows.size == 1):
                self._pending.setdefault(int(rows[-1]), []).append(
                    (block_id, seg[-1])
                )
            if lo < hi:
                self.out[rows[lo:hi]] += seg[lo:hi]

    def finalize(self) -> np.ndarray:
        """Fold deferred split-row contributions, in block order per row."""
        with self._lock:
            for row in sorted(self._pending):
                for _, contrib in sorted(
                    self._pending[row], key=lambda entry: entry[0]
                ):
                    self.out[row] += contrib
            self._pending.clear()
        return self.out


def block_row_sums(
    block: CSRBlock, x: np.ndarray
) -> tuple[np.ndarray, np.ndarray] | None:
    """One block's multiply arithmetic: ``(rows, seg)`` or None when empty.

    The blocked kernels' :func:`~repro.sparse.layout.segment_sums` over the
    block's row segments, so each row's partial sum is bit-identical to
    the serial kernels'. Shard workers compute these and ship them back
    for accumulator folding in the parent process.
    """
    if block.nnz == 0:
        return None
    rows, seg_starts = block.row_segments()
    return rows, segment_sums(block.val, block.col_idx, x, seg_starts)


def multiply_block(
    block: CSRBlock, x: np.ndarray, acc: BlockAccumulator, block_id: int
) -> None:
    """One block's multiply stage: gather, scale, segment-sum, accumulate."""
    sums = block_row_sums(block, x)
    if sums is None:
        return
    acc.add(block_id, sums[0], sums[1])


def check_operand(x, ncols: int, fused: bool) -> np.ndarray:
    """The executor's entry check on the dense operand, for every schedule:
    shape ``(ncols,)`` for SpMV, ``(ncols, k)`` for fused SpMM."""
    x = np.ascontiguousarray(x, dtype=VALUE_DTYPE)
    if fused and (x.ndim != 2 or x.shape[0] != ncols):
        raise ValueError(f"X must have shape ({ncols}, k), got {x.shape}")
    if not fused and x.shape != (ncols,):
        raise ValueError(f"x must have shape ({ncols},), got {x.shape}")
    return x


def claim_out(shape: tuple, out: "np.ndarray | None") -> np.ndarray:
    """Resolve an executor's accumulator: a fresh zeroed array, or a
    caller-supplied (session-reused) buffer zero-filled in place — the
    accumulation sequence, and therefore the result bits, are identical
    either way."""
    if out is None:
        return np.zeros(shape, dtype=VALUE_DTYPE)
    if out.shape != shape or out.dtype != VALUE_DTYPE:
        raise ValueError(
            f"out must be float64 with shape {shape}, got {out.dtype} {out.shape}"
        )
    if not out.flags.writeable:
        raise ValueError("out must be writeable")
    out[:] = 0.0
    return out


# ---------------------------------------------------------------------------
# The block step
# ---------------------------------------------------------------------------


class RunLedger:
    """Per-block accounting of one run, folded once in block order.

    ``dma[i]`` holds block *i*'s DMA seconds in charge order (two
    ``dram -> udp`` records, then any ``degrade`` substitute) and
    ``cpu[i]`` its decoded ``udp -> cpu`` bytes; ``log`` the DMA edge
    bytes; ``failures`` the ``strict`` errors of schedules that go on past
    a failed block. Picklable, so shard workers ship theirs back.
    """

    __slots__ = ("log", "dma", "cpu", "degraded", "failures")

    def __init__(self, log: TrafficLog | None = None):
        self.log = TrafficLog() if log is None else log
        self.dma: dict[int, tuple[float, ...]] = {}
        self.cpu: dict[int, int] = {}
        self.degraded = 0
        self.failures: dict[int, BlockDecodeError] = {}

    def absorb(self, other: "RunLedger") -> None:
        """Merge a shard worker's ledger (its blocks are disjoint from ours)."""
        self.dma.update(other.dma)
        self.cpu.update(other.cpu)
        self.degraded += other.degraded
        self.failures.update(other.failures)
        for (src, dst), nbytes in sorted(other.log.edges().items()):
            self.log.record(src, dst, nbytes)

    def fold(self) -> float:
        """The run's ``dma_seconds``, summed in block order, after recording
        the ``udp -> cpu`` bytes into ``log`` (once per run, not per block).

        Raises the lowest failing block's error: the one a serial run
        stops at.
        """
        if self.failures:
            raise self.failures[min(self.failures)]
        if self.cpu:
            self.log.record("udp", "cpu", sum(self.cpu.values()))
        total = 0.0
        for i in sorted(self.dma):
            for seconds in self.dma[i]:
                total += seconds
        return total


def raw_block(plan: MatrixCompression, i: int) -> CSRBlock:
    """The pristine raw block that replaces a failed decode under ``degrade``:
    the retained raw CSR partition of an in-memory plan (records in a
    tuple), else — streaming plans hold shell blocks — a decode of the
    pristine records, bit-identical to what an eager load would retain."""
    if isinstance(plan.index_records, tuple):
        return plan.blocked.blocks[i]
    return plan.decompress_block(i)


def _streamed_intact(plan: MatrixCompression, i: int, recs: tuple) -> bool:
    """Whether the DMA-streamed records are the stored ones (no DRAM fault)."""
    return recs[0] is plan.index_records[i] and recs[1] is plan.value_records[i]


def block_source(
    plan: MatrixCompression,
    *,
    engine: RecodeEngine | None = None,
    matrix_id: str = "",
    use_udp_simulator: bool = False,
) -> Callable[[int, tuple], CSRBlock]:
    """Where a run's blocks come from: ``source(i, streamed_records)``
    returns block *i* decoded, or raises :class:`CodecError`.

    The cycle-level UDP toolchain, else the (cache-aware) engine, else
    ``plan.decompress_block``. A block whose streamed copy a DRAM-side
    fault corrupted always decodes exactly what arrived.
    """
    if use_udp_simulator:
        from repro.udp.lane import Lane
        from repro.udp.runtime import DecoderToolchain

        toolchain = DecoderToolchain(plan)
        lane = Lane()

        def udp(i: int, _recs) -> CSRBlock:
            idx_chain = toolchain.run_chain(i, "index", lane=lane)
            val_chain = toolchain.run_chain(i, "value", lane=lane)
            if not (idx_chain.verified and val_chain.verified):
                raise BlockDecodeError(
                    f"UDP decode failed verification at block {i}", block_id=i
                )
            return plan.assemble_block(i, idx_chain.output, val_chain.output)

        return udp

    def direct(i: int, recs) -> CSRBlock:
        if engine is not None and _streamed_intact(plan, i, recs):
            return engine.decode_block(plan, i, matrix_id=matrix_id)
        return plan.decompress_block(i, index_record=recs[0], value_record=recs[1])

    return direct


class BlockStep:
    """The per-block step every schedule runs (see the module docstring).

    Calling it is the blocked kernels' ``recode`` hook (blocks in order,
    off its own cursor).
    """

    __slots__ = (
        "plan", "source", "dma", "ledger", "policy", "cancel", "span", "cursor",
    )

    def __init__(
        self,
        plan: MatrixCompression,
        source: Callable[[int, tuple], CSRBlock],
        *,
        ledger: RunLedger,
        memory: MemorySystem,
        policy: str = "strict",
        cancel: "Callable[[], bool] | None" = None,
        span: str = "spmv.block",
    ):
        self.plan = plan
        self.source = source
        self.dma = DMAEngine(memory, log=ledger.log)
        self.ledger = ledger
        self.policy = policy
        self.cancel = cancel
        self.span = span
        self.cursor = 0

    def __call__(self, _stored: CSRBlock) -> CSRBlock:
        i = self.cursor
        self.cursor = i + 1
        return self.run(i)

    def run(self, i: int) -> CSRBlock:
        """Stream, decode and settle block *i*."""
        with obs.trace(self.span, block=i):
            recs = self.stream(i)
            try:
                block = self.source(i, recs)
            except CodecError as exc:
                return self.settle(i, error=exc)
            return self.settle(i, block)

    def stream(self, i: int) -> tuple:
        """Poll ``cancel``, stream block *i*'s two records out of DRAM and
        charge their ``dram -> udp`` DMA into ledger slot *i*."""
        if self.cancel is not None and self.cancel():
            raise RunCancelled(blocks_done=i)
        plan, memory, transfer = self.plan, self.dma.memory, self.dma.transfer
        idx_rec = memory.stream_record(plan.index_records[i], i, "index")
        val_rec = memory.stream_record(plan.value_records[i], i, "value")
        self.ledger.dma[i] = (
            transfer(idx_rec.stored_bytes, "dram", "udp").seconds,
            transfer(val_rec.stored_bytes, "dram", "udp").seconds,
        )
        return idx_rec, val_rec

    def settle(
        self, i: int, block: CSRBlock | None = None, error: CodecError | None = None
    ) -> CSRBlock:
        """Finish block *i*: record its ``udp -> cpu`` bytes, or apply the
        failure policy to ``error``."""
        if error is None:
            self.ledger.cpu[i] = 12 * block.nnz
            return block
        if self.policy == "strict":
            if isinstance(error, BlockDecodeError):
                raise error
            raise BlockDecodeError(
                f"block {i} failed to decode: {error}", block_id=i
            ) from error
        raw = raw_block(self.plan, i)
        self.ledger.dma[i] += (self.dma.transfer(12 * raw.nnz, "dram", "cpu").seconds,)
        self.ledger.degraded += 1
        return raw


# ---------------------------------------------------------------------------
# Pipelined schedule: overlap block decode with multiply
# ---------------------------------------------------------------------------


def run_pipelined(
    step: BlockStep,
    x: np.ndarray,
    *,
    engine: RecodeEngine,
    matrix_id: str,
    depth: int,
    out: "np.ndarray | None" = None,
) -> np.ndarray:
    """The pipelined schedule of one recoded SpMV (1-D ``x``) or SpMM (2-D).

    Streams every block in block order (the paper's DMA prefetch), then
    settles decode completions as they land — the engine pool decodes up
    to ``depth`` chunks ahead — into one :class:`BlockAccumulator`.
    ``step.cancel`` is also polled per completion (closing the handle
    drops in-flight chunks); ``strict`` failures land in the ledger.
    """
    plan, ledger, cancel = step.plan, step.ledger, step.cancel
    out = claim_out((plan.blocked.shape[0],) + x.shape[1:], out)
    acc = BlockAccumulator(plan.blocked.blocks, out)

    engine_ids: list[int] = []
    direct: list[tuple[int, tuple]] = []
    with obs.trace("spmv.pipeline.stream", nblocks=plan.nblocks):
        for i in range(plan.nblocks):
            recs = step.stream(i)
            if _streamed_intact(plan, i, recs):
                engine_ids.append(i)
            else:
                direct.append((i, recs))

    def direct_blocks():
        # Blocks whose streamed copies a DRAM-side fault corrupted decode
        # exactly what arrived, bypassing the engine.
        for i, recs in direct:
            try:
                yield i, step.source(i, recs), None
            except CodecError as exc:
                yield i, None, exc

    reg = obs.registry()
    handle = engine.decode_blocks_async(
        plan, engine_ids, matrix_id=matrix_id, max_inflight=depth
    )
    completions = itertools.chain(direct_blocks(), (
        (i, None, res.error) if isinstance(res, BlockFailure) else (i, res, None)
        for i, res in handle
    ))
    queue_hist = reg.histogram("spmv.pipeline.queue_depth")
    inflight_gauge = reg.gauge("spmv.pipeline.inflight")
    wait_s = 0.0
    idle_decode_s = 0.0
    multiply_s = 0.0
    consumed = 0
    while True:
        if cancel is not None and cancel():
            inflight_gauge.set(0)
            handle.close()
            raise RunCancelled(blocks_done=consumed)
        queue_hist.observe(handle.ready)
        inflight_gauge.set(handle.inflight)
        t0 = time.perf_counter()
        item = next(completions, None)
        wait_s += time.perf_counter() - t0
        if item is None:
            break
        i, block, error = item
        # With nothing left in flight the decoders sit idle while we
        # multiply — the signal that a deeper prefetch would help.
        starved = handle.inflight == 0
        t1 = time.perf_counter()
        try:
            block = step.settle(i, block, error)
        except BlockDecodeError as err:
            ledger.failures[i] = err
        else:
            with obs.trace("spmv.pipeline.multiply", block=i):
                multiply_block(block, x, acc, i)
        dt = time.perf_counter() - t1
        multiply_s += dt
        consumed += 1
        if starved:
            idle_decode_s += dt
    inflight_gauge.set(0)
    reg.counter("spmv.pipeline.runs").inc()
    reg.counter("spmv.pipeline.multiply_idle_seconds").inc(wait_s)
    reg.counter("spmv.pipeline.decode_idle_seconds").inc(idle_decode_s)
    reg.counter("spmv.pipeline.multiply_seconds").inc(multiply_s)
    if not ledger.failures:
        with obs.trace("spmv.pipeline.merge"):
            acc.finalize()
    return out


# ---------------------------------------------------------------------------
# Sharded schedule: contiguous block ranges on worker processes
# ---------------------------------------------------------------------------


def shard_ranges(nblocks: int, shards: int) -> tuple[range, ...]:
    """Split ``nblocks`` into ``shards`` contiguous, near-equal block ranges.

    Empty ranges are dropped (more shards than blocks degrades to one block
    per shard), so every returned range is non-empty and the ranges cover
    ``range(nblocks)`` exactly, in order.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    if nblocks == 0:
        return ()
    shards = min(shards, nblocks)
    base, extra = divmod(nblocks, shards)
    ranges = []
    lo = 0
    for s in range(shards):
        hi = lo + base + (1 if s < extra else 0)
        ranges.append(range(lo, hi))
        lo = hi
    return tuple(ranges)


def _shard_worker(
    path: str,
    verify: str,
    block_ids: Sequence[int],
    x: np.ndarray,
    policy: str,
    memory: MemorySystem,
    fault_plan,
    kernel_backend: str,
    residency_budget: int | None,
) -> dict:
    """Run the serial schedule over one contiguous block shard, on its own
    mapping of the container. It accumulates nothing: per-block ``(rows,
    seg)`` segment sums and the shard's :class:`RunLedger` ship back for
    the parent to fold. Like serial, a ``strict`` shard stops at its first
    failing block."""
    from repro.codecs.container import ContainerReader

    t0 = time.perf_counter()
    with contextlib.ExitStack() as stack:
        if fault_plan is not None:
            stack.enter_context(fault_plan.activate())
        stack.enter_context(kernels.use_backend(kernel_backend))
        reader = stack.enter_context(
            ContainerReader(path, verify=verify, residency_budget=residency_budget)
        )
        plan = reader.plan()
        ledger = RunLedger()
        step = BlockStep(
            plan, block_source(plan), ledger=ledger, policy=policy, memory=memory
        )
        segments: list[tuple[int, np.ndarray, np.ndarray]] = []
        for i in block_ids:
            try:
                block = step.run(i)
            except BlockDecodeError as err:
                ledger.failures[i] = err
                break
            sums = block_row_sums(block, x)
            if sums is not None:
                segments.append((i, sums[0], sums[1]))
        return {
            "segments": segments,
            "ledger": ledger,
            "pages_touched": reader.pages_touched,
            "mapped_bytes": reader.nbytes,
            "wall_seconds": time.perf_counter() - t0,
        }


def run_sharded(
    reader,
    x: np.ndarray,
    *,
    shards: int,
    memory: MemorySystem,
    log: TrafficLog,
    policy: str,
    counters: RunCounters,
    bounds: Sequence[range] | None = None,
    out: "np.ndarray | None" = None,
) -> tuple[np.ndarray, float, dict]:
    """Scatter-gather recoded SpMV/SpMM over contiguous block shards.

    Each shard runs the serial schedule on its own worker process against
    its own mapping of the container (``reader`` must be path-backed).
    The parent folds every worker's per-block segment sums through one
    :class:`BlockAccumulator`, whose leading-partial deferral makes the
    result bit-identical to serial for *any* contiguous partition — split
    rows at shard boundaries included — and absorbs every worker's ledger
    into one whose fold reproduces serial ``TrafficLog`` totals (recorded
    into ``log``), ``dma_seconds`` and errors exactly. Degraded blocks are
    counted on ``counters``.

    Returns ``(result, dma_seconds, oocore_info)`` where ``oocore_info``
    carries the ``spmv.oocore.*`` measurements (bytes mapped, pages
    touched, per-shard wall seconds and skew).
    """
    if reader.path is None:
        raise ValueError(
            "sharded execution needs a path-backed ContainerReader "
            "(workers re-map the container file)"
        )
    nblocks = reader.nblocks
    if bounds is None:
        bounds = shard_ranges(nblocks, shards)
    else:
        covered = [i for r in bounds for i in r]
        if covered != list(range(nblocks)):
            raise ValueError("shard bounds must cover all blocks contiguously")
        bounds = tuple(r for r in bounds if len(r))
    out = claim_out((reader.shape[0],) + x.shape[1:], out)
    if not bounds:
        return out, 0.0, {
            "shards": 0, "mapped_bytes": 0, "pages_touched": 0,
            "shard_seconds": [], "shard_skew": 1.0,
        }
    acc = BlockAccumulator(reader.shell_blocks(), out)
    fault_plan = faults.active()
    backend = kernels.backend()

    with obs.trace("spmv.oocore.scatter", shards=len(bounds), nblocks=nblocks):
        with concurrent.futures.ProcessPoolExecutor(max_workers=len(bounds)) as pool:
            futs = [
                pool.submit(
                    _shard_worker, reader.path, reader.verify, list(r), x, policy,
                    memory, fault_plan, backend, reader.residency_budget,
                )
                for r in bounds
            ]
            results = [fut.result() for fut in futs]

    with obs.trace("spmv.oocore.gather", shards=len(results)):
        ledger = RunLedger(log)
        for res in results:
            ledger.absorb(res["ledger"])
        dma_seconds = ledger.fold()
        for res in results:
            for i, rows, seg in res["segments"]:
                acc.add(i, rows, seg)
        acc.finalize()
    counters.add_degraded(ledger.degraded)

    shard_seconds = [res["wall_seconds"] for res in results]
    mean_s = sum(shard_seconds) / len(shard_seconds)
    info = {
        "shards": len(results),
        "mapped_bytes": sum(res["mapped_bytes"] for res in results),
        "pages_touched": sum(res["pages_touched"] for res in results),
        "shard_seconds": shard_seconds,
        "shard_skew": (max(shard_seconds) / mean_s) if mean_s > 0 else 1.0,
    }
    return out, dma_seconds, info
