"""Persistent execution sessions: steady-state SpMV/SpMM over one plan.

Every :func:`~repro.core.spmv_pipeline.recoded_spmv` call is single-shot:
it re-pays pool spin-up, reader structural walks, row-index
materialization, per-record CRC checks, and a fresh output allocation —
even when iterating over the same immutable plan. The paper's throughput
claim (and SpArch / SparseZipper's framing of sparse accelerators) is
about *sustained* steady-state loops, where decode traffic amortizes over
repeated accesses. :class:`ExecutionSession` makes that path first-class:

* **Warm engine pool** — one :class:`~repro.codecs.engine.RecodeEngine`
  lives for the session, so process-pool spin-up is paid once.
* **Session-scoped decoded-block cache sized to the matrix** — every
  decoded block stays resident (12 B/nnz budget covers the whole plan),
  so iterations after the first skip decode entirely.
* **Memoized structure** — one plan object (and one long-lived
  :class:`~repro.codecs.container.ContainerReader` for ``.dsh``-backed
  sessions) means per-block row-index vectors
  (:meth:`~repro.sparse.blocked.CSRBlock.row_segments`) and record
  extents are materialized once and reused.
* **``out=`` buffer reuse** — the result accumulator is allocated once
  and zero-filled per call; the accumulation sequence is unchanged, so
  results are bit-identical to single-shot runs.
* **Verified-once CRC memo** — reader-backed sessions enable
  :meth:`~repro.codecs.container.ContainerReader.enable_crc_memo`, so a
  record's CRC is checked on first touch and skipped afterwards.

Once every block of the plan has decoded cleanly into the session cache,
calls take the *warm schedule*: the serial schedule of the one
:class:`~repro.core.executor.BlockStep`, with the cache as the block
source, through the exact same blocked kernels — no DRAM stream, no DMA
charge, no decode — which is what drives per-iteration cost below the
0.5x-of-cold gate and keeps solver end-to-end DRAM traffic at
"decode once, then vectors only".

Fault semantics are preserved conservatively: while a
:class:`~repro.faults.FaultPlan` is armed the warm schedule is disabled
outright, so chaos runs exercise the full stream/decode/degrade
machinery on *every* iteration with honest per-iteration traffic
accounting. Scrub (:meth:`ContainerReader.record_health`) always
re-checks CRCs regardless of the session memo.
"""

from __future__ import annotations

import contextlib
import itertools
import time
from os import PathLike

import numpy as np

from repro import faults, obs
from repro.codecs.container import ContainerReader
from repro.codecs.engine import DecodedBlockCache, RecodeEngine, plan_fingerprint
from repro.codecs.pipeline import MatrixCompression
from repro.core.executor import DEFAULT_DEPTH, BlockStep, RunLedger, check_operand
from repro.core.spmv_pipeline import (
    PipelineStats,
    open_plan,
    record_run,
    recoded_spmm,
    recoded_spmv,
)
from repro.memsys.dram import DDR4_100GBS, MemorySystem
from repro.sparse.blocked import CSRBlock
from repro.sparse.csr import VALUE_DTYPE
from repro.sparse.spmm import spmm_blocked
from repro.sparse.spmv import spmv_blocked

_session_ids = itertools.count()


class _ColdBlock(Exception):
    """Internal: a warm-schedule probe found a block missing from the cache."""


class ExecutionSession:
    """A reusable handle over one compressed plan or ``.dsh`` container.

    Args:
        plan: an in-memory :class:`MatrixCompression`, an open
            :class:`ContainerReader` (borrowed), or a ``.dsh`` path (the
            session owns and closes the reader).
        matrix_id: stable cache namespace; defaults to a unique
            ``session-N`` so sessions sharing an engine never collide.
        memory: memory system for DMA timing/energy on cold runs.
        engine: borrow an existing engine (its cache too); by default the
            session builds its own with a cache sized to the matrix.
        workers: process-pool width for the session-owned engine
            (ignored when ``engine`` is passed or ``shards > 0``).
        mode: ``"serial"`` or ``"pipelined"`` — the executor cold calls
            run under. ``shards > 0`` selects the sharded executor
            instead (path-backed containers only; decode happens in
            shard workers, so no engine and no warm schedule — the
            session still amortizes the reader walk and extents).
        depth / policy: forwarded to the executor on cold calls.
        reuse: ``False`` makes every call cold-per-call (the ablation
            axis): the cache is cleared before each call, no warm
            schedule, no CRC memo, fresh output buffers. Results are
            bit-identical either way.

    ``spmv``/``spmm`` return ``(y, stats)`` exactly like the single-shot
    functions. **The returned array is the session's reusable buffer**:
    it is overwritten by the next call on this session, so copy it (or
    pass your own ``out=``) if you need it to survive.
    """

    def __init__(
        self,
        plan: "MatrixCompression | ContainerReader | str | PathLike",
        *,
        matrix_id: str = "",
        memory: MemorySystem = DDR4_100GBS,
        engine: RecodeEngine | None = None,
        workers: int = 0,
        mode: str = "serial",
        depth: int = DEFAULT_DEPTH,
        shards: int = 0,
        policy: str = "strict",
        reuse: bool = True,
    ):
        self.matrix_id = matrix_id or f"session-{next(_session_ids)}"
        self.memory = memory
        self.mode = mode
        self.depth = depth
        self.shards = shards
        self.policy = policy
        self.reuse = reuse
        self._closed = False

        # Owned resources (a reader opened from a path, a session-built
        # engine) close with the session; borrowed ones stay open.
        self._owned = contextlib.ExitStack()
        self.plan, self.reader = self._owned.enter_context(open_plan(plan))
        if self.reader is not None and reuse:
            # Before the fingerprint pass below materializes (and
            # CRC-checks) every record once, so re-streams skip the check.
            self.reader.enable_crc_memo()

        if shards:
            if engine is not None:
                raise ValueError(
                    "shards>0 decodes in shard workers; engine must be None"
                )
            self.engine = None
        elif engine is not None:
            self.engine = engine
        else:
            # Budget covers every decoded block at 12 B/nnz, so nothing
            # evicts and the whole plan goes resident after one pass.
            cache = DecodedBlockCache(max_bytes=max(12 * self.plan.nnz, 4096))
            self.engine = self._owned.enter_context(
                RecodeEngine(workers=workers, cache=cache)
            )

        self._fingerprint = plan_fingerprint(self.plan)
        self._warm = False
        self._out: dict[tuple, np.ndarray] = {}

        # Cumulative session counters (plain ints; mirrored into the
        # active registry's ``session.*`` counters at event time).
        self.calls = 0
        self.warm_calls = 0
        self.cold_calls = 0
        self.blocks_reused = 0
        self.out_reuses = 0
        self._crc_skips_seen = 0

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Release session-owned resources (engine pool, reader)."""
        if self._closed:
            return
        self._closed = True
        self._owned.close()

    def __enter__(self) -> "ExecutionSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def reset(self) -> None:
        """Drop all warm state: decoded-block cache, residency, buffers.

        The next call pays full cold cost — ``repro ablate``'s
        cold-per-call axis and cold-phase benchmarking both use this.
        """
        self._warm = False
        self._out.clear()
        if self.engine is not None and self.engine.cache is not None:
            self.engine.cache.clear()

    # -- warm-path plumbing ------------------------------------------------

    @property
    def warm(self) -> bool:
        """Whether the next call can take the cache-resident warm schedule."""
        return self._warm and self.reuse and faults.active() is None

    def _claim_buffer(self, shape: tuple, out: np.ndarray | None) -> np.ndarray:
        if out is not None:
            return out
        if not self.reuse:
            return np.zeros(shape, dtype=VALUE_DTYPE)
        buf = self._out.get(shape)
        if buf is None:
            buf = np.zeros(shape, dtype=VALUE_DTYPE)
            self._out[shape] = buf
        else:
            self.out_reuses += 1
            obs.registry().counter("session.out_buffer_reuses").inc()
        return buf

    def _cached_block(self, i: int, _recs) -> "CSRBlock":
        """The warm step's source: block *i* straight out of the cache."""
        block = self.engine.cache.get((self.matrix_id, i, self._fingerprint))
        if block is None:
            raise _ColdBlock(i)
        return block

    def _record_call(self, warm: bool, nblocks: int, seconds: float) -> None:
        reg = obs.registry()
        self.calls += 1
        reg.counter("session.calls").inc()
        if warm:
            self.warm_calls += 1
            self.blocks_reused += nblocks
            reg.counter("session.warm_calls").inc()
            reg.counter("session.blocks_reused").inc(nblocks)
        else:
            self.cold_calls += 1
            reg.counter("session.cold_calls").inc()
        if self.reader is not None:
            skips = self.reader.crc_skips
            delta = skips - self._crc_skips_seen
            if delta > 0:
                reg.counter("session.crc_skips").inc(delta)
            self._crc_skips_seen = skips
        if self.engine is not None and self.engine.cache is not None:
            st = self.engine.cache.stats
            reg.gauge("session.hit_rate").set(st.hit_rate)
            reg.gauge("session.resident_bytes").set(st.current_bytes)
        reg.histogram("session.call_seconds").observe(seconds)

    def _run(self, x, prefix, kernel, recoded, out):
        """One call: the warm schedule when the whole plan is resident, else
        a cold ``recoded`` run over the session's plan or reader."""
        if self._closed:
            raise RuntimeError("session is closed")
        x = check_operand(x, self.plan.blocked.shape[1], fused=prefix == "spmm")
        start = time.perf_counter()
        if not self.reuse:
            self.reset()
        buf = self._claim_buffer((self.plan.blocked.shape[0],) + x.shape[1:], out)
        if self.warm:
            # The warm schedule: the serial one with cache-resident blocks,
            # so every result bit matches the cold executors. No DRAM
            # stream, no DMA charge, no record CRC, no decode.
            ledger = RunLedger()
            step = BlockStep(self.plan, self._cached_block, ledger=ledger,
                             policy=self.policy)
            try:
                y = kernel(self.plan.blocked, x, recode=step, out=buf)
            except _ColdBlock:
                # Cache lost entries (external clear); fall back to cold.
                self._warm = False
            else:
                stats = record_run(
                    prefix, self.plan, ledger, ledger.fold(), engine=self.engine,
                    policy=self.policy, mode=self.mode,
                    nrhs=1 if x.ndim == 1 else int(x.shape[1]), started=start,
                )
                self._record_call(True, self.plan.nblocks, time.perf_counter() - start)
                return y, stats
        y, stats = recoded(
            self.reader if self.reader is not None else self.plan, x, out=buf,
            memory=self.memory, engine=self.engine, matrix_id=self.matrix_id,
            policy=self.policy, mode=self.mode, depth=self.depth,
            shards=self.shards,
        )
        # The run goes warm once every block decoded cleanly into the
        # session cache: engine-backed, nothing degraded, no armed fault
        # plan. Degraded/faulted runs stay cold so each iteration re-pays
        # (and re-accounts) its stream honestly.
        self._warm = (
            self.reuse
            and self.engine is not None
            and self.engine.cache is not None
            and stats.degraded_blocks == 0
            and faults.active() is None
        )
        self._record_call(False, self.plan.nblocks, time.perf_counter() - start)
        return y, stats

    # -- public ops --------------------------------------------------------

    def spmv(
        self, x: np.ndarray, out: np.ndarray | None = None
    ) -> tuple[np.ndarray, PipelineStats]:
        """``y = A @ x`` with steady-state reuse. Returns ``(y, stats)``;
        ``y`` is the session buffer unless ``out`` is passed."""
        return self._run(x, "spmv", spmv_blocked, recoded_spmv, out)

    def spmm(
        self, x: np.ndarray, out: np.ndarray | None = None
    ) -> tuple[np.ndarray, PipelineStats]:
        """Fused ``Y = A @ X`` for ``k`` right-hand sides over the session."""
        return self._run(x, "spmm", spmm_blocked, recoded_spmm, out)

    # -- introspection -----------------------------------------------------

    def stats(self) -> dict:
        """Cumulative session counters (steady-state observability)."""
        cache = self.engine.cache.stats if self.engine and self.engine.cache else None
        return {
            "matrix_id": self.matrix_id,
            "calls": self.calls,
            "warm_calls": self.warm_calls,
            "cold_calls": self.cold_calls,
            "blocks_reused": self.blocks_reused,
            "out_buffer_reuses": self.out_reuses,
            "crc_skips": self.reader.crc_skips if self.reader is not None else 0,
            "cache_hits": cache.hits if cache else 0,
            "cache_misses": cache.misses if cache else 0,
            "cache_hit_rate": cache.hit_rate if cache else 0.0,
            "resident_bytes": cache.current_bytes if cache else 0,
            "engine": self.engine.stats.as_dict() if self.engine else None,
        }
