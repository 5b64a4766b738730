"""Parallel block recode engine with a decoded-block cache.

The paper's throughput story (Section V, Fig. 12) is 64 UDP lanes each
decompressing an 8 KB block concurrently, with the steady-state SpMV loop
re-streaming the *same* compressed blocks every iteration. This module is
the software analogue of that structure:

* :class:`RecodeEngine` fans per-block encode/decode work across a
  process pool, with blocks chunked so pickling is amortized. It is a
  process pool because the per-block Python around the codec kernels
  (record framing, CRC, telemetry, block assembly) holds the GIL and is
  most of a block's cost, so a thread pool measured slower than processes
  on every kernel backend. ``workers=0`` is the serial fallback and runs
  the exact same code in-process.
* :class:`DecodedBlockCache` is a bounded LRU over decoded
  :class:`~repro.sparse.blocked.CSRBlock` payloads keyed by
  ``(matrix_id, block_id, plan_hash)``, so iterative workloads (PageRank,
  heat solvers) skip re-decompression exactly like the paper's steady-state
  UDP loop skips nothing *but* the DRAM stream.

Both paths are byte-identical to the serial
:func:`repro.codecs.pipeline.compress_matrix` /
:meth:`~repro.codecs.pipeline.MatrixCompression.decompress_block` code:
workers run the same pure functions on the same inputs in the same order.
"""

from __future__ import annotations

import hashlib
import itertools
import signal
import threading
import time
import weakref
from collections import OrderedDict, deque
from collections.abc import Iterator
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    CancelledError,
    Future,
    ProcessPoolExecutor,
    wait,
)
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro import faults, kernels, obs
from repro.codecs.errors import BlockDecodeError, CodecError
from repro.codecs.huffman import HuffmanTable
from repro.codecs.pipeline import (
    BlockRecord,
    MatrixCompression,
    _finish_record,
    _record_plan_metrics,
    block_streams,
    decode_record,
    sampled_tables,
    snappy_encode_streams,
)
from repro.sparse.blocked import CSRBlock, UDP_BLOCK_BYTES, partition_csr
from repro.sparse.csr import CSRMatrix
from repro.util.rng import derive_seed, seeded_rng

#: Blocks per pool task; one task then carries ~256 KB of 8 KB-block work,
#: which keeps pickling overhead well under the codec cost.
DEFAULT_CHUNK_BLOCKS = 32

#: Default decoded-block cache budget (raw CSR payload bytes).
DEFAULT_CACHE_BYTES = 256 << 20

#: Default bound on chunk tasks in flight for :meth:`RecodeEngine.decode_blocks_async`.
DEFAULT_PREFETCH_CHUNKS = 4


# ---------------------------------------------------------------------------
# Plan fingerprinting (the ``plan_hash`` component of cache keys)
# ---------------------------------------------------------------------------

_fingerprints: dict[int, str] = {}


def plan_fingerprint(plan: MatrixCompression) -> str:
    """Stable content hash of a compression plan.

    Covers the scheme flags, block budget, and every record's header and
    payload, so two plans share a fingerprint iff their compressed form is
    byte-identical. Memoized per plan object (plans are frozen).
    """
    key = id(plan)
    cached = _fingerprints.get(key)
    if cached is not None:
        return cached
    h = hashlib.blake2b(digest_size=16)
    h.update(
        b"%d:%d:%d:%d:" % (plan.use_delta, plan.use_huffman, plan.block_bytes, plan.nblocks)
    )
    for rec in (*plan.index_records, *plan.value_records):
        h.update(b"%d:%d:%d:" % (rec.orig_len, rec.snappy_len, rec.bit_len))
        if rec.tag is not None:
            h.update(b"t%d:" % rec.tag)
        h.update(rec.payload)
    digest = h.hexdigest()
    _fingerprints[key] = digest
    weakref.finalize(plan, _fingerprints.pop, key, None)
    return digest


# ---------------------------------------------------------------------------
# Decoded-block LRU cache
# ---------------------------------------------------------------------------


@dataclass
class CacheStats:
    """Counters for one :class:`DecodedBlockCache`.

    Plain ints on purpose: cache probes run once per block, so they stay
    lock-free-cheap here and are published to the metrics registry by a
    snapshot-time collector (``codecs.cache.*`` gauges) instead of paying
    a registry op per probe.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    current_bytes: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


_cache_ids = itertools.count()


def _register_cache_collector(reg: obs.MetricsRegistry, cache: "DecodedBlockCache") -> None:
    """Publish a cache's counters into ``reg`` at every snapshot.

    Holds only a weakref: when the cache is collected the callback
    deregisters itself (by returning False) and the last published values
    remain in the registry as the cache's final state.
    """
    ref = weakref.ref(cache)
    label = cache.cache_id

    def collect(registry: obs.MetricsRegistry):
        c = ref()
        if c is None:
            return False
        st = c.stats
        registry.gauge("codecs.cache.hits", cache=label).set(st.hits)
        registry.gauge("codecs.cache.misses", cache=label).set(st.misses)
        registry.gauge("codecs.cache.evictions", cache=label).set(st.evictions)
        registry.gauge("codecs.cache.bytes", cache=label).set(st.current_bytes)
        registry.gauge("codecs.cache.entries", cache=label).set(len(c))
        return None

    reg.register_collector(collect)


class DecodedBlockCache:
    """Bounded LRU over decoded blocks, keyed ``(matrix_id, block_id,
    plan_hash)``.

    The budget counts raw CSR payload bytes (12 B/nnz), i.e. what the
    blocks would occupy decompressed in UDP scratchpads. Thread-safe: the
    engine's decode pool may probe it concurrently.
    """

    def __init__(self, max_bytes: int = DEFAULT_CACHE_BYTES, max_blocks: int | None = None):
        if max_bytes <= 0:
            raise ValueError(f"max_bytes must be positive, got {max_bytes}")
        if max_blocks is not None and max_blocks <= 0:
            raise ValueError(f"max_blocks must be positive, got {max_blocks}")
        self.max_bytes = max_bytes
        self.max_blocks = max_blocks
        self.stats = CacheStats()
        self.cache_id = f"c{next(_cache_ids)}"
        self._lock = threading.Lock()
        self._entries: OrderedDict[tuple, tuple[CSRBlock, int]] = OrderedDict()
        _register_cache_collector(obs.registry(), self)

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: tuple) -> CSRBlock | None:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return entry[0]

    def put(self, key: tuple, block: CSRBlock) -> None:
        nbytes = 12 * block.nnz
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self.stats.current_bytes -= old[1]
            self._entries[key] = (block, nbytes)
            self.stats.current_bytes += nbytes
            while self._entries and (
                self.stats.current_bytes > self.max_bytes
                or (self.max_blocks is not None and len(self._entries) > self.max_blocks)
            ):
                _, (_, evicted_bytes) = self._entries.popitem(last=False)
                self.stats.current_bytes -= evicted_bytes
                self.stats.evictions += 1

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.stats.current_bytes = 0


# ---------------------------------------------------------------------------
# Pool worker functions (module-level so they pickle)
# ---------------------------------------------------------------------------


def _snappy_chunk(streams: list[bytes]) -> list[bytes]:
    return snappy_encode_streams(streams)


def _finish_chunk(
    args: tuple[list[int], list[bytes], HuffmanTable | None, bool]
) -> list[BlockRecord]:
    raw_lens, snapped, table, use_huffman = args
    return [
        _finish_record(raw_len, snap, table, use_huffman)
        for raw_len, snap in zip(raw_lens, snapped)
    ]


def _decode_chunk(args: tuple) -> list[tuple[bytes, bytes]]:
    """The one chunk-decode worker: one pool task per chunk of blocks.

    Decodes each block's index and value records (a block is only useful
    once both streams are back). When a :class:`~repro.faults.FaultPlan`
    with worker faults rides along, its armed worker-site faults (latency,
    injected exception, worker kill) fire before each record.
    """
    (block_ids, idx_records, val_records, index_table, value_table,
     use_huffman, use_delta, fault_plan, allow_kill) = args
    out = []
    with obs.trace("codecs.engine.decode", blocks=len(block_ids)):
        for bid, irec, vrec in zip(block_ids, idx_records, val_records):
            if fault_plan is not None:
                fault_plan.fire_worker_faults(bid, allow_kill)
            idx = decode_record(irec, index_table, use_huffman=use_huffman,
                                apply_delta=use_delta)
            if fault_plan is not None:
                fault_plan.fire_worker_faults(bid, allow_kill)
            val = decode_record(vrec, value_table, use_huffman=use_huffman,
                                apply_delta=False)
            out.append((idx, val))
    return out


@dataclass(frozen=True)
class BlockFailure:
    """One block the engine could not decode, after retries.

    ``error`` is always a :class:`~repro.codecs.errors.BlockDecodeError`
    carrying the block id; its ``__cause__`` is the underlying codec
    failure from the final attempt.
    """

    block_id: int
    attempts: int
    error: BlockDecodeError


def _pool_warmup(_i: int) -> None:
    return None


def _process_worker_init() -> None:
    """Let a broken pool's teardown SIGTERM its workers: a handler
    inherited from the parent (the CLI's) would keep one blocked writing
    a large result alive, and the teardown would wait on it forever."""
    signal.signal(signal.SIGTERM, signal.SIG_DFL)


def _shutdown_pool(pool) -> None:
    pool.shutdown(wait=False, cancel_futures=True)


def _run_isolated(args: tuple) -> tuple:
    """Pool-worker shim: run one chunk under a fresh per-worker registry
    (and tracer, when the parent is tracing), pinned to the parent's
    kernel backend — a CLI/set_backend selection is process-local state a
    spawned worker would not otherwise see — and ship the captured
    telemetry back with the result for merge-on-join."""
    fn, task, tracing, kernel_backend = args
    reg = obs.MetricsRegistry()
    worker_tracer = obs.Tracer(enabled=tracing)
    with obs.scoped_registry(reg), obs.scoped_tracer(worker_tracer):
        with kernels.use_backend(kernel_backend):
            result = fn(task)
    return result, reg.snapshot(), worker_tracer.events()


def _submit(pool, fn, task) -> Future:
    """Submit one task; without a pool (``workers=0``) it runs inline, so
    the serial fallback drives the same loop. Pool tasks record into
    per-worker registries (and tracers) that :func:`_collect` merges
    back, so parallel runs report the same counter totals as serial."""
    if pool is None:
        fut: Future = Future()
        try:
            fut.set_result(fn(task))
        except Exception as exc:
            fut.set_exception(exc)
        return fut
    return pool.submit(
        _run_isolated, (fn, task, obs.tracing_enabled(), kernels.backend())
    )


def _collect(fut: Future, pool):
    """A submitted task's result (raising its exception)."""
    res = fut.result()
    if pool is None:
        return res
    result, snapshot, events = res
    obs.registry().merge_snapshot(snapshot)
    if events:
        obs.tracer().add_events(events)
    return result


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------


_engine_ids = itertools.count()

#: Registry counter suffixes backing one :class:`EngineStats` view.
_ENGINE_COUNTERS = (
    "blocks_encoded",
    "blocks_decoded",
    "cache_hits",
    "cache_misses",
    "bytes_decoded",
    "encode_seconds",
    "decode_seconds",
    "pool_startup_seconds",
)


class EngineStats:
    """Cumulative per-engine tallies mirrored into ``codecs.engine.*``.

    The former bespoke dataclass fields survive as read-only attributes,
    so existing callers (``stats.blocks_decoded``, ``as_dict()``) keep
    working. The authoritative numbers are plain in-object totals that
    only :meth:`reset` can zero — an engine outliving a
    ``obs.scoped_registry()`` block (the serve and ablation per-request
    pattern) keeps its lifetime tallies, which is what session-scoped
    steady-state hit rates are computed from. Each :meth:`add` also
    increments the counter of whatever registry is active *at add time*,
    so scoped snapshots see exactly the work done inside their scope.

    ``decode_seconds`` covers the map phase plus cache probing only; pool
    spin-up (process fork/exec) is accounted separately in
    ``pool_startup_seconds`` so cold-start MB/s is not understated.
    """

    def __init__(self, workers: int = 0, engine_label: str = "",
                 registry: obs.MetricsRegistry | None = None):
        reg = registry if registry is not None else obs.registry()
        self.workers = workers
        self.engine_label = engine_label
        self._labels = {"engine": engine_label} if engine_label else {}
        self._lock = threading.Lock()
        self._totals = dict.fromkeys(_ENGINE_COUNTERS, 0.0)
        # Counters of the active registry, looked up once per registry: a
        # lookup costs more than the increment, and adds run once per block.
        labels = self._labels
        self._counters = obs.BoundInstruments(
            lambda r, name: r.counter(f"codecs.engine.{name}", **labels)
        )
        # Pre-create the counters so every name is present (value 0) in
        # the construction-time registry even before any work lands —
        # conformance suites compare metric-name sets across configs.
        for name in _ENGINE_COUNTERS:
            reg.counter(f"codecs.engine.{name}", **self._labels)
        reg.gauge("codecs.engine.workers", **self._labels).set(workers)

    def add(self, name: str, amount: float) -> None:
        if not amount:
            return  # skip the lock on no-op adds (all-hit decode passes)
        with self._lock:
            self._totals[name] += amount
        self._counters[name].inc(amount)

    def __getattr__(self, name: str):
        # The lifetime totals, read-only: counts as ints, *_seconds as floats.
        if name in _ENGINE_COUNTERS:
            total = self._totals[name]
            return total if name.endswith("_seconds") else int(total)
        raise AttributeError(name)

    @property
    def decode_mb_per_s(self) -> float:
        """Raw (decoded) MB/s over the engine's decode calls, cache
        included — the software counterpart of Fig. 12's GB/s axis.
        Excludes one-time pool spin-up (see ``pool_startup_seconds``)."""
        if self.decode_seconds <= 0:
            return 0.0
        return self.bytes_decoded / self.decode_seconds / 1e6

    def reset(self) -> None:
        with self._lock:
            self._totals = dict.fromkeys(_ENGINE_COUNTERS, 0.0)
        reg = obs.registry()
        for name in _ENGINE_COUNTERS:
            reg.counter(f"codecs.engine.{name}", **self._labels).reset()

    def as_dict(self) -> dict[str, float]:
        return {
            "workers": self.workers,
            **{name: getattr(self, name) for name in _ENGINE_COUNTERS},
            "decode_mb_per_s": self.decode_mb_per_s,
        }


@dataclass
class RecodeEngine:
    """Block-parallel encode/decode with an optional decoded-block cache.

    Attributes:
        workers: process-pool width (see the module docstring for why
            processes). ``0`` = serial fallback (no pool, no pickling;
            byte-identical results).
        chunk_blocks: blocks per pool task.
        cache: a :class:`DecodedBlockCache`, or ``None`` to decode cold
            every time.
        max_retries: extra serial decode attempts per failing block before
            it is quarantined (the first attempt is not a retry).
        retry_base_s: base delay of the exponential backoff between
            retries; attempt ``k`` sleeps ``retry_base_s * 2**(k-1)``
            scaled by a deterministic jitter in ``[0.5, 1.5)``. ``0``
            disables sleeping (tests).
    """

    workers: int = 0
    chunk_blocks: int = DEFAULT_CHUNK_BLOCKS
    cache: DecodedBlockCache | None = None
    max_retries: int = 2
    retry_base_s: float = 0.02
    stats: EngineStats = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.workers < 0:
            raise ValueError(f"workers must be >= 0, got {self.workers}")
        if self.chunk_blocks < 1:
            raise ValueError(f"chunk_blocks must be >= 1, got {self.chunk_blocks}")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.retry_base_s < 0:
            raise ValueError(f"retry_base_s must be >= 0, got {self.retry_base_s}")
        self.stats = EngineStats(
            workers=self.workers, engine_label=f"e{next(_engine_ids)}"
        )
        self._pool = None
        #: Blocks that exhausted their retries: ``(matrix_id, plan
        #: fingerprint, block_id)``. Memoized so steady-state loops skip
        #: known-bad blocks instead of re-failing them every iteration.
        self.quarantined: set[tuple[str, str, int]] = set()

    # -- pool plumbing -------------------------------------------------------

    def _ensure_pool(self):
        """Create (once) and reuse the process pool; spin-up cost is timed
        into ``pool_startup_seconds``, not the encode/decode timers."""
        if self._pool is None:
            start = time.perf_counter()
            pool = ProcessPoolExecutor(
                max_workers=self.workers, initializer=_process_worker_init
            )
            # Force worker spawn now so the map timers below measure
            # codec work, not fork/exec.
            list(pool.map(_pool_warmup, range(self.workers)))
            self._pool = pool
            weakref.finalize(self, _shutdown_pool, pool)
            self.stats.add("pool_startup_seconds", time.perf_counter() - start)
        return self._pool

    def close(self) -> None:
        """Shut the worker pool down (engines are also cleaned up on GC)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def _handle_pool_crash(self, fault_plan, missing: list[int]) -> None:
        """A worker died mid-chunk (BrokenExecutor). Tear the broken pool
        down so the next parallel call rebuilds it instead of hanging on a
        dead pool; the current call re-dispatches serially."""
        obs.registry().counter("faults.pool_rebuilds").inc()
        if fault_plan is not None and set(fault_plan.worker_kill_blocks) & set(missing):
            obs.registry().counter("faults.injected.worker_kills").inc()
        pool, self._pool = self._pool, None
        if pool is not None:
            try:
                pool.shutdown(wait=False, cancel_futures=True)
            except Exception:
                pass

    @contextmanager
    def _closing_on_error(self) -> Iterator[None]:
        """Never leak the worker pool when an exception escapes outside
        the context-manager path (finalizers only run at GC time)."""
        try:
            yield
        except BaseException:
            self.close()
            raise

    def __enter__(self) -> "RecodeEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _run_chunked(self, fn, tasks: list) -> list:
        """Apply ``fn`` to every task, in order, flattening list results."""
        pool = self._ensure_pool() if self.workers and len(tasks) > 1 else None
        futs = [_submit(pool, fn, t) for t in tasks]
        return [item for fut in futs for item in _collect(fut, pool)]

    @staticmethod
    def _chunks(items: list, size: int) -> list[list]:
        return [items[i : i + size] for i in range(0, len(items), size)]

    # -- encode --------------------------------------------------------------

    def encode_blocked(
        self,
        matrix: CSRMatrix,
        block_bytes: int = UDP_BLOCK_BYTES,
        use_delta: bool = True,
        use_huffman: bool = True,
        sample_frac: float = 0.4,
        seed: int = 0,
    ) -> MatrixCompression:
        """Compress ``matrix`` into a block plan, block-parallel.

        Byte-identical to :func:`repro.codecs.pipeline.compress_matrix`
        with the same arguments: the workers run the same deterministic
        stage functions, and chunk results are reassembled in block order.
        """
        if not 0.0 < sample_frac <= 1.0:
            raise ValueError(f"sample_frac must be in (0, 1], got {sample_frac}")
        with self._closing_on_error():
            if self.workers:
                # Spin the pool up (timed separately) before the encode timer.
                self._ensure_pool()
            start = time.perf_counter()
            with obs.trace("codecs.engine.encode", workers=self.workers, nnz=matrix.nnz):
                blocked = partition_csr(matrix, block_bytes=block_bytes)
                idx_streams, val_streams = block_streams(blocked, use_delta)

                # Stage 1 — Snappy over both streams, one flat task list.
                snapped = self._run_chunked(
                    _snappy_chunk, self._chunks(idx_streams + val_streams, self.chunk_blocks)
                )
                nb = blocked.nblocks
                idx_snapped, val_snapped = snapped[:nb], snapped[nb:]

                # Stage 2 — tables need a global sample, so they build in-process.
                index_table, value_table = sampled_tables(
                    idx_snapped, val_snapped, nb, sample_frac, seed, use_huffman
                )

                # Stage 3 — Huffman bit-packing (the dominant encode cost).
                cb = self.chunk_blocks
                tasks = [
                    ([len(s) for s in streams[i : i + cb]], snaps[i : i + cb],
                     table, use_huffman)
                    for streams, snaps, table in (
                        (idx_streams, idx_snapped, index_table),
                        (val_streams, val_snapped, value_table),
                    )
                    for i in range(0, nb, cb)
                ]
                finished = self._run_chunked(_finish_chunk, tasks)
                index_records, value_records = finished[:nb], finished[nb:]

                plan = MatrixCompression(
                    blocked=blocked,
                    index_records=tuple(index_records),
                    value_records=tuple(value_records),
                    index_table=index_table,
                    value_table=value_table,
                    use_delta=use_delta,
                    use_huffman=use_huffman,
                    block_bytes=block_bytes,
                )
            self.stats.add("blocks_encoded", nb)
            self.stats.add("encode_seconds", time.perf_counter() - start)
            _record_plan_metrics(plan)
            return plan

    # -- decode --------------------------------------------------------------

    def decode_blocked(
        self,
        plan: MatrixCompression,
        block_ids: list[int] | None = None,
        matrix_id: str = "",
    ) -> list[CSRBlock]:
        """Decode the given blocks (all, by default), cache-aware.

        Returns blocks in the requested order, identical to
        ``[plan.decompress_block(i) for i in block_ids]``. Strict: the
        first block that fails (after retries) raises its
        :class:`~repro.codecs.errors.BlockDecodeError`.
        """
        ids = list(range(plan.nblocks)) if block_ids is None else list(block_ids)
        blocks, failures = self.decode_resilient(plan, ids, matrix_id=matrix_id)
        if failures:
            raise failures[0].error
        return [blocks[i] for i in ids]

    def decode_resilient(
        self,
        plan: MatrixCompression,
        block_ids: list[int] | None = None,
        matrix_id: str = "",
    ) -> tuple[dict[int, CSRBlock], tuple[BlockFailure, ...]]:
        """Decode blocks with per-block error isolation.

        Returns ``(blocks, failures)``: every block that decoded (keyed by
        id) plus a :class:`BlockFailure` per block that could not, after
        ``max_retries`` serial retries with exponential backoff, in block
        order. Failed blocks are quarantined (skipped on subsequent calls
        for the same plan) and surface in the ``faults.*`` counters; the
        SpMV ``degrade`` policy substitutes them from the raw CSR
        partition.

        A pool worker dying mid-chunk (BrokenProcessPool) tears the pool
        down, re-dispatches every unfinished chunk serially, and lets the
        next parallel call rebuild a fresh pool.
        """
        ids = self._check_ids(plan, block_ids)
        blocks: dict[int, CSRBlock] = {}
        failures: list[BlockFailure] = []
        with self._closing_on_error():
            for i, res in AsyncDecode(self, plan, ids, matrix_id, max(1, len(ids))):
                if isinstance(res, BlockFailure):
                    failures.append(res)
                else:
                    blocks[i] = res
        return blocks, tuple(sorted(failures, key=lambda f: f.block_id))

    @staticmethod
    def _check_ids(plan: MatrixCompression, block_ids: list[int] | None) -> list[int]:
        ids = list(range(plan.nblocks)) if block_ids is None else list(block_ids)
        for i in ids:
            if not 0 <= i < plan.nblocks:
                raise ValueError(f"block id {i} out of range (nblocks={plan.nblocks})")
        return ids

    def _keep(self, plan: MatrixCompression, i: int, idx_bytes: bytes,
              val_bytes: bytes, matrix_id: str, fingerprint: str) -> CSRBlock:
        """Assemble a decoded block and cache it."""
        block = plan.assemble_block(i, idx_bytes, val_bytes)
        if self.cache is not None:
            self.cache.put((matrix_id, i, fingerprint), block)
        return block

    def _decode_isolated(
        self,
        plan: MatrixCompression,
        ids: list[int],
        task,
        matrix_id: str,
        fingerprint: str,
        jitter_seed: int,
    ) -> list[tuple[int, "CSRBlock | BlockFailure"]]:
        """Serial per-block re-dispatch after a chunk (or pool) failure.

        The pool (or a chunk in it) is suspect, so every block of the
        chunk decodes in-process through ``_decode_chunk(task([i], False))``
        (worker kills downgrade to exceptions): a block gets
        ``1 + max_retries`` attempts with exponential backoff +
        deterministic jitter, then is quarantined. Healthy blocks from a
        failed chunk decode fine here.
        """
        reg = obs.registry()
        fq = plan_fingerprint(plan)
        items: list = []
        for i in ids:
            last_exc: CodecError | None = None
            for attempt in range(1, self.max_retries + 2):
                try:
                    [(idx_bytes, val_bytes)] = _decode_chunk(task([i], False))
                except CodecError as exc:
                    last_exc = exc
                    if attempt <= self.max_retries:
                        reg.counter("faults.retries").inc()
                        if self.retry_base_s > 0:
                            jitter = seeded_rng(derive_seed(
                                jitter_seed, "retry-jitter", matrix_id, str(i),
                                str(attempt),
                            )).random()
                            time.sleep(
                                self.retry_base_s * (2 ** (attempt - 1))
                                * (0.5 + jitter)
                            )
                else:
                    items.append((i, self._keep(
                        plan, i, idx_bytes, val_bytes, matrix_id, fingerprint
                    )))
                    break
            else:
                self.quarantined.add((matrix_id, fq, i))
                reg.counter("faults.blocks_quarantined").inc()
                error = BlockDecodeError(
                    f"block {i} failed to decode after {attempt} attempts: "
                    f"{last_exc}",
                    block_id=i,
                )
                error.__cause__ = last_exc
                items.append((i, BlockFailure(i, attempt, error)))
        return items

    def decode_block(
        self, plan: MatrixCompression, i: int, matrix_id: str = ""
    ) -> CSRBlock:
        """Decode one block (cache-aware); the per-block SpMV hook."""
        return self.decode_blocked(plan, [i], matrix_id=matrix_id)[0]

    def decode_blocks_async(
        self,
        plan: MatrixCompression,
        block_ids: list[int] | None = None,
        matrix_id: str = "",
        max_inflight: int = DEFAULT_PREFETCH_CHUNKS,
    ) -> "AsyncDecode":
        """Submit block decodes without blocking on the whole batch.

        Returns an :class:`AsyncDecode` handle: iterate it to consume
        ``(block_id, CSRBlock | BlockFailure)`` pairs in *completion*
        order while up to ``max_inflight`` chunk tasks stay in flight in
        the worker pool. This is the paper's decode/compute overlap: the
        pool recodes block *i+1* (and beyond) while the consumer
        multiplies block *i*.

        The handle is the engine's one decode driver (cache probes,
        quarantine short-circuit, fault-plan record mutation, serial retry
        + quarantine fallback on chunk failure, ``codecs.engine.*``
        stats): :meth:`decode_resilient`, :meth:`decode_blocked` and
        :meth:`decode_block` drain it with every chunk in flight.
        """
        ids = self._check_ids(plan, block_ids)
        if max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {max_inflight}")
        return AsyncDecode(self, plan, ids, matrix_id, max_inflight)

    def reset_stats(self) -> None:
        self.stats.reset()


# ---------------------------------------------------------------------------
# Asynchronous decode handle
# ---------------------------------------------------------------------------


class AsyncDecode:
    """Handle over an in-flight asynchronous chunked block decode.

    Iterating yields ``(block_id, CSRBlock | BlockFailure)`` in
    completion order: cache hits and quarantined blocks immediately, then
    pool chunks as they finish, with at most ``max_inflight`` chunk tasks
    submitted at once (the pipeline's bounded prefetch depth). Consumers
    needing block order must reorder; the pipelined SpMV executor instead
    accumulates out of order under its row-disjointness merge rule.

    A chunk failure re-dispatches that chunk through the engine's serial
    per-block retry/quarantine path; a worker death (BrokenProcessPool)
    tears the pool down once and does the same for every unfinished
    chunk. ``workers=0`` engines run each chunk inline at submit time
    through the same loop. Stats
    (``cache_hits``/``cache_misses``/``blocks_decoded``/``bytes_decoded``
    /``decode_seconds``) are flushed to the engine when the iterator is
    exhausted, closed, or garbage-collected; ``decode_seconds`` counts
    only time spent inside the handle, not in the consumer.
    """

    def __init__(
        self,
        engine: RecodeEngine,
        plan: MatrixCompression,
        ids: list[int],
        matrix_id: str,
        max_inflight: int,
    ):
        self._engine = engine
        self._plan = plan
        self._ids = ids
        self._matrix_id = matrix_id
        self._max_inflight = max_inflight
        self._pending: dict = {}
        #: This handle's share of the engine stats, flushed when it ends.
        self._tally = dict.fromkeys(_ENGINE_COUNTERS, 0.0)
        if engine.workers:
            # Spin the pool up now so fork/exec cost lands in
            # pool_startup_seconds, never in decode_seconds.
            engine._ensure_pool()
        self._gen = self._timed()

    def __iter__(self) -> "AsyncDecode":
        return self

    def __next__(self):
        return next(self._gen)

    def close(self) -> None:
        """Stop consuming; in-flight pool tasks finish and are dropped."""
        self._gen.close()

    @property
    def inflight(self) -> int:
        """Chunk tasks submitted to the pool and not yet consumed."""
        return len(self._pending)

    @property
    def ready(self) -> int:
        """Chunk tasks finished in the pool but not yet consumed."""
        return sum(1 for f in self._pending if f.done())

    # -- internals -----------------------------------------------------------

    def _timed(self):
        """Drive :meth:`_produce`, charging only in-handle time to
        ``decode_seconds`` (the consumer multiplies between yields)."""
        gen = self._produce()
        try:
            while True:
                seg = time.perf_counter()
                item = next(gen, None)
                self._tally["decode_seconds"] += time.perf_counter() - seg
                if item is None:
                    return
                if isinstance(item[1], CSRBlock):
                    self._tally["bytes_decoded"] += 12 * item[1].nnz
                yield item
        finally:
            gen.close()
            for name, amount in self._tally.items():
                self._engine.stats.add(name, amount)

    def _produce(self):
        """The one decode driver: cache probes, the quarantine
        short-circuit, fault-plan record mutation, then chunks through the
        pool (or inline, for ``workers=0``) with chunk and pool failures
        routed to the engine's serial retry/quarantine path."""
        eng = self._engine
        plan = self._plan
        matrix_id = self._matrix_id
        fingerprint = plan_fingerprint(plan) if eng.cache is not None else ""

        missing: list[int] = []
        for i in self._ids:
            if eng.cache is not None:
                hit = eng.cache.get((matrix_id, i, fingerprint))
                if hit is not None:
                    self._tally["cache_hits"] += 1
                    yield i, hit
                    continue
                self._tally["cache_misses"] += 1
            missing.append(i)
        missing = sorted(set(missing))

        if eng.quarantined and missing:
            # Steady-state loops skip known-bad blocks instead of
            # re-failing them (and re-crashing workers) every iteration.
            fq = plan_fingerprint(plan)
            alive: list[int] = []
            for i in missing:
                if (matrix_id, fq, i) in eng.quarantined:
                    obs.registry().counter("faults.quarantine_hits").inc()
                    yield i, BlockFailure(
                        i, 0,
                        BlockDecodeError(f"block {i} is quarantined", block_id=i),
                    )
                else:
                    alive.append(i)
            missing = alive
        if not missing:
            return
        self._tally["blocks_decoded"] = len(missing)

        fault_plan = faults.active()
        if fault_plan is not None:
            # Corrupt the engine's *view* of the records once, up front;
            # retries then deterministically re-fail, which is the point.
            idx_recs = {
                i: fault_plan.mutate_record(plan.index_records[i], i, "index")
                for i in missing
            }
            val_recs = {
                i: fault_plan.mutate_record(plan.value_records[i], i, "value")
                for i in missing
            }
        else:
            idx_recs, val_recs = plan.index_records, plan.value_records
        worker_faults = fault_plan if fault_plan and fault_plan.wants_worker_faults else None
        jitter_seed = fault_plan.seed if fault_plan is not None else 0
        chunks = deque(eng._chunks(missing, eng.chunk_blocks))
        pool = eng._ensure_pool() if eng.workers else None
        # Kills are only real in the pool; inline (``workers=0``) they
        # downgrade to an in-band InjectedFault so the main process survives.
        allow_kill = pool is not None
        crashed = False

        def task(chunk_ids: list[int], allow_kill: bool) -> tuple:
            return (
                chunk_ids,
                [idx_recs[i] for i in chunk_ids],
                [val_recs[i] for i in chunk_ids],
                plan.index_table, plan.value_table,
                plan.use_huffman, plan.use_delta,
                worker_faults, allow_kill,
            )

        def isolated(chunk_ids: list[int]) -> list:
            return eng._decode_isolated(
                plan, chunk_ids, task, matrix_id, fingerprint, jitter_seed
            )

        while chunks or self._pending:
            while chunks and not crashed and len(self._pending) < self._max_inflight:
                chunk_ids = chunks.popleft()
                fut = _submit(pool, _decode_chunk, task(chunk_ids, allow_kill))
                self._pending[fut] = chunk_ids
            if crashed and chunks:
                # The pool is gone; never-submitted chunks decode serially.
                for item in isolated(chunks.popleft()):
                    yield item
                continue
            done, _ = wait(set(self._pending), return_when=FIRST_COMPLETED)
            for fut in [f for f in self._pending if f in done]:
                chunk_ids = self._pending.pop(fut)
                try:
                    res = _collect(fut, pool)
                except (BrokenExecutor, CancelledError):
                    if not crashed:
                        crashed = True
                        eng._handle_pool_crash(fault_plan, missing)
                    items = isolated(chunk_ids)
                except CodecError:
                    items = isolated(chunk_ids)
                else:
                    items = [
                        (i, eng._keep(plan, i, ib, vb, matrix_id, fingerprint))
                        for i, (ib, vb) in zip(chunk_ids, res)
                    ]
                for item in items:
                    yield item
