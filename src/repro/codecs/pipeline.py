"""Block-oriented Delta → Snappy → Huffman (DSH) compression plans.

This is the representation the heterogeneous system stores in DRAM: for
every 8 KB CSR block, the column-index stream and the value stream are
compressed independently (paper Fig. 7 issues separate ``recode`` calls for
``ccol_idx`` and ``cvalues``). Delta applies to the index stream only
(Section IV-B delta-encodes "the matrix indices"); Huffman tables are built
per matrix, per stream, from a deterministic sample of up to 40% of blocks.

The CPU baseline of Fig. 10 — plain Snappy on 32 KB blocks — is the same
machinery with ``use_delta=False, use_huffman=False, block_bytes=32768``.
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.codecs.base import Codec
from repro.codecs.delta import DeltaCodec, delta_decode
from repro.codecs.errors import CodecError, CorruptPayloadError, CorruptStreamError
from repro.codecs.huffman import HuffmanCodec, HuffmanTable
from repro.codecs.snappy import snappy_compress, snappy_decompress
from repro.sparse.blocked import BlockedCSR, CSRBlock, UDP_BLOCK_BYTES, partition_csr
from repro.sparse.csr import CSRMatrix
from repro.util.rng import derive_seed, seeded_rng

#: Per-record wire header: u32 orig_len, u32 snappy_len, u32 bit_len.
RECORD_HEADER_BYTES = 12
#: Serialized Huffman table: one length byte per symbol.
TABLE_BYTES = 256

#: Per-record codec-tag stage bits (mixed-plan containers). A record tag
#: is the OR of the stages its payload went through; ``TAG_MASK`` bounds
#: the valid range. ``tag=None`` means "untagged": the record follows the
#: plan-level ``use_delta``/``use_huffman`` flags (legacy behaviour).
STAGE_DELTA = 1
STAGE_SNAPPY = 2
STAGE_HUFFMAN = 4
TAG_MASK = STAGE_DELTA | STAGE_SNAPPY | STAGE_HUFFMAN


@dataclass(frozen=True)
class RecodePipeline:
    """An ordered chain of codecs applied left-to-right on encode."""

    stages: tuple[Codec, ...]
    name: str

    def encode(self, data: bytes) -> bytes:
        for stage in self.stages:
            data = stage.encode(data)
        return data

    def decode(self, data: bytes) -> bytes:
        for stage in reversed(self.stages):
            data = stage.decode(data)
        return data


def make_dsh_pipeline(table: HuffmanTable, use_delta: bool = True) -> RecodePipeline:
    """Construct a Delta→Snappy→Huffman pipeline with a concrete table."""
    from repro.codecs.snappy import SnappyCodec

    stages: list[Codec] = []
    if use_delta:
        stages.append(DeltaCodec())
    stages.append(SnappyCodec())
    stages.append(HuffmanCodec(table))
    return RecodePipeline(tuple(stages), "delta-snappy-huffman" if use_delta else "snappy-huffman")


#: Sentinel names usable in reports.
DSH_PIPELINE = "delta-snappy-huffman"
SNAPPY_ONLY = "snappy"


@dataclass(frozen=True)
class BlockRecord:
    """One compressed stream of one block.

    ``payload`` is the final stage's bytes. ``snappy_len`` is the length of
    the intermediate Snappy stream (what Huffman decoding must reproduce);
    with ``use_huffman=False`` the payload *is* the Snappy stream and
    ``bit_len`` is 0.

    ``payload_crc`` is an end-to-end CRC32 of ``payload`` stamped at encode
    (and recomputed under the container's record CRC at load), so any
    corruption of the stored bytes — a DRAM bit flip, a torn write, an
    injected fault — is *detected* at decode instead of probabilistically
    surfacing as a malformed stream. ``None`` (e.g. hand-built records)
    skips the check.

    ``tag`` is the per-record codec tag of mixed plans: an OR of
    ``STAGE_DELTA``/``STAGE_SNAPPY``/``STAGE_HUFFMAN`` naming exactly the
    stages this record's payload went through. A tagged record is
    self-describing — :func:`decode_record` follows the tag instead of the
    plan-level flags. ``None`` (the default) keeps legacy behaviour: the
    plan flags decide, and serialization is byte-identical to pre-tag
    containers. When snappy is skipped (``tag & STAGE_SNAPPY == 0``) the
    stored ``snappy_len`` equals ``orig_len`` — the "intermediate" stream
    *is* the raw (possibly delta'd) stream.
    """

    orig_len: int
    snappy_len: int
    bit_len: int
    payload: bytes
    payload_crc: int | None = None
    tag: int | None = None

    @property
    def stored_bytes(self) -> int:
        """Bytes this record occupies in DRAM, header included."""
        return RECORD_HEADER_BYTES + len(self.payload)


@dataclass(frozen=True)
class MatrixCompression:
    """A whole-matrix compression plan: per-block records + shared tables."""

    blocked: BlockedCSR
    index_records: tuple[BlockRecord, ...]
    value_records: tuple[BlockRecord, ...]
    index_table: HuffmanTable | None
    value_table: HuffmanTable | None
    use_delta: bool
    use_huffman: bool
    block_bytes: int

    # -- accounting ----------------------------------------------------------

    @property
    def nnz(self) -> int:
        return self.blocked.nnz

    @property
    def nblocks(self) -> int:
        return self.blocked.nblocks

    @property
    def compressed_bytes(self) -> int:
        """Total DRAM bytes of the compressed matrix (records + tables)."""
        total = sum(r.stored_bytes for r in self.index_records)
        total += sum(r.stored_bytes for r in self.value_records)
        if self.index_table is not None:
            total += TABLE_BYTES
        if self.value_table is not None:
            total += TABLE_BYTES
        return total

    @property
    def uncompressed_bytes(self) -> int:
        """Baseline CSR payload: 12 bytes per nnz."""
        return 12 * self.nnz

    @property
    def bytes_per_nnz(self) -> float:
        """The paper's headline compression metric."""
        if self.nnz == 0:
            return 0.0
        return self.compressed_bytes / self.nnz

    @property
    def compression_ratio(self) -> float:
        """uncompressed / compressed (>1 means the recoding won)."""
        if self.compressed_bytes == 0:
            return 1.0
        return self.uncompressed_bytes / self.compressed_bytes

    # -- decompression --------------------------------------------------------

    def decompress_block(
        self,
        i: int,
        index_record: BlockRecord | None = None,
        value_record: BlockRecord | None = None,
    ) -> CSRBlock:
        """Reconstruct block *i* (the functional model of the UDP's
        ``recode(DSH_unpack, ...)`` calls).

        ``index_record`` / ``value_record`` override the plan's stored
        records — the SpMV pipeline passes the DMA-streamed copies here so
        a DRAM-side fault hits exactly the bytes that moved.
        """
        irec = self.index_records[i] if index_record is None else index_record
        vrec = self.value_records[i] if value_record is None else value_record
        return self.assemble_block(
            i,
            decode_record(irec, self.index_table, use_huffman=self.use_huffman,
                          apply_delta=self.use_delta),
            decode_record(vrec, self.value_table, use_huffman=self.use_huffman,
                          apply_delta=False),
        )

    def assemble_block(self, i: int, idx_bytes: bytes, val_bytes: bytes) -> CSRBlock:
        """Block *i* from its decoded index and value streams (row
        structure from the plan's blocked partition)."""
        ref = self.blocked.blocks[i]
        return CSRBlock(
            row_start=ref.row_start,
            row_end=ref.row_end,
            row_ptr=ref.row_ptr,
            col_idx=np.frombuffer(idx_bytes, dtype="<i4"),
            val=np.frombuffer(val_bytes, dtype="<f8"),
            nnz_start=ref.nnz_start,
            leading_partial=ref.leading_partial,
        )

    def verify(self) -> bool:
        """Round-trip every block against the stored originals."""
        for i, ref in enumerate(self.blocked.blocks):
            got = self.decompress_block(i)
            if not np.array_equal(got.col_idx, ref.col_idx):
                return False
            if not np.array_equal(got.val, ref.val):
                return False
        return True


def decode_record(
    record: BlockRecord,
    table: HuffmanTable | None,
    *,
    use_huffman: bool,
    apply_delta: bool,
) -> bytes:
    """Decode one stream record back to its raw bytes.

    This is the single functional model of the UDP's per-record
    ``recode(DSH_unpack, ...)`` call; both the serial
    :meth:`MatrixCompression.decompress_block` path and the parallel
    :mod:`repro.codecs.engine` workers run exactly this function. The
    Huffman and Snappy stages route through :mod:`repro.kernels`, so the
    active backend (``REPRO_KERNEL_BACKEND`` / ``--kernel-backend``)
    applies here — with byte-identical output either way.

    A record carrying a codec ``tag`` overrides both keyword flags: the
    tag names exactly the stages to undo (mixed-plan containers), including
    skipping Snappy entirely for stored-raw payloads. ``tag=None`` keeps
    the legacy plan-level behaviour bit-for-bit.

    Raises:
        CorruptPayloadError: the payload no longer matches its end-to-end
            CRC (the bytes changed after encode).
        CodecError: any other malformed stream (truncation, bad codes, or
            a decoded length that disagrees with ``record.orig_len``).
    """
    if record.tag is not None:
        use_huffman = bool(record.tag & STAGE_HUFFMAN)
        apply_delta = bool(record.tag & STAGE_DELTA)
        use_snappy = bool(record.tag & STAGE_SNAPPY)
    else:
        use_snappy = True
    start = time.perf_counter()
    with obs.trace("codecs.decode_record", bytes_in=len(record.payload)):
        data = record.payload
        if record.payload_crc is not None and zlib.crc32(data) != record.payload_crc:
            raise CorruptPayloadError(
                f"record payload CRC mismatch (stored {record.payload_crc:#010x}, "
                f"payload is {len(data)} bytes)"
            )
        if use_huffman:
            if table is None:
                raise CodecError("huffman record without table")
            data = table.decode_bits(data, record.snappy_len)
        if use_snappy:
            # The record header bounds the output: a corrupt Snappy preamble
            # can never allocate beyond what the header promised.
            data = snappy_decompress(data, max_output=record.orig_len)
        if len(data) != record.orig_len:
            raise CorruptStreamError(
                f"decompressed {len(data)} bytes, expected {record.orig_len}"
            )
        if apply_delta:
            arr = delta_decode(np.frombuffer(data, dtype="<i4"))
            data = arr.astype("<i4").tobytes()
    reg = obs.registry()
    reg.counter("codecs.decode.records").inc()
    reg.counter("codecs.decode.bytes_in").inc(len(record.payload))
    reg.counter("codecs.decode.bytes_out").inc(len(data))
    if record.tag is not None:
        reg.counter("codec.mix.decode_records").inc()
        if not use_snappy:
            reg.counter("codec.mix.snappy_skipped").inc()
    if use_huffman:
        reg.counter("codecs.huffman.decode_records").inc()
    if apply_delta:
        reg.counter("codecs.delta.decode_records").inc()
    reg.histogram("codecs.decode.record_seconds").observe(time.perf_counter() - start)
    return data


def block_streams(
    blocked: BlockedCSR, use_delta: bool
) -> tuple[list[bytes], list[bytes]]:
    """Raw per-block codec inputs: (index streams, value streams).

    Delta is applied here (cheap numpy) so the expensive Snappy/Huffman
    stages see exactly the bytes they compress.
    """
    delta_codec = DeltaCodec()
    idx_streams: list[bytes] = []
    val_streams: list[bytes] = []
    for block in blocked.blocks:
        raw_idx = block.index_bytes()
        if use_delta:
            raw_idx = delta_codec.encode(raw_idx)
        idx_streams.append(raw_idx)
        val_streams.append(block.value_bytes())
    return idx_streams, val_streams


def snappy_encode_streams(streams: list[bytes]) -> list[bytes]:
    """Snappy-compress a batch of raw streams, with counters.

    The single Snappy entry point for both the serial
    :func:`compress_matrix` path and the parallel engine's chunk workers,
    so process-pool runs report the same ``codecs.snappy.*`` totals as
    serial runs.
    """
    start = time.perf_counter()
    with obs.trace("codecs.snappy.compress", streams=len(streams)):
        snapped = [snappy_compress(s) for s in streams]
    reg = obs.registry()
    reg.counter("codecs.snappy.compress_streams").inc(len(streams))
    reg.counter("codecs.snappy.bytes_in").inc(sum(len(s) for s in streams))
    reg.counter("codecs.snappy.bytes_out").inc(sum(len(s) for s in snapped))
    reg.counter("codecs.snappy.compress_seconds").inc(time.perf_counter() - start)
    return snapped


def sampled_tables(
    idx_snapped: list[bytes],
    val_snapped: list[bytes],
    nblocks: int,
    sample_frac: float,
    seed: int,
    use_huffman: bool,
) -> tuple[HuffmanTable | None, HuffmanTable | None]:
    """Per-stream Huffman tables from a deterministic block sample."""
    if not (use_huffman and nblocks):
        return None, None
    nsample = max(1, int(round(sample_frac * nblocks)))
    rng = seeded_rng(derive_seed(seed, "huffman-sample"))
    picks = rng.choice(nblocks, size=min(nsample, nblocks), replace=False)
    # Tables are built over what Huffman actually sees: Snappy output.
    with obs.trace("codecs.huffman.build_tables", sampled=len(picks)):
        index_table = HuffmanTable.from_samples(idx_snapped[i] for i in picks)
        value_table = HuffmanTable.from_samples(val_snapped[i] for i in picks)
    obs.registry().counter("codecs.huffman.tables_built").inc(2)
    return index_table, value_table


def _finish_record(
    raw_len: int, snapped: bytes, table: HuffmanTable | None, use_huffman: bool
) -> BlockRecord:
    start = time.perf_counter()
    if use_huffman:
        assert table is not None
        with obs.trace("codecs.huffman.encode", bytes_in=len(snapped)):
            payload, bit_len = table.encode_bits(snapped)
        record = BlockRecord(
            orig_len=raw_len,
            snappy_len=len(snapped),
            bit_len=bit_len,
            payload=payload,
            payload_crc=zlib.crc32(payload),
        )
        obs.registry().counter("codecs.huffman.encode_records").inc()
    else:
        record = BlockRecord(
            orig_len=raw_len, snappy_len=len(snapped), bit_len=0, payload=snapped,
            payload_crc=zlib.crc32(snapped),
        )
    reg = obs.registry()
    reg.counter("codecs.encode.records").inc()
    reg.counter("codecs.encode.bytes_raw").inc(raw_len)
    reg.counter("codecs.encode.bytes_snappy").inc(len(snapped))
    reg.counter("codecs.encode.bytes_payload").inc(len(record.payload))
    reg.histogram("codecs.encode.record_seconds").observe(time.perf_counter() - start)
    return record


def _record_plan_metrics(plan: MatrixCompression) -> None:
    """Plan-level accounting shared by the serial and engine encoders."""
    reg = obs.registry()
    reg.counter("codecs.pipeline.compress_calls").inc()
    reg.counter("codecs.pipeline.blocks").inc(plan.nblocks)
    reg.counter("codecs.pipeline.nnz").inc(plan.nnz)
    reg.counter("codecs.pipeline.compressed_bytes").inc(plan.compressed_bytes)
    reg.counter("codecs.pipeline.uncompressed_bytes").inc(plan.uncompressed_bytes)
    reg.gauge("codecs.pipeline.bytes_per_nnz").set(plan.bytes_per_nnz)


def compress_matrix(
    matrix: CSRMatrix,
    block_bytes: int = UDP_BLOCK_BYTES,
    use_delta: bool = True,
    use_huffman: bool = True,
    sample_frac: float = 0.4,
    seed: int = 0,
    workers: int = 0,
) -> MatrixCompression:
    """Compress a CSR matrix into a DSH (or Snappy-only) block plan.

    Args:
        matrix: the input matrix.
        block_bytes: payload budget per block (8 KB for the UDP, 32 KB for
            the CPU Snappy baseline).
        use_delta: delta-transform the index stream before Snappy.
        use_huffman: add the Huffman stage, with per-stream sampled tables.
        sample_frac: fraction of blocks sampled to build Huffman tables
            (paper: "up to 40%").
        seed: RNG seed for the block sample.
        workers: 0 encodes serially in-process; N > 0 fans block work over
            an N-worker :class:`repro.codecs.engine.RecodeEngine` pool.
            Output is byte-identical either way.

    Returns:
        A :class:`MatrixCompression` plan.
    """
    if workers:
        from repro.codecs.engine import RecodeEngine

        return RecodeEngine(workers=workers).encode_blocked(
            matrix,
            block_bytes=block_bytes,
            use_delta=use_delta,
            use_huffman=use_huffman,
            sample_frac=sample_frac,
            seed=seed,
        )
    if not 0.0 < sample_frac <= 1.0:
        raise ValueError(f"sample_frac must be in (0, 1], got {sample_frac}")
    with obs.trace("codecs.compress_matrix", nnz=matrix.nnz):
        blocked = partition_csr(matrix, block_bytes=block_bytes)
        idx_streams, val_streams = block_streams(blocked, use_delta)

        idx_snapped = snappy_encode_streams(idx_streams)
        val_snapped = snappy_encode_streams(val_streams)

        index_table, value_table = sampled_tables(
            idx_snapped, val_snapped, blocked.nblocks, sample_frac, seed, use_huffman
        )

        index_records = tuple(
            _finish_record(len(raw), snapped, index_table, use_huffman)
            for raw, snapped in zip(idx_streams, idx_snapped)
        )
        value_records = tuple(
            _finish_record(len(raw), snapped, value_table, use_huffman)
            for raw, snapped in zip(val_streams, val_snapped)
        )
        plan = MatrixCompression(
            blocked=blocked,
            index_records=index_records,
            value_records=value_records,
            index_table=index_table,
            value_table=value_table,
            use_delta=use_delta,
            use_huffman=use_huffman,
            block_bytes=block_bytes,
        )
    _record_plan_metrics(plan)
    return plan
