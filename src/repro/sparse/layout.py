"""The blocked kernels' segment arithmetic and the resident whole-plan layout.

:func:`segment_sums` is the one place the multiply is written: gather
``x`` at the column indices, scale by the values, and sum each row's
products with ``np.add.reduceat``. :func:`~repro.sparse.spmv.spmv_blocked`,
:func:`~repro.sparse.spmm.spmm_blocked`, the executors' per-block
``block_row_sums`` and :class:`ResidentLayout` all call it.

:class:`ResidentLayout` is what a warm
:class:`~repro.core.session.ExecutionSession` multiplies from. It holds
every block's ``col_idx`` and ``val`` concatenated — a second resident
decoded copy of the matrix, 12 B/nnz — plus each block's
:meth:`~repro.sparse.blocked.CSRBlock.row_segments`, offset into the
concatenation. One multiply is then a few whole-chunk
gather/multiply/``reduceat``/scatter steps instead of a Python loop over
blocks. Chunks are block-aligned and sized so the products temporary
stays under :data:`CHUNK_PRODUCT_BYTES`: one product array for a whole
plan falls out of cache and is slower than the per-block loop.

The result is bit-identical to the blocked kernels. A segment's sum
depends only on its own products, and block-aligned chunks keep every
segment boundary where the block put it. What remains is the order in
which a split row — one that spans two or more blocks — adds its
per-block partials: the blocked kernels add them in block order, one
block at a time. Inside a chunk, a row's first segment is scattered in
the chunk's main pass and its ``j``-th continuation in pass ``j``, so
each pass touches a row at most once and the passes replay block order.
(One fancy-indexed ``+=`` over all continuations would keep only the
last of a row's duplicate updates.)
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.sparse.blocked import CSRBlock
from repro.sparse.csr import INDEX_DTYPE, VALUE_DTYPE

#: Upper bound on one chunk's products temporary, ``nnz * k * 8`` bytes.
CHUNK_PRODUCT_BYTES = 256 * 1024


def segment_sums(
    val: np.ndarray,
    col_idx: np.ndarray,
    x: np.ndarray,
    seg_starts: np.ndarray,
    products: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Per-segment sums of ``val * x[col_idx]``.

    ``x`` is a vector (SpMV; one sum per segment) or an ``(ncols, k)``
    matrix (SpMM; one length-``k`` row per segment). Segment *s* runs from
    ``seg_starts[s]`` to the next start, the last one to the end.

    ``products`` and ``out`` are optional scratch arrays for the products
    and the sums, shaped like them; with them nothing is allocated. The
    gather into ``products`` wraps indices instead of checking them, so a
    caller passing it must have checked ``col_idx`` against ``x`` (as
    :class:`ResidentLayout` does): within ``[-ncols, ncols)`` both gathers
    read the same entries and the result bits are the same.
    """
    if products is None:
        products = x[col_idx]
    else:
        np.take(x, col_idx, axis=0, out=products, mode="wrap")
    np.multiply(val if x.ndim == 1 else val[:, None], products, out=products)
    return np.add.reduceat(products, seg_starts, axis=0, out=out)


def _target(rows: np.ndarray) -> "slice | np.ndarray":
    """A scatter target for sorted unique ``rows``: a slice when they are
    one contiguous range (the usual case: no empty rows), else the rows."""
    lo = int(rows[0])
    if int(rows[-1]) - lo + 1 == rows.size:
        return slice(lo, lo + rows.size)
    return rows


class _Chunk:
    """One block-aligned run of the layout.

    ``lo``/``hi`` bound its entries in the concatenation; ``starts`` are
    its segment starts relative to ``lo``. ``first`` selects the segments
    that are their row's first in the chunk (a full slice when all are)
    and ``target`` holds their rows; ``continued[j - 1]`` is
    ``(selection, rows)`` for the rows' ``j``-th continuations.
    """

    __slots__ = ("lo", "hi", "starts", "first", "target", "continued")

    def __init__(self, lo: int, hi: int, starts: np.ndarray, rows: np.ndarray):
        self.lo = lo
        self.hi = hi
        self.starts = starts - lo
        n = rows.size
        index = np.arange(n)
        # Rows are non-decreasing, so a row's segments are adjacent: a
        # segment's rank is its distance from the first of its run.
        new = np.ones(n, dtype=bool)
        new[1:] = rows[1:] != rows[:-1]
        rank = index - np.maximum.accumulate(np.where(new, index, 0))
        self.first = slice(None) if new.all() else np.flatnonzero(new)
        self.target = _target(rows[self.first])
        self.continued = tuple(
            (sel, rows[sel])
            for sel in (np.flatnonzero(rank == j) for j in range(1, int(rank.max()) + 1))
        )


class ResidentLayout:
    """A whole plan's decoded blocks as one multiply-ready layout.

    Built once from the blocks in plan order; :meth:`multiply` then serves
    every SpMV (1-D ``x``) and fused SpMM (2-D ``x``) over it. It keeps
    its chunk scratch between calls, so one layout serves one caller at a
    time (as an :class:`~repro.core.session.ExecutionSession`, whose
    result buffer is shared too, already does).

    Raises:
        ValueError: a column index that ``x[col_idx]`` would reject.
    """

    def __init__(self, blocks: Sequence[CSRBlock], ncols: int):
        nnz = np.array([b.nnz for b in blocks], dtype=np.int64)
        offsets = np.zeros(len(blocks) + 1, dtype=np.int64)
        np.cumsum(nnz, out=offsets[1:])
        self.col_idx = np.concatenate(
            [b.col_idx for b in blocks] or [np.empty(0, dtype=INDEX_DTYPE)]
        )
        if self.col_idx.size and not (
            -ncols <= self.col_idx.min() and self.col_idx.max() < ncols
        ):
            raise ValueError(f"column index out of range for {ncols} columns")
        self.val = np.concatenate(
            [b.val for b in blocks] or [np.empty(0, dtype=VALUE_DTYPE)]
        )
        rows, starts = [], []
        for b, offset in zip(blocks, offsets[:-1]):
            if b.nnz:
                block_rows, seg_starts = b.row_segments()
                rows.append(block_rows)
                starts.append(seg_starts + offset)
        self._rows = np.concatenate(rows or [np.empty(0, dtype=np.int64)])
        self._starts = np.concatenate(starts or [np.empty(0, dtype=np.int64)])
        self._block_ends = offsets[1:]
        self._runs: dict[tuple, tuple] = {}

    @property
    def nbytes(self) -> int:
        """Resident bytes: the 12 B/nnz copy, the segment tables, and each
        built chunk cut with its scratch."""
        arrays = [self.col_idx, self.val, self._rows, self._starts]
        for chunks, products, sums in self._runs.values():
            arrays += [products, sums]
            for c in chunks:
                arrays += [c.starts, c.first, c.target]
                arrays += [a for pair in c.continued for a in pair]
        return sum(a.nbytes for a in arrays if isinstance(a, np.ndarray))

    def _run_for(self, tail: tuple) -> tuple:
        """``(chunks, products, sums)`` for an operand of shape ``(ncols,) +
        tail``, built on first use: whole blocks, greedily, while the
        products stay under the bound, and scratch for the largest chunk."""
        run = self._runs.get(tail)
        if run is not None:
            return run
        budget = max(CHUNK_PRODUCT_BYTES // (8 * (tail[0] if tail else 1)), 1)
        ends = []
        lo = 0
        for prev, end in zip(self._block_ends[:-1], self._block_ends[1:]):
            if end - lo > budget and prev > lo:
                ends.append(int(prev))
                lo = int(prev)
        if self._block_ends.size:
            ends.append(int(self._block_ends[-1]))
        chunks = []
        lo = 0
        for hi in ends:
            s_lo, s_hi = np.searchsorted(self._starts, (lo, hi))
            if s_hi > s_lo:
                chunks.append(
                    _Chunk(lo, hi, self._starts[s_lo:s_hi], self._rows[s_lo:s_hi])
                )
            lo = hi
        products = np.empty((max((c.hi - c.lo for c in chunks), default=0),) + tail)
        sums = np.empty((max((c.starts.size for c in chunks), default=0),) + tail)
        run = self._runs[tail] = (tuple(chunks), products, sums)
        return run

    def multiply(self, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Accumulate ``A @ x`` into the zero-filled ``out`` and return it,
        bit-identical to :func:`~repro.sparse.spmv.spmv_blocked` (1-D ``x``)
        or :func:`~repro.sparse.spmm.spmm_blocked` (2-D ``x``)."""
        val, col_idx = self.val, self.col_idx
        chunks, products, sums = self._run_for(x.shape[1:])
        for chunk in chunks:
            lo, hi = chunk.lo, chunk.hi
            seg = segment_sums(
                val[lo:hi], col_idx[lo:hi], x, chunk.starts,
                products[: hi - lo], sums[: chunk.starts.size],
            )
            out[chunk.target] += seg[chunk.first]
            for sel, rows in chunk.continued:
                out[rows] += seg[sel]
        return out
