"""Sparse-matrix substrate: formats, kernels, blocking, and I/O.

This package implements the paper's Section II background from scratch:

* :class:`~repro.sparse.csr.CSRMatrix` — the Compressed Sparse Row format of
  Fig. 2 (``row_ptr`` / ``col_idx`` / ``val``), with 4-byte indices and
  8-byte double values (12 bytes per non-zero, the paper's baseline).
* :class:`~repro.sparse.coo.COOMatrix` — coordinate triplets, the
  interchange format used by generators and MatrixMarket I/O.
* :mod:`~repro.sparse.spmv` — reference and vectorized SpMV kernels.
* :mod:`~repro.sparse.blocked` — the block-CSR partitioner producing the
  8 KB blocks the UDP decompresses (and 32 KB blocks for CPU Snappy).
* :mod:`~repro.sparse.layout` — the blocked kernels' segment arithmetic and
  the resident whole-plan layout warm sessions multiply from.
* :mod:`~repro.sparse.mmio` — MatrixMarket (.mtx) reader/writer.
"""

from repro.sparse.blocked import BlockedCSR, CSRBlock, partition_csr
from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSRMatrix
from repro.sparse.mmio import read_matrix_market, write_matrix_market
from repro.sparse.reorder import bandwidth, permute_symmetric, rcm_permutation, rcm_reorder
from repro.sparse.spmm import spmm, spmm_blocked, spmm_speedup_model
from repro.sparse.spmv import spmv, spmv_blocked, spmv_reference

__all__ = [
    "CSRMatrix",
    "COOMatrix",
    "BlockedCSR",
    "CSRBlock",
    "partition_csr",
    "spmv",
    "spmv_blocked",
    "spmv_reference",
    "spmm",
    "spmm_blocked",
    "spmm_speedup_model",
    "bandwidth",
    "rcm_permutation",
    "rcm_reorder",
    "permute_symmetric",
    "read_matrix_market",
    "write_matrix_market",
]
