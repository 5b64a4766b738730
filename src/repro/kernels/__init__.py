"""repro.kernels — compiled and vectorized codec kernels behind a backend dispatch.

The paper's premise is decompression at memory-bandwidth rate; the
from-scratch codec loops are the reference semantics, and this package
holds their fast paths. Three backends exist:

* ``c`` — Huffman decode (a stride-8 DFA walk) and Snappy decompress (a
  single-pass tag scan and copy loop) compiled with cffi on first use
  into a per-user cache. Absent when cffi or a compiler is missing.
* ``numpy`` — vectorized implementations of every op:
  table-driven Huffman encode (per-symbol gather + cumulative bit-offset
  packing), a stride-8 DFA Huffman decode run as an array automaton,
  a two-phase Snappy decompressor (tag scan, then slice-op
  materialization), and batch varint/zigzag codecs.
* ``python`` — the reference per-symbol/per-element loops (ground truth).

The fast backends give **byte-identical** output and the reference's
:mod:`repro.codecs.errors` type and message on corrupt input.

Usage::

    from repro import kernels
    kernels.dispatch("huffman_decode", lengths, codes, payload, out_len)

    with kernels.use_backend("python"):   # scoped override (tests, benches)
        ...

Selection: :func:`set_backend` > ``REPRO_KERNEL_BACKEND`` env var >
autodetect (``c`` when it builds, else ``numpy``). An op the selected
backend lacks is served by the next one in ``c``, ``numpy``, ``python``
order; landing on the reference from a faster selection, or a fast kernel
raising :class:`KernelUnavailable`, ticks ``kernels.fallback``. Every
dispatch ticks ``kernels.dispatch`` labelled by op and the backend that
served it. See docs/PERFORMANCE.md.
"""

from __future__ import annotations

from repro.kernels.registry import (
    KERNEL_BACKEND_ENV,
    KNOWN_BACKENDS,
    REFERENCE_BACKEND,
    REGISTRY,
    KernelUnavailable,
)

_backends_loaded = False


def _ensure_backends() -> None:
    """Import the backend modules exactly once, on first dispatch.

    Deferred so the codec modules (which the backends import for their
    reference loops) can themselves import :mod:`repro.kernels` at module
    level without a cycle.
    """
    global _backends_loaded
    if not _backends_loaded:
        _backends_loaded = True
        from repro.kernels import c_kernels, np_kernels, ref  # noqa: F401  (registration)


def dispatch(op: str, *args, **kwargs):
    """Run kernel ``op`` on the active backend (reference fallback)."""
    _ensure_backends()
    return REGISTRY.dispatch(op, *args, **kwargs)


def backend() -> str:
    """The backend dispatch would use right now."""
    return REGISTRY.resolve_backend()


def set_backend(name: str | None) -> None:
    """Pin the kernel backend process-wide (``None``/``"auto"`` unpins)."""
    REGISTRY.set_backend(name)


def use_backend(name: str | None):
    """Context manager: scoped backend override."""
    return REGISTRY.use_backend(name)


def available_backends() -> tuple[str, ...]:
    return REGISTRY.available_backends()


def ops() -> tuple[str, ...]:
    """All registered kernel op names."""
    _ensure_backends()
    return REGISTRY.ops()


def backends_for(op: str) -> tuple[str, ...]:
    _ensure_backends()
    return REGISTRY.backends_for(op)


__all__ = [
    "KERNEL_BACKEND_ENV",
    "KNOWN_BACKENDS",
    "REFERENCE_BACKEND",
    "REGISTRY",
    "KernelUnavailable",
    "available_backends",
    "backend",
    "backends_for",
    "dispatch",
    "ops",
    "set_backend",
    "use_backend",
]
