"""Compiled (``c``) kernel implementations, built with cffi on first use.

Two ops are compiled, the two that dominate a cold decode; every other op
is served by the next backend, ``numpy`` (see
:meth:`repro.kernels.registry.KernelRegistry.dispatch`):

* **Huffman decode** walks the stride-8 DFA that
  :func:`repro.kernels.np_kernels._compiled_dfa` compiles per table
  fingerprint, packed once into C-ready arrays (``next`` state, an info
  byte with the emission count and the dead flag, and the emitted
  symbols).
* **Snappy decompress** is a single-pass tag scan and copy loop into a
  preallocated buffer.

The C functions return only a status. On any non-OK status the wrapper
re-runs the :mod:`repro.kernels.ref` implementation, which raises the
canonical :mod:`repro.codecs.errors` type and message, so no error text
is written twice. Neither wrapper allocates from an untrusted length
alone: Snappy's buffer is at most ``min(preamble, max_output)`` and at
most the format's maximum expansion of the input, Huffman's output at
most 8 symbols per payload byte. A request past those bounds goes
straight to the reference, which raises.

**Build.** The extension is compiled in a subprocess on first use into a
per-user cache directory (``$XDG_CACHE_HOME/repro`` or
``~/.cache/repro``), keyed by a hash of the C source, the cffi version
and the interpreter's SOABI. The build runs in a temporary directory and
the library is installed with :func:`os.replace`, so pool workers, a
``repro serve`` subprocess and a test run can race on it safely. A
process probes at most once (:func:`available`); when cffi or a compiler
is missing, ``c`` is simply absent from
:func:`repro.kernels.available_backends`.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import subprocess
import sys
import sysconfig
import tempfile
import threading
from functools import lru_cache
from pathlib import Path

import numpy as np

from repro.kernels import np_kernels, ref
from repro.kernels.registry import REGISTRY, KernelUnavailable

_register = REGISTRY.register

#: The C source, installed next to this module.
SOURCE_PATH = Path(__file__).with_name("c_kernels.c")

#: Name of the compiled extension module.
_MODULE = "_repro_c_kernels"

#: Declarations cffi binds; they match the definitions in the C source.
_CDEF = """
int repro_huffman_decode(const uint16_t *next, const uint8_t *info,
                         const uint8_t *emit, const uint8_t *payload,
                         size_t nbytes, uint8_t *out, size_t out_len);
int64_t repro_snappy_length(const uint8_t *src, size_t n);
int repro_snappy_decompress(const uint8_t *src, size_t n, uint8_t *out,
                            size_t expected);
"""

#: Run by a fresh interpreter: compile the extension into a directory and
#: print the library's path. A subprocess keeps the compiler's output off
#: this process's stdout (which ``repro serve`` may be speaking on).
_BUILD_SCRIPT = """
import sys
from cffi import FFI
name, source_path, cdef, tmpdir = sys.argv[1:5]
ffi = FFI()
ffi.cdef(cdef)
with open(source_path, encoding="utf-8") as fh:
    ffi.set_source(name, fh.read(), extra_compile_args=["-O3"])
print(ffi.compile(tmpdir=tmpdir))
"""

#: Seconds a build may take before the backend is given up on.
_BUILD_TIMEOUT_S = 300

#: Snappy's largest output per input byte: a copy-2 element turns 3 input
#: bytes into 64 output bytes.
SNAPPY_MAX_EXPANSION = 22

#: A stride-8 DFA step emits at most 8 symbols (codes are >= 1 bit).
_HUFFMAN_MAX_EMIT = 8

#: The cffi array type every byte buffer is passed as.
_U8 = "uint8_t[]"

#: Info-byte flag of a transition that steps off the code trie.
_DFA_DEAD = 0x80

_probe_lock = threading.Lock()
_probed = False
_ffi = None
_lib = None
#: Why the last probe failed (``None`` after a successful one).
failure: str | None = None


# ---------------------------------------------------------------------------
# Build and load
# ---------------------------------------------------------------------------


def cache_dir() -> Path:
    """Where the compiled extension for this source and interpreter lives."""
    import cffi

    soabi = sysconfig.get_config_var("SOABI") or sys.implementation.cache_tag
    key = hashlib.sha256()
    for part in (SOURCE_PATH.read_bytes(), _CDEF.encode(), cffi.__version__.encode(),
                 soabi.encode()):
        key.update(part)
        key.update(b"\0")
    root = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache")
    return root / "repro" / f"c-kernels-{key.hexdigest()[:16]}"


def _library_path(directory: Path) -> Path:
    return directory / (_MODULE + (sysconfig.get_config_var("EXT_SUFFIX") or ".so"))


def _build(target: Path) -> None:
    """Compile the extension and install it at ``target`` atomically.

    Raises:
        RuntimeError: the compiler or cffi failed (the message says how).
    """
    target.parent.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=target.parent, prefix="build-") as tmp:
        proc = subprocess.run(
            [sys.executable, "-c", _BUILD_SCRIPT, _MODULE, str(SOURCE_PATH), _CDEF, tmp],
            capture_output=True, text=True, timeout=_BUILD_TIMEOUT_S, cwd=tmp,
        )
        if proc.returncode != 0:
            tail = (proc.stderr or proc.stdout).strip().splitlines()[-1:]
            raise RuntimeError(f"c kernel build failed: {' '.join(tail) or proc.returncode}")
        os.replace(proc.stdout.strip().splitlines()[-1], target)


def _load(path: Path):
    spec = importlib.util.spec_from_file_location(_MODULE, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.ffi, module.lib


def available() -> bool:
    """True when the compiled kernels are loaded; builds them on first use.

    Probes at most once per process: a failed build is not retried.
    """
    global _probed, _ffi, _lib, failure
    if _probed:
        return _lib is not None
    with _probe_lock:
        if not _probed:
            try:
                target = _library_path(cache_dir())
                if not target.exists():
                    _build(target)
                _ffi, _lib = _load(target)
                failure = None
            except Exception as exc:  # noqa: BLE001 - any failure means "absent"
                _ffi = _lib = None
                failure = f"{type(exc).__name__}: {exc}"
            _probed = True
    return _lib is not None


# ---------------------------------------------------------------------------
# Huffman decode
# ---------------------------------------------------------------------------


class _CTables:
    """C-ready stride-8 DFA arrays for one table, with cffi views of them."""

    __slots__ = ("arrays", "next", "info", "emit")

    def __init__(self, dfa) -> None:
        # Only the root and the states transitions lead to are ever
        # visited (a leaf resets to the root); keep just those rows,
        # renumbered with the root first, so the walk touches half the
        # memory of the full per-node tables.
        rows = np.unique(np.concatenate(([0], dfa.next_state.ravel())))
        renumber = np.zeros(len(dfa.next_state), dtype=np.uint16)
        renumber[rows] = np.arange(len(rows))
        nxt = renumber[dfa.next_state[rows]]
        info = (dfa.emit_n[rows].astype(np.uint8)
                | np.where(dfa.dead[rows], _DFA_DEAD, 0).astype(np.uint8))
        emit = np.ascontiguousarray(dfa.emit[rows])
        self.arrays = (nxt, info, emit)  # keep the buffers alive
        self.next = _ffi.from_buffer("uint16_t[]", nxt)
        self.info = _ffi.from_buffer(_U8, info)
        self.emit = _ffi.from_buffer(_U8, emit)


@lru_cache(maxsize=64)
def _tables_for(lengths_blob: bytes, codes_blob: bytes) -> _CTables | None:
    """Per-fingerprint C tables; ``None`` for a table the DFA cannot
    represent (the numpy kernel's rules, raised as KernelUnavailable)."""
    if not np_kernels._codes_fit(lengths_blob, codes_blob):
        return None
    try:
        return _CTables(np_kernels._compiled_dfa(lengths_blob, codes_blob))
    except KernelUnavailable:
        return None


#: ``(id(lengths), id(codes)) -> (lengths, codes, tables)`` for read-only
#: arrays, which cannot change under the cache. Holding the arrays keeps
#: their ids from being reused; a record decode then skips re-serialising
#: and hashing the table blobs.
_by_identity: dict[tuple[int, int], tuple] = {}
_IDENTITY_CAP = 64


def _tables(lengths: np.ndarray, codes: np.ndarray) -> _CTables:
    key = (id(lengths), id(codes))
    hit = _by_identity.get(key)
    if hit is not None:
        tables = hit[2]
    else:
        lengths_blob = np.ascontiguousarray(lengths, dtype=np.uint8).tobytes()
        codes_blob = np.ascontiguousarray(codes, dtype=np.uint64).tobytes()
        tables = _tables_for(lengths_blob, codes_blob)
        if not lengths.flags.writeable and not codes.flags.writeable:
            if len(_by_identity) >= _IDENTITY_CAP:
                _by_identity.clear()
            _by_identity[key] = (lengths, codes, tables)
    if tables is None:
        raise KernelUnavailable("table not representable as a DFA; reference semantics")
    return tables


@_register("huffman_decode", "c")
def huffman_decode(
    lengths: np.ndarray, codes: np.ndarray, payload: bytes, out_len: int
) -> bytes:
    tables = _tables(lengths, codes)
    if out_len <= 0:
        return b""
    nbytes = len(payload)
    if out_len > _HUFFMAN_MAX_EMIT * nbytes:
        return ref.huffman_decode(lengths, codes, payload, out_len)
    out = bytearray(out_len)
    status = _lib.repro_huffman_decode(
        tables.next, tables.info, tables.emit, _ffi.from_buffer(_U8, payload),
        nbytes, _ffi.from_buffer(_U8, out), out_len,
    )
    if status:
        return ref.huffman_decode(lengths, codes, payload, out_len)
    return bytes(out)


# ---------------------------------------------------------------------------
# Snappy decompress
# ---------------------------------------------------------------------------


@_register("snappy_decompress", "c")
def snappy_decompress(data: bytes, max_output: int | None = None) -> bytes:
    src = _ffi.from_buffer(_U8, data)
    n = len(data)
    expected = _lib.repro_snappy_length(src, n)
    if (
        expected < 0
        or (max_output is not None and expected > max_output)
        or expected > SNAPPY_MAX_EXPANSION * n
    ):
        return ref.snappy_decompress(data, max_output)
    out = bytearray(expected)
    if _lib.repro_snappy_decompress(src, n, _ffi.from_buffer(_U8, out), expected):
        return ref.snappy_decompress(data, max_output)
    return bytes(out)
