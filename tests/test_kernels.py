"""Differential tests for the kernel backend-dispatch layer.

The fast backends' contract (``numpy``, and ``c`` where it builds) is
*byte-identical output and identical :mod:`repro.codecs.errors`
behaviour* vs the ``python`` reference loops. These tests enforce it the
blunt way: run every op under every available backend on
Hypothesis-generated inputs — valid, corrupt, and degenerate — and demand
the outcomes (bytes or exception type + message) match exactly. Backend
selection (set_backend / env var / autodetect), serving an op from the
next backend, fallback on :class:`KernelUnavailable`, the observability
counters, a failed ``c`` build, and pool-worker backend inheritance are
covered alongside.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import kernels, obs
from repro.codecs.huffman import HuffmanTable
from repro.codecs.snappy import snappy_compress, snappy_decompress
from repro.codecs.varint import (
    read_varint,
    read_varints,
    write_varint,
    write_varints,
    zigzag_decode,
    zigzag_encode,
)

#: Every backend usable here, the reference first.
BACKENDS = tuple(reversed(kernels.available_backends()))

#: Ops the ``c`` backend compiles; the rest are served by ``numpy``.
C_OPS = ("huffman_decode", "snappy_decompress")

#: Ops the numpy backend must actually implement (no silent reference-only).
VECTORIZED_OPS = (
    "huffman_encode",
    "huffman_decode",
    "snappy_decompress",
    "varint_encode_batch",
    "varint_decode_batch",
    "zigzag_encode",
    "zigzag_decode",
)


needs_c = pytest.mark.skipif("c" not in BACKENDS, reason="c backend did not build here")


def _outcome(fn, *args, **kwargs):
    """Normalize a call to a comparable outcome: value or (type, message)."""
    try:
        return ("ok", fn(*args, **kwargs))
    except Exception as exc:  # noqa: BLE001 - parity includes the exact type
        return ("err", type(exc).__name__, str(exc))


def _under_backends(fn, *args, **kwargs):
    """The same call's outcome under each backend, keyed by backend name."""
    out = {}
    for backend in BACKENDS:
        with kernels.use_backend(backend):
            out[backend] = _outcome(fn, *args, **kwargs)
    return out


def _assert_parity(fn, *args, **kwargs):
    """Assert every backend produces the reference's outcome; return it."""
    res = _under_backends(fn, *args, **kwargs)
    for backend in BACKENDS:
        assert res[backend] == res["python"], (backend, res)
    return res["python"]


def _assert_parity_ok(fn, *args, **kwargs):
    """Like :func:`_assert_parity` but the call must succeed; returns the value."""
    outcome = _assert_parity(fn, *args, **kwargs)
    assert outcome[0] == "ok", outcome
    return outcome[1]


# ---------------------------------------------------------------------------
# Registry / backend selection
# ---------------------------------------------------------------------------


class TestBackendSelection:
    def test_every_op_has_reference_and_numpy_impls(self):
        ops = kernels.ops()
        has_c = "c" in kernels.available_backends()
        for op in VECTORIZED_OPS:
            assert op in ops
            expected = ("c",) if has_c and op in C_OPS else ()
            assert kernels.backends_for(op) == expected + ("numpy", "python"), op

    def test_set_backend_rejects_unknown_names(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            kernels.set_backend("fortran")

    def test_use_backend_scopes_and_restores(self):
        before = kernels.backend()
        with kernels.use_backend("python"):
            assert kernels.backend() == "python"
            with kernels.use_backend("numpy"):
                assert kernels.backend() == "numpy"
            assert kernels.backend() == "python"
        assert kernels.backend() == before

    def test_env_var_selects_backend_when_unpinned(self, monkeypatch):
        monkeypatch.setenv(kernels.KERNEL_BACKEND_ENV, "python")
        with kernels.use_backend(None):  # drop any pin for the duration
            assert kernels.backend() == "python"
        monkeypatch.setenv(kernels.KERNEL_BACKEND_ENV, "auto")
        with kernels.use_backend(None):
            assert kernels.backend() == kernels.REGISTRY.autodetect()

    def test_explicit_pin_beats_env_var(self, monkeypatch):
        monkeypatch.setenv(kernels.KERNEL_BACKEND_ENV, "python")
        with kernels.use_backend("numpy"):
            assert kernels.backend() == "numpy"

    def test_bad_env_var_falls_back_and_ticks_counter(self, monkeypatch):
        monkeypatch.setenv(kernels.KERNEL_BACKEND_ENV, "fortran")
        with obs.scoped_registry() as reg, kernels.use_backend(None):
            assert kernels.backend() == kernels.REGISTRY.autodetect()
            assert reg.value("kernels.bad_backend_env", value="fortran") == 1

    def test_dispatch_ticks_labelled_counter(self):
        with obs.scoped_registry() as reg, kernels.use_backend("numpy"):
            zigzag_encode(np.arange(4, dtype=np.int32))
            assert reg.value("kernels.dispatch", op="zigzag_encode", backend="numpy") == 1
            assert reg.value("kernels.fallback", op="zigzag_encode", backend="numpy") == 0

    @needs_c
    def test_c_serves_missing_ops_from_numpy_without_fallback(self):
        with obs.scoped_registry() as reg, kernels.use_backend("c"):
            zigzag_encode(np.arange(4, dtype=np.int32))
            snappy_decompress(snappy_compress(b"served by c"))
            assert reg.value("kernels.dispatch", op="zigzag_encode", backend="numpy") == 1
            assert reg.value("kernels.dispatch", op="snappy_decompress", backend="c") == 1
            assert reg.value("kernels.fallback", op="zigzag_encode", backend="c") == 0
            assert reg.value("kernels.fallback", op="zigzag_encode", backend="numpy") == 0


class TestFailedCBuild:
    """Without cffi or a compiler, ``c`` is simply absent: autodetect
    picks ``numpy``, pinning ``c`` is refused, and results are unchanged."""

    @pytest.fixture
    def no_compiler(self, monkeypatch, tmp_path):
        from repro.kernels import c_kernels

        def failing_build(target):
            c_kernels.builds_attempted += 1
            raise RuntimeError("c kernel build failed: no compiler")

        monkeypatch.setattr(c_kernels, "cache_dir", lambda: tmp_path / "c-kernels")
        monkeypatch.setattr(c_kernels, "_build", failing_build)
        monkeypatch.setattr(c_kernels, "builds_attempted", 0, raising=False)
        for name, value in (("_probed", False), ("_ffi", None), ("_lib", None),
                            ("failure", None)):
            monkeypatch.setattr(c_kernels, name, value)
        monkeypatch.setattr(kernels.REGISTRY, "_auto", None)
        monkeypatch.setattr(kernels.REGISTRY, "_selected", None)
        monkeypatch.delenv(kernels.KERNEL_BACKEND_ENV, raising=False)
        return c_kernels

    def test_autodetect_picks_numpy(self, no_compiler):
        assert kernels.REGISTRY.autodetect() == "numpy"
        assert kernels.available_backends() == ("numpy", "python")
        assert kernels.backends_for("huffman_decode") == ("numpy", "python")
        assert "no compiler" in no_compiler.failure
        assert no_compiler.builds_attempted == 1  # probed once per process

    def test_pinned_pool_worker_never_probes(self, no_compiler):
        from repro.codecs.engine import _run_isolated

        result, _snapshot, _events = _run_isolated(
            (lambda _task: kernels.backend(), None, False, "numpy")
        )
        assert result == "numpy"
        assert not no_compiler._probed

    def test_pinning_c_raises(self, no_compiler):
        with pytest.raises(ValueError, match="not available"):
            kernels.set_backend("c")

    def test_recoded_spmv_identical(self, no_compiler):
        import hashlib

        from repro.codecs.pipeline import compress_matrix
        from repro.collection import generators
        from repro.core import recoded_spmv
        from repro.sparse.spmv import spmv_blocked

        plan = compress_matrix(generators.banded(n=800, bandwidth=4, seed=3), block_bytes=4096)
        x = np.random.default_rng(3).standard_normal(plan.blocked.shape[1])
        with obs.scoped_registry() as reg:
            y, _stats = recoded_spmv(plan, x)
        assert kernels.backend() == "numpy"
        digest = hashlib.sha256(y.tobytes()).hexdigest()
        assert digest == hashlib.sha256(spmv_blocked(plan.blocked, x).tobytes()).hexdigest()
        assert reg.value("kernels.dispatch", op="huffman_decode", backend="numpy") > 0


# ---------------------------------------------------------------------------
# Huffman
# ---------------------------------------------------------------------------

data_blobs = st.binary(min_size=1, max_size=1024)


class TestHuffmanParity:
    @settings(max_examples=60, deadline=None)
    @given(data_blobs)
    def test_encode_decode_byte_identical(self, data):
        table = HuffmanTable.from_samples([data])
        payload, bit_len = _assert_parity_ok(table.encode_bits, data)
        assert _assert_parity_ok(table.decode_bits, payload, len(data)) == data
        assert bit_len == int(table.lengths[np.frombuffer(data, np.uint8)].sum())

    @settings(max_examples=60, deadline=None)
    @given(data_blobs, st.integers(0, 2**32), st.integers(1, 8))
    def test_corrupt_payload_error_parity(self, data, seed, nflips):
        """Bit flips / truncation must fail (or succeed) identically —
        including the exact CorruptStreamError message."""
        table = HuffmanTable.from_samples([data])
        with kernels.use_backend("python"):
            payload, _ = table.encode_bits(data)
        rng = np.random.default_rng(seed)
        buf = bytearray(payload)
        if buf and rng.integers(2):
            del buf[int(rng.integers(len(buf))):]  # truncate
        for _ in range(int(nflips)):
            if not buf:
                break
            buf[int(rng.integers(len(buf)))] ^= int(rng.integers(1, 256))
        outcome = _assert_parity(table.decode_bits, bytes(buf), len(data))
        if outcome[0] == "err":
            assert outcome[1] == "CorruptStreamError", outcome

    @settings(max_examples=40, deadline=None)
    @given(data_blobs, st.integers(1, 4096))
    def test_out_len_overrun_error_parity(self, data, extra):
        """Asking for more symbols than the stream holds must raise the
        same exhaustion error on both backends."""
        table = HuffmanTable.from_samples([data])
        with kernels.use_backend("python"):
            payload, _ = table.encode_bits(data)
        outcome = _assert_parity(table.decode_bits, payload, len(data) + extra)
        if outcome[0] == "err":
            assert outcome[1] == "CorruptStreamError", outcome

    def test_degenerate_single_symbol_table(self):
        data = b"\x07" * 300
        table = HuffmanTable.from_samples([data])
        payload, _bit_len = _assert_parity_ok(table.encode_bits, data)
        assert _assert_parity_ok(table.decode_bits, payload, len(data)) == data

    def test_non_kraft_table_falls_back_with_identical_bytes(self):
        """``from_lengths`` accepts wire tables the vectorized kernels
        cannot represent (overfull/colliding codes). Dispatch must fall
        back to the reference loops — ticking ``kernels.fallback`` — and
        still hand back the reference's exact bytes."""
        lengths = [1, 1, 1] + [0] * 253  # code 2 overflows length 1
        table = HuffmanTable.from_lengths(lengths)
        data = bytes([0, 1, 2, 1, 0, 2, 2, 1])
        with kernels.use_backend("python"):
            ref = _outcome(table.encode_bits, data)
        with obs.scoped_registry() as reg, kernels.use_backend("numpy"):
            vec = _outcome(table.encode_bits, data)
            assert reg.value("kernels.fallback", op="huffman_encode", backend="numpy") == 1
            # The fallback result is attributed to the backend that served it.
            assert reg.value("kernels.dispatch", op="huffman_encode", backend="python") == 1
            assert reg.value("kernels.dispatch", op="huffman_encode", backend="numpy") == 0
        assert vec == ref

    def test_decode_automaton_memoized_by_fingerprint(self):
        a = HuffmanTable.from_samples([b"memoize me"])
        b = HuffmanTable.from_lengths(a.lengths)  # same wire table, new object
        assert a.decode_automaton(stride=4) is a.decode_automaton(stride=4)
        assert a.decode_automaton(stride=4) is b.decode_automaton(stride=4)
        assert a.decode_automaton(stride=4) is not a.decode_automaton(stride=8)

    def test_canonical_codes_shared_across_rebuilds(self):
        a = HuffmanTable.from_samples([b"canonical cache"])
        b = HuffmanTable.deserialize(a.serialize())
        assert a.codes is b.codes  # one frozen array per distinct table
        assert not a.codes.flags.writeable

    @settings(max_examples=40, deadline=None)
    @given(data_blobs, st.integers(0, 8))
    def test_out_len_at_and_past_last_emission(self, data, extra):
        """``out_len`` ending exactly at the last symbol, or reaching into
        the padding bits past it: the padding may decode to symbols, and
        every backend must agree on how many."""
        table = HuffmanTable.from_samples([data])
        with kernels.use_backend("python"):
            payload, _ = table.encode_bits(data)
        outcome = _assert_parity(table.decode_bits, payload, len(data) + extra)
        if extra == 0:
            assert outcome == ("ok", data)

    @settings(max_examples=40, deadline=None)
    @given(data_blobs, st.integers(0, 2**32))
    def test_out_len_mid_stream(self, data, seed):
        table = HuffmanTable.from_samples([data])
        with kernels.use_backend("python"):
            payload, _ = table.encode_bits(data)
        out_len = int(np.random.default_rng(seed).integers(0, len(data) + 1))
        assert _assert_parity_ok(table.decode_bits, payload, out_len) == data[:out_len]

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(1, 8), min_size=1, max_size=40),
        st.binary(min_size=1, max_size=64),
        st.integers(1, 200),
    )
    def test_dead_dfa_path_parity(self, code_lengths, payload, out_len):
        """An incomplete (Kraft sum < 1) code leaves bit patterns no code
        starts with; the DFA marks them dead. Every backend must stop at
        the same symbol with the reference's error."""
        from repro.kernels import np_kernels

        code_lengths = sorted(code_lengths)
        while sum(2.0**-n for n in code_lengths) >= 1:
            code_lengths.pop()
        table = HuffmanTable.from_lengths(code_lengths + [0] * (256 - len(code_lengths)))
        dfa = np_kernels._compiled_dfa(table.lengths.tobytes(), table.codes.tobytes())
        assert dfa.has_dead
        outcome = _assert_parity(table.decode_bits, payload, out_len)
        if outcome[0] == "err":
            assert outcome[1] == "CorruptStreamError", outcome

    @needs_c
    def test_non_kraft_table_falls_back_from_c(self):
        table = HuffmanTable.from_lengths([1, 1, 1] + [0] * 253)
        payload = bytes([0b01010101, 0b00110011])
        with kernels.use_backend("python"):
            ref = _outcome(table.decode_bits, payload, 9)
        with obs.scoped_registry() as reg, kernels.use_backend("c"):
            assert _outcome(table.decode_bits, payload, 9) == ref
            assert reg.value("kernels.fallback", op="huffman_decode", backend="c") == 1
            assert reg.value("kernels.dispatch", op="huffman_decode", backend="python") == 1


# ---------------------------------------------------------------------------
# Snappy
# ---------------------------------------------------------------------------


def _snappy_stream(elements) -> tuple[bytes, bytes]:
    """Assemble a Snappy stream element by element; returns the stream
    and the bytes it decodes to. Copies before any output become literals."""
    body, out = bytearray(), bytearray()
    for kind, length, offset_seed, overlap, literal in elements:
        if kind == "literal" or not out:
            extra = length % 5  # 0 = length in the tag; 1-4 = tags 60-63
            if extra == 0 and len(literal) > 60:
                extra = 1
            if extra:
                body.append((59 + extra) << 2)
                body += (len(literal) - 1).to_bytes(extra, "little")
            else:
                body.append((len(literal) - 1) << 2)
            body += literal
            out += literal
            continue
        max_offset = {"copy1": 2047, "copy2": 65535, "copy4": 1 << 32}[kind]
        if kind == "copy1":
            length = 4 + length % 8
        span = min(len(out), length - 1) if overlap and length > 1 else len(out)
        offset = 1 + offset_seed % min(span, max_offset)
        if kind == "copy1":
            body += bytes([1 | (length - 4) << 2 | (offset >> 8) << 5, offset & 0xFF])
        else:
            tag = (2 if kind == "copy2" else 3) | (length - 1) << 2
            body += bytes([tag]) + offset.to_bytes(2 if kind == "copy2" else 4, "little")
        for _ in range(length):
            out.append(out[-offset])
    return write_varint(len(out)) + bytes(body), bytes(out)


snappy_elements = st.lists(
    st.tuples(
        st.sampled_from(["literal", "copy1", "copy2", "copy4"]),
        st.integers(1, 64),
        st.integers(0, 2**32),
        st.booleans(),
        st.binary(min_size=1, max_size=80),
    ),
    min_size=1,
    max_size=8,
)


class TestSnappyParity:
    @settings(max_examples=60, deadline=None)
    @given(st.binary(max_size=4096))
    def test_roundtrip_byte_identical(self, data):
        compressed = snappy_compress(data)
        assert _assert_parity_ok(snappy_decompress, compressed) == data

    @settings(max_examples=40, deadline=None)
    @given(st.binary(min_size=16, max_size=2048), st.integers(0, 2**32), st.integers(1, 6))
    def test_corrupt_stream_error_parity(self, data, seed, nflips):
        compressed = bytearray(snappy_compress(data))
        rng = np.random.default_rng(seed)
        if rng.integers(2):
            del compressed[int(rng.integers(1, len(compressed))):]
        for _ in range(int(nflips)):
            if not compressed:
                break
            compressed[int(rng.integers(len(compressed)))] ^= int(rng.integers(1, 256))
        outcome = _assert_parity(snappy_decompress, bytes(compressed))
        if outcome[0] == "err":
            assert outcome[1] == "CorruptStreamError", outcome

    @settings(max_examples=60, deadline=None)
    @given(st.binary(max_size=64))
    def test_garbage_stream_error_parity(self, blob):
        """Arbitrary bytes fed straight in: same accept/reject decision,
        same message, on both backends."""
        _assert_parity(snappy_decompress, blob)

    @settings(max_examples=30, deadline=None)
    @given(st.binary(min_size=1, max_size=512), st.integers(0, 600))
    def test_max_output_guard_parity(self, data, cap):
        compressed = snappy_compress(data)
        outcome = _assert_parity(snappy_decompress, compressed, cap)
        if cap >= len(data):
            assert outcome == ("ok", data)
        else:
            assert outcome[:2] == ("err", "CorruptStreamError"), outcome

    @settings(max_examples=60, deadline=None)
    @given(snappy_elements)
    def test_hand_built_streams_byte_identical(self, elements):
        """Every element form: overlapping copies (offset < length), long
        literals (tags 60-63), copy-1/2/4."""
        stream, expected = _snappy_stream(elements)
        assert _assert_parity_ok(snappy_decompress, stream) == expected

    @settings(max_examples=25, deadline=None)
    @given(snappy_elements)
    def test_truncation_at_every_offset(self, elements):
        stream, _expected = _snappy_stream(elements)
        for cut in range(len(stream)):
            outcome = _assert_parity(snappy_decompress, stream[:cut])
            assert outcome[:2] == ("err", "CorruptStreamError"), (cut, outcome)


# ---------------------------------------------------------------------------
# Varint / zigzag batches
# ---------------------------------------------------------------------------

varint_values = st.lists(
    st.one_of(
        st.integers(0, 127),  # 1-byte dense region
        st.integers(0, (1 << 32) - 1),  # full range
        st.sampled_from([0, 127, 128, (1 << 14) - 1, 1 << 14, (1 << 32) - 1]),
    ),
    max_size=64,
)


class TestVarintParity:
    @settings(max_examples=80, deadline=None)
    @given(varint_values)
    def test_encode_batch_matches_sequential(self, values):
        expected = b"".join(write_varint(v) for v in values)
        for backend in BACKENDS:
            with kernels.use_backend(backend):
                assert write_varints(values) == expected, backend

    @settings(max_examples=80, deadline=None)
    @given(varint_values, st.integers(0, 3))
    def test_decode_batch_matches_sequential(self, values, pad):
        blob = b"\x00" * pad + b"".join(write_varint(v) for v in values)
        for backend in BACKENDS:
            with kernels.use_backend(backend):
                out, end = read_varints(blob, len(values), offset=pad)
            assert out.dtype == np.uint32
            assert list(out) == values, backend
            assert end == len(blob), backend

    @settings(max_examples=120, deadline=None)
    @given(st.binary(max_size=24), st.integers(0, 6), st.integers(0, 2))
    def test_arbitrary_bytes_error_parity(self, blob, count, offset):
        """Fuzzed streams: the batch decode must agree with ``count``
        sequential ``read_varint`` calls — values, final offset, and the
        first fault's type and message."""

        def sequential():
            vals, pos = [], offset
            for _ in range(count):
                v, pos = read_varint(blob, pos)
                vals.append(v)
            return vals, pos

        ref = _outcome(sequential)
        for backend in BACKENDS:
            with kernels.use_backend(backend):
                got = _outcome(read_varints, blob, count, offset)
            if got[0] == "ok":
                values, end = got[1]
                got = ("ok", (list(values), end))
            assert got == ref, backend
        if ref[0] == "err":
            assert ref[1] == "CorruptStreamError", ref

    def test_encode_batch_rejects_bad_values_identically(self):
        for bad in ([3, -1, 5], [1, 1 << 32]):
            assert _assert_parity(write_varints, bad)[:2] == ("err", "ValueError")

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(-(2**31), 2**31 - 1), max_size=64))
    def test_zigzag_roundtrip_parity(self, values):
        arr = np.asarray(values, dtype=np.int32)
        encoded = {}
        for backend in BACKENDS:
            with kernels.use_backend(backend):
                enc = zigzag_encode(arr)
                assert enc.dtype == np.uint32
                np.testing.assert_array_equal(zigzag_decode(enc), arr)
                encoded[backend] = enc
        for backend in BACKENDS:
            np.testing.assert_array_equal(encoded[backend], encoded["python"])


# ---------------------------------------------------------------------------
# Engine: pool workers inherit the parent's backend
# ---------------------------------------------------------------------------


class TestEngineBackendInheritance:
    def test_worker_shim_pins_parent_backend(self):
        """The pool shim runs its task under the backend the parent
        resolved — the selection is process-local state a spawned worker
        would not otherwise see."""
        from repro.codecs.engine import _run_isolated

        for backend in BACKENDS:
            result, _snapshot, _events = _run_isolated(
                (lambda _task: [kernels.backend()], None, False, backend)
            )
            assert result == [backend]

    def test_process_pool_workers_dispatch_on_parent_backend(self):
        """End-to-end: pin the parent to the *non-default* reference
        backend, encode on a process pool, and check the merged worker
        telemetry shows every kernel dispatch ran on ``python``."""
        from repro.codecs.engine import RecodeEngine
        from repro.collection import generators

        matrix = generators.banded(n=600, bandwidth=4, seed=9)
        with obs.scoped_registry() as reg, kernels.use_backend("python"):
            with RecodeEngine(workers=2) as engine:
                plan = engine.encode_blocked(matrix)
        assert plan.nblocks >= 1
        dispatched = {
            key: rec["value"]
            for key, rec in reg.snapshot().items()
            if key.startswith("kernels.dispatch")
        }
        assert dispatched, "pool encode must record kernel dispatches"
        assert all("backend=python" in key for key in dispatched), dispatched
