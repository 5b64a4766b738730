"""ExecutionSession: steady-state reuse must be invisible in the results.

The session's whole contract is "bit-identical to single-shot, cheaper
after the first call": warm fast-path SpMV/SpMM out of the decoded-block
cache, reused output buffers, a verified-once CRC memo for reader-backed
sessions, and cumulative engine counters that survive scoped metric
registries. Faulted/degraded runs must stay cold (honest per-iteration
traffic), and scrub must keep re-checking CRCs regardless of the memo.
"""

import hashlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import faults, obs
from repro.codecs import save_plan
from repro.codecs.container import ContainerReader
from repro.codecs.engine import DecodedBlockCache, RecodeEngine
from repro.codecs.pipeline import compress_matrix
from repro.codecs.stats import dsh_plan
from repro.collection import generators
from repro.core import ExecutionSession, recoded_spmm, recoded_spmv
from repro.faults import FaultPlan
from repro.sparse import CSRMatrix, layout
from repro.sparse.spmm import spmm_blocked
from repro.sparse.spmv import spmv_blocked


@pytest.fixture(scope="module")
def plan():
    return dsh_plan(generators.banded(1200, bandwidth=5, seed=3))


@pytest.fixture(scope="module")
def vectors(plan):
    rng = np.random.default_rng(5)
    x = rng.standard_normal(plan.blocked.shape[1])
    X = rng.standard_normal((plan.blocked.shape[1], 3))
    return x, X


@pytest.fixture(scope="module")
def reference(plan, vectors):
    x, X = vectors
    y, _ = recoded_spmv(plan, x)
    Y, _ = recoded_spmm(plan, X)
    return y.tobytes(), Y.tobytes()


class TestWarmPath:
    def test_warm_spmv_bit_identical_and_trafficless(self, plan, vectors, reference):
        x, _ = vectors
        with ExecutionSession(plan, matrix_id="warm") as sess:
            y1, s1 = sess.spmv(x)
            assert y1.tobytes() == reference[0]
            assert s1.dram_bytes > 0
            assert sess.warm
            y2, s2 = sess.spmv(x)
            assert y2.tobytes() == reference[0]
            # Steady state: no DRAM stream, no DMA charge, all blocks reused.
            assert s2.dram_bytes == 0
            assert s2.dma_seconds == 0.0
            assert sess.warm_calls == 1 and sess.cold_calls == 1
            assert sess.blocks_reused == plan.nblocks

    def test_spmm_goes_warm_off_spmv_populated_cache(self, plan, vectors, reference):
        x, X = vectors
        with ExecutionSession(plan, matrix_id="shared") as sess:
            sess.spmv(x)
            Y, stats = sess.spmm(X)
            assert Y.tobytes() == reference[1]
            assert stats.dram_bytes == 0  # cache shared across ops
            assert sess.warm_calls == 1

    def test_out_buffer_identity_reuse(self, plan, vectors):
        x, _ = vectors
        with ExecutionSession(plan) as sess:
            y1, _ = sess.spmv(x)
            y2, _ = sess.spmv(x)
            assert y2 is y1
            assert sess.out_reuses == 1

    def test_caller_out_buffer_respected(self, plan, vectors, reference):
        x, _ = vectors
        out = np.empty(plan.blocked.shape[0])
        with ExecutionSession(plan) as sess:
            sess.spmv(x)
            y, _ = sess.spmv(x, out=out)
            assert y is out
            assert out.tobytes() == reference[0]

    def test_fast_path_falls_back_after_external_cache_clear(
        self, plan, vectors, reference
    ):
        x, _ = vectors
        with ExecutionSession(plan, matrix_id="cleared") as sess:
            sess.spmv(x)
            assert sess.warm
            sess.engine.cache.clear()
            y, stats = sess.spmv(x)  # probe misses -> cold fallback
            assert y.tobytes() == reference[0]
            assert stats.dram_bytes > 0
            assert sess.cold_calls == 2 and sess.warm_calls == 0
            y, stats = sess.spmv(x)  # and the fallback re-warmed it
            assert stats.dram_bytes == 0


class TestColdPerCall:
    def test_reuse_false_never_warms(self, plan, vectors, reference):
        x, _ = vectors
        with ExecutionSession(plan, reuse=False) as sess:
            ys = [sess.spmv(x) for _ in range(3)]
            for y, stats in ys:
                assert y.tobytes() == reference[0]
                assert stats.dram_bytes > 0
            assert sess.cold_calls == 3 and sess.warm_calls == 0
            assert ys[0][0] is not ys[1][0]  # fresh buffers every call

    def test_reset_drops_warm_state(self, plan, vectors):
        x, _ = vectors
        with ExecutionSession(plan) as sess:
            sess.spmv(x)
            assert sess.warm
            sess.reset()
            assert not sess.warm
            _, stats = sess.spmv(x)
            assert stats.dram_bytes > 0


class TestFaultHonesty:
    def test_armed_fault_plan_disables_warm_path(self, plan, vectors, reference):
        """Chaos runs pay (and account) the full stream every iteration."""
        x, _ = vectors
        with ExecutionSession(plan, policy="degrade") as sess:
            sess.spmv(x)
            assert sess.warm
            with FaultPlan(seed=1).activate():
                assert not sess.warm
                for _ in range(2):
                    y, stats = sess.spmv(x)
                    assert y.tobytes() == reference[0]
                    assert stats.dram_bytes > 0
            assert faults.active() is None

    def test_degraded_run_does_not_warm(self, plan, vectors):
        x, _ = vectors
        chaos = FaultPlan(seed=9, bitflip_blocks=tuple(range(plan.nblocks)))
        with ExecutionSession(plan, policy="degrade") as sess:
            with chaos.activate():
                _, stats = sess.spmv(x)
                assert stats.degraded_blocks > 0
            # Every block degraded: nothing cached, session stays cold.
            assert not sess.warm


class TestReaderBacked:
    def test_crc_memo_skips_after_first_touch(self, tmp_path):
        # Enough blocks that the reader's 32-entry lazy-record LRU must
        # evict, so later accesses re-stream records instead of hitting
        # the in-memory objects — exactly where the memo pays.
        big = dsh_plan(generators.banded(4000, bandwidth=7, seed=3))
        x = np.random.default_rng(5).standard_normal(big.blocked.shape[1])
        y_ref, _ = recoded_spmv(big, x)
        path = tmp_path / "m.dsh"
        save_plan(big, path)
        with ExecutionSession(path, matrix_id="disk") as sess:
            assert sess.reader is not None
            y1, _ = sess.spmv(x)
            assert y1.tobytes() == y_ref.tobytes()
            # Construction materialized (and CRC-checked) every record
            # once; re-streams hit the memo instead of re-CRCing.
            assert sess.stats()["crc_skips"] > 0

    def test_scrub_still_rechecks_crcs(self, plan, tmp_path):
        path = tmp_path / "m.dsh"
        save_plan(plan, path)
        with ExecutionSession(path) as sess:
            for block_id in range(plan.nblocks):
                for stream in ("index", "value"):
                    _, crc_ok = sess.reader.record_health(block_id, stream)
                    assert crc_ok

    def test_reuse_false_leaves_memo_off(self, plan, vectors, tmp_path):
        x, _ = vectors
        path = tmp_path / "m.dsh"
        save_plan(plan, path)
        with ExecutionSession(path, reuse=False) as sess:
            sess.spmv(x)
            assert sess.stats()["crc_skips"] == 0

    def test_sharded_session_bit_identical_never_warm(
        self, plan, vectors, reference, tmp_path
    ):
        x, _ = vectors
        path = tmp_path / "m.dsh"
        save_plan(plan, path)
        with ExecutionSession(path, shards=2) as sess:
            assert sess.engine is None
            for _ in range(2):
                y, _ = sess.spmv(x)
                assert y.tobytes() == reference[0]
            assert sess.warm_calls == 0  # decode happens in shard workers


class TestLifecycle:
    def test_borrowed_engine_not_closed(self, plan, vectors):
        x, _ = vectors
        engine = RecodeEngine(workers=0, cache=DecodedBlockCache())
        try:
            with ExecutionSession(plan, engine=engine) as sess:
                sess.spmv(x)
            engine.decode_block(plan, 0, matrix_id="still-open")
        finally:
            engine.close()

    def test_closed_session_raises(self, plan, vectors):
        x, _ = vectors
        sess = ExecutionSession(plan)
        sess.close()
        with pytest.raises(RuntimeError, match="closed"):
            sess.spmv(x)

    def test_shards_reject_engine(self, plan, tmp_path):
        path = tmp_path / "m.dsh"
        save_plan(plan, path)
        engine = RecodeEngine(workers=0)
        try:
            with pytest.raises(ValueError, match="shards"):
                ExecutionSession(path, shards=2, engine=engine)
        finally:
            engine.close()

    def test_rejects_unknown_source_type(self):
        with pytest.raises(TypeError, match="plan must be"):
            ExecutionSession(42)


class TestObservability:
    def test_session_counters_published_to_active_registry(self, plan, vectors):
        x, _ = vectors
        with obs.scoped_registry() as reg:
            with ExecutionSession(plan) as sess:
                sess.spmv(x)
                sess.spmv(x)
            assert reg.value("session.calls") == 2
            assert reg.value("session.warm_calls") == 1
            assert reg.value("session.cold_calls") == 1
            assert reg.value("session.blocks_reused") == plan.nblocks

    def test_engine_stats_cumulative_across_scoped_registries(self, plan, vectors):
        """The satellite fix: EngineStats totals are engine-lifetime
        cumulative, not bound to whichever registry was active at
        construction time."""
        x, _ = vectors
        engine = RecodeEngine(workers=0, cache=DecodedBlockCache())
        try:
            with obs.scoped_registry():
                recoded_spmv(plan, x, engine=engine, matrix_id="a")
            assert engine.stats.blocks_decoded == plan.nblocks
            with obs.scoped_registry() as reg2:
                recoded_spmv(plan, x, engine=engine, matrix_id="a")
                # Fresh registry still gets this scope's increments (the
                # second run is served by the engine cache)...
                label = engine.stats.engine_label
                assert (
                    reg2.value("codecs.engine.cache_hits", engine=label)
                    == plan.nblocks
                )
            # ...while the engine's own totals keep accumulating.
            assert engine.stats.cache_hits == plan.nblocks
            assert engine.stats.blocks_decoded == plan.nblocks
        finally:
            engine.close()


# ---------------------------------------------------------------------------
# Warm-layout parity: the resident layout must reproduce the blocked kernels
# bit for bit, split rows across three or more blocks included.
# ---------------------------------------------------------------------------


def _sha(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


@st.composite
def _parity_cases(draw):
    """A random matrix with empty (and empty trailing) rows, long rows,
    stored and operand ``-0.0``s, a block budget and operands."""
    nrows = draw(st.integers(1, 24))
    ncols = draw(st.integers(1, 40))
    counts = draw(st.lists(
        st.one_of(st.just(0), st.integers(1, 4), st.integers(9, 40)),
        min_size=nrows, max_size=nrows,
    ))
    counts += [0] * draw(st.integers(0, 3))  # empty trailing rows
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cols = [np.sort(rng.choice(ncols, size=min(c, ncols), replace=False))
            for c in counts]
    row_ptr = np.concatenate([[0], np.cumsum([c.size for c in cols])])
    val = rng.standard_normal(int(row_ptr[-1]))
    val[rng.random(val.size) < draw(st.sampled_from([0.0, 0.3, 1.0]))] = -0.0
    m = CSRMatrix(
        (len(counts), ncols), row_ptr,
        np.concatenate(cols + [np.empty(0, dtype=np.int64)]), val,
    )
    block_bytes = draw(st.sampled_from([48, 60, 96, 240, 8192]))
    k = draw(st.integers(1, 4))
    x = rng.standard_normal(ncols)
    X = rng.standard_normal((ncols, k))
    x[rng.random(ncols) < 0.2] = -0.0
    X[rng.random((ncols, k)) < 0.2] = -0.0
    return m, block_bytes, x, X


class TestWarmLayoutParity:
    @settings(max_examples=60)
    @given(
        case=_parity_cases(),
        chunk_bytes=st.sampled_from([8, 96, 1024, layout.CHUNK_PRODUCT_BYTES]),
        reps=st.integers(1, 3),
    )
    def test_warm_calls_sha_identical_to_blocked_kernels(self, case, chunk_bytes, reps):
        m, block_bytes, x, X = case
        plan = compress_matrix(m, block_bytes=block_bytes)
        want_y = _sha(spmv_blocked(plan.blocked, x))
        want_Y = _sha(spmm_blocked(plan.blocked, X))
        nrows = plan.blocked.shape[0]
        # Small chunk bounds put chunk edges inside split rows.
        with mock.patch.object(layout, "CHUNK_PRODUCT_BYTES", chunk_bytes), \
                ExecutionSession(plan) as sess:
            y, _ = sess.spmv(x)
            assert _sha(y) == want_y
            for _ in range(reps):
                y, stats = sess.spmv(x)
                assert stats.dram_bytes == 0 and _sha(y) == want_y
                Y, stats = sess.spmm(X)
                assert stats.dram_bytes == 0 and _sha(Y) == want_Y
                out = np.full(nrows, np.nan)
                y, _ = sess.spmv(x, out=out)
                assert y is out and _sha(out) == want_y
                OUT = np.full((nrows, X.shape[1]), np.nan)
                Y, _ = sess.spmm(X, out=OUT)
                assert Y is OUT and _sha(OUT) == want_Y
            assert sess.cold_calls == 1 and sess.warm_calls == 4 * reps
            assert sess.stats()["layout_bytes"] >= 12 * plan.nnz

    def test_eviction_by_a_second_session_sends_the_first_cold(self, plan, vectors, reference):
        """Two sessions on one borrowed engine whose cache holds one plan:
        filling one evicts the other's blocks. The evicted session's next
        call runs cold, and the call after it is warm again."""
        x, _ = vectors
        engine = RecodeEngine(workers=0, cache=DecodedBlockCache(max_bytes=12 * plan.nnz))
        try:
            with ExecutionSession(plan, engine=engine, matrix_id="a") as a, \
                    ExecutionSession(plan, engine=engine, matrix_id="b") as b:
                a.spmv(x)
                _, stats = a.spmv(x)
                assert stats.dram_bytes == 0
                y, _ = b.spmv(x)  # decodes b's blocks, evicting a's
                assert y.tobytes() == reference[0]
                y, stats = a.spmv(x)
                assert stats.dram_bytes > 0 and y.tobytes() == reference[0]
                assert a.cold_calls == 2 and a.warm_calls == 1
                y, stats = a.spmv(x)
                assert stats.dram_bytes == 0 and y.tobytes() == reference[0]
                assert a.warm_calls == 2
        finally:
            engine.close()

    def test_serve_cache_evict_matrix_sends_the_session_cold(self, plan, vectors, reference):
        """The serve layer's cache counts its own removals too."""
        from repro.serve.session import SharedDecodedCache

        x, _ = vectors
        engine = RecodeEngine(workers=0, cache=SharedDecodedCache())
        try:
            with ExecutionSession(plan, engine=engine, matrix_id="m") as sess:
                sess.spmv(x)
                sess.spmv(x)
                assert engine.cache.evict_matrix("m") > 0
                y, stats = sess.spmv(x)
                assert stats.dram_bytes > 0 and y.tobytes() == reference[0]
                assert sess.cold_calls == 2 and sess.warm_calls == 1
        finally:
            engine.close()
