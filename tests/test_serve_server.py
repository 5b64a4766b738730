"""Integration layer for repro.serve: a real server on an ephemeral port.

The differential contract (ISSUE acceptance): a served result is
**bit-identical** to a direct ``recoded_spmv`` / ``recoded_spmm`` call —
across strict/degrade policies, serial and pipelined server executors
(both streaming the same mmap container), and fused batches (each fused
column vs its own direct run). On top of that: admission sheds honestly
(429 + reason + counters that reconcile), deadlines produce 408 instead
of hangs, and shutdown drains without orphaning work.
"""

import asyncio
import hashlib
import time

import numpy as np
import pytest

from repro.codecs.container import ContainerReader, save_plan
from repro.codecs.pipeline import compress_matrix
from repro.collection import generators
from repro.core import recoded_spmm, recoded_spmv
from repro.serve import ServeClient, ServeConfig, ServeError, ServerThread


def sha(y: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(y).tobytes()).hexdigest()


@pytest.fixture(scope="module")
def plan():
    m = generators.banded(600, bandwidth=5, seed=13)
    return compress_matrix(m, block_bytes=2048)


@pytest.fixture(scope="module")
def root(plan, tmp_path_factory):
    d = tmp_path_factory.mktemp("serve-root")
    save_plan(plan, d / "m.dsh")
    m2 = generators.unstructured(200, density=0.05, seed=14)
    save_plan(compress_matrix(m2, block_bytes=1024), d / "other.dsh")
    return str(d)


@pytest.fixture(scope="module")
def x(plan):
    return np.random.default_rng(21).standard_normal(plan.blocked.shape[1])


def run(coro):
    return asyncio.run(coro)


async def _one(port, op="spmv", tenant="t", **kw):
    async with ServeClient("127.0.0.1", port, tenant=tenant) as c:
        fn = c.spmv if op == "spmv" else c.spmm
        return await fn(*kw.pop("args"), **kw)


SERVER_VARIANTS = [
    pytest.param({"workers": 0, "mode": "serial"}, id="serial"),
    pytest.param(
        {"workers": 2, "mode": "pipelined", "depth": 3},
        id="pipelined",
    ),
]


class TestDifferentialParity:
    @pytest.fixture(scope="class", params=SERVER_VARIANTS)
    def server(self, request, root):
        config = ServeConfig(root=root, port=0, fusion_window_ms=2.0, **request.param)
        with ServerThread(config) as st:
            yield st.server

    def test_spmv_bit_identical_to_direct(self, server, plan, x):
        resp = run(_one(server.port, args=("m", x)))
        y_mem, _ = recoded_spmv(plan, x)
        assert sha(resp["y"]) == sha(y_mem)

    def test_spmv_matches_direct_mmap_source(self, server, root, x):
        resp = run(_one(server.port, args=("m", x)))
        with ContainerReader(f"{root}/m.dsh", verify="lazy") as reader:
            y_mmap, _ = recoded_spmv(reader, x)
        assert np.array_equal(resp["y"], y_mmap)

    def test_spmm_bit_identical(self, server, plan, x):
        X = np.stack([x, 2 * x, -x], axis=1)
        resp = run(_one(server.port, op="spmm", args=("m", X)))
        Y, _ = recoded_spmm(plan, X)
        assert resp["y"].shape == Y.shape
        assert np.array_equal(resp["y"], Y)

    def test_degrade_policy_no_faults_identical(self, server, plan, x):
        resp = run(_one(server.port, args=("m", x), policy="degrade"))
        y_mem, _ = recoded_spmv(plan, x, policy="degrade")
        assert resp["degraded_blocks"] == 0
        assert np.array_equal(resp["y"], y_mem)

    def test_fused_batch_columns_bit_identical(self, server, plan, x):
        async def burst():
            async with ServeClient("127.0.0.1", server.port, tenant="f") as c:
                return await asyncio.gather(*(c.spmv("m", (i + 1) * x) for i in range(5)))

        responses = run(burst())
        assert max(r["fused"] for r in responses) > 1, "no fusion happened"
        for i, r in enumerate(responses):
            y_direct, _ = recoded_spmv(plan, (i + 1) * x)
            assert np.array_equal(r["y"], y_direct), f"fused col {i} diverged"

    def test_response_metadata(self, server, x):
        resp = run(_one(server.port, args=("m", x)))
        assert resp["ok"] and resp["status"] == 200
        assert resp["policy"] == "strict"
        assert resp["queue_ms"] >= 0 and resp["compute_ms"] > 0


class TestErrorsAndValidation:
    @pytest.fixture(scope="class")
    def server(self, root):
        with ServerThread(ServeConfig(root=root, port=0)) as st:
            yield st.server

    def test_unknown_matrix_404(self, server, x):
        resp = run(_one(server.port, args=("nope", x), raise_on_error=False))
        assert resp["status"] == 404
        assert resp["error"]["type"] == "UnknownMatrix"
        assert "m" in resp["error"]["message"]

    def test_shape_mismatch_400(self, server):
        resp = run(_one(server.port, args=("m", np.ones(7)), raise_on_error=False))
        assert resp["status"] == 400
        assert resp["error"]["type"] == "ShapeMismatch"

    def test_serve_error_raises(self, server, x):
        with pytest.raises(ServeError, match="UnknownMatrix"):
            run(_one(server.port, args=("nope", x)))

    def test_bad_json_line_answered_not_dropped(self, server):
        async def go():
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            writer.write(b'{"op": "spmv", "id": "bad1"\n')
            await writer.drain()
            import json

            line = await reader.readline()
            writer.close()
            return json.loads(line)

        resp = run(go())
        assert resp["status"] == 400
        assert resp["error"]["type"] == "ProtocolError"

    def test_deadline_expired_before_dispatch_408(self, server, x):
        # A microscopic deadline cannot survive the fusion window; the
        # answer must be a prompt 408, never a hang.
        t0 = time.monotonic()
        resp = run(
            _one(server.port, args=("m", x), deadline_ms=0.01, raise_on_error=False)
        )
        assert resp["status"] == 408
        assert resp["error"]["type"] == "DeadlineExpired"
        assert time.monotonic() - t0 < 10.0

    def test_health_and_stats(self, server, x):
        async def go():
            async with ServeClient("127.0.0.1", server.port, tenant="hs") as c:
                h = await c.health()
                await c.spmv("m", x)
                s = await c.stats()
                return h, s

        h, s = run(go())
        assert h["state"] == "serving"
        assert sorted(h["matrices"]) == ["m", "other"]
        row = next(t for t in s["tenants"] if t["tenant"] == "hs")
        assert row["completed"] >= 1
        assert s["inflight_bytes"] == 0
        assert s["queue_depth"] == 0
        assert s["cache"]["max_bytes"] > 0
        assert s["matrices"]["m"]["nnz"] > 0


class TestAdmissionOverTheWire:
    def test_tenant_rate_shed(self, root, x):
        config = ServeConfig(root=root, port=0, tenant_rate=0.001, tenant_burst=1.0)
        with ServerThread(config) as st:
            async def go():
                async with ServeClient("127.0.0.1", st.server.port, tenant="rt") as c:
                    first = await c.spmv("m", x, raise_on_error=False)
                    second = await c.spmv("m", x, raise_on_error=False)
                    stats = await c.stats()
                    return first, second, stats

            first, second, stats = run(go())
        assert first["ok"]
        assert second["status"] == 429 and second["shed"] == "tenant_rate"
        row = next(t for t in stats["tenants"] if t["tenant"] == "rt")
        assert row["shed"] == 1 and row["requests"] == 2

    def test_queue_overflow_sheds_and_reconciles(self, root, x):
        config = ServeConfig(
            root=root, port=0, max_queue=2, compute_threads=1, fusion_window_ms=0.0
        )
        with ServerThread(config) as st:
            async def go():
                async with ServeClient("127.0.0.1", st.server.port, tenant="q") as c:
                    resps = await asyncio.gather(
                        *(c.spmv("m", x, raise_on_error=False) for _ in range(24))
                    )
                    stats = await c.stats()
                    return resps, stats

            resps, stats = run(go())
        ok = sum(1 for r in resps if r.get("ok"))
        shed = sum(1 for r in resps if r.get("status") == 429)
        assert ok + shed == 24
        assert shed > 0, "24 concurrent requests against max_queue=2 never shed"
        for r in resps:
            if r.get("status") == 429:
                assert r["shed"] == "queue"
        row = next(t for t in stats["tenants"] if t["tenant"] == "q")
        assert row["shed"] == shed and row["completed"] == ok
        assert stats["inflight_bytes"] == 0

    def test_shed_response_carries_no_result(self, root, x):
        config = ServeConfig(root=root, port=0, tenant_rate=0.001, tenant_burst=1.0)
        with ServerThread(config) as st:
            async def go():
                async with ServeClient("127.0.0.1", st.server.port, tenant="n") as c:
                    await c.spmv("m", x, raise_on_error=False)
                    return await c.spmv("m", x, raise_on_error=False)

            second = run(go())
        assert not second["ok"] and "y" not in second


class TestHttpEndpoints:
    @pytest.fixture(scope="class")
    def server(self, root):
        with ServerThread(ServeConfig(root=root, port=0)) as st:
            yield st.server

    @staticmethod
    async def _http_get(port, path):
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(f"GET {path} HTTP/1.1\r\nHost: t\r\n\r\n".encode())
        await writer.drain()
        data = await reader.read(-1)
        writer.close()
        head, _, body = data.partition(b"\r\n\r\n")
        return head.split(b"\r\n")[0].decode(), body.decode()

    def test_metrics_scrape(self, server, x):
        run(_one(server.port, args=("m", x)))
        status, body = run(self._http_get(server.port, "/metrics"))
        assert "200" in status
        assert "serve_requests" in body or "serve.requests" in body

    def test_health_probe(self, server):
        status, body = run(self._http_get(server.port, "/health"))
        assert "200" in status and body.strip() == "ok"

    def test_unknown_path_404(self, server):
        status, _ = run(self._http_get(server.port, "/nope"))
        assert "404" in status


class TestLifecycle:
    def test_clean_shutdown_under_load(self, root, x):
        st = ServerThread(ServeConfig(root=root, port=0, workers=2))
        st.start()

        async def fire():
            async with ServeClient("127.0.0.1", st.server.port, tenant="l") as c:
                return await asyncio.gather(
                    *(c.spmv("m", x, raise_on_error=False) for _ in range(8))
                )

        resps = run(fire())
        assert all(r.get("ok") for r in resps)
        st.stop()  # raises if the server thread crashed

    def test_decode_pool_forked_at_boot(self, root):
        # Before any request, so the workers fork before the compute
        # threads exist and the first request pays no spin-up.
        with ServerThread(ServeConfig(root=root, port=0, workers=2)) as st:
            assert st.server.engine._pool is not None
            assert st.server.engine.stats.pool_startup_seconds > 0

    def test_double_boot_distinct_ports(self, root):
        with ServerThread(ServeConfig(root=root, port=0)) as a:
            with ServerThread(ServeConfig(root=root, port=0)) as b:
                assert a.server.port != b.server.port

    def test_missing_root_fails_fast(self, tmp_path):
        from repro.serve import MatrixLibrary

        with pytest.raises(FileNotFoundError, match="not a directory"):
            MatrixLibrary(str(tmp_path / "nope"))

    def test_empty_root_fails_fast(self, tmp_path):
        from repro.serve import MatrixLibrary

        with pytest.raises(FileNotFoundError, match="no .dsh"):
            MatrixLibrary(str(tmp_path))
