"""Batch API server/client: round-trips, backpressure, draining shutdown."""

import threading

import pytest

from repro.bench.algorithms import ghz_state, qft
from repro.compile import compile_circuit, line_architecture
from repro.ec.configuration import Configuration
from repro.errors import PoolSaturated, RetryPolicy
from repro.service import PoolConfig, ServiceClient, ServiceServer, WorkerPool
from repro.service.server import (
    circuit_from_payload,
    circuit_to_payload,
    configuration_from_payload,
    configuration_to_payload,
)

_FAST_BACKOFF = RetryPolicy(max_retries=0, backoff_base=0.01, backoff_max=0.05)


def _pairs():
    ghz = ghz_state(4)
    fourier = qft(3)
    return [
        (ghz, compile_circuit(ghz, line_architecture(5))),
        (fourier, compile_circuit(fourier, line_architecture(4))),
    ]


class TestWireFormat:
    def test_circuit_payload_roundtrip(self):
        compiled = compile_circuit(ghz_state(4), line_architecture(5))
        compiled.output_permutation = dict(compiled.output_permutation or {})
        restored = circuit_from_payload(circuit_to_payload(compiled))
        assert len(restored) == len(compiled)
        assert restored.initial_layout == compiled.initial_layout
        assert restored.output_permutation == compiled.output_permutation

    def test_configuration_payload_roundtrip(self):
        config = Configuration(timeout=3.5, seed=9, strategy="zx")
        restored = configuration_from_payload(configuration_to_payload(config))
        assert restored == config
        assert configuration_from_payload(None) is None
        assert configuration_to_payload(None) is None

    def test_unknown_configuration_fields_ignored(self):
        payload = configuration_to_payload(Configuration(seed=3))
        payload["from_a_newer_version"] = True
        # Knobs that older clients still send for removed features.
        payload.update(
            array_dd=False, direct_application=False, incremental_zx=False
        )
        assert configuration_from_payload(payload) == Configuration(seed=3)


def _serve(pool):
    """Start a server on a fresh socket; returns (server, thread, path)."""
    import tempfile
    from pathlib import Path

    tmp = tempfile.mkdtemp(prefix="repro-service-test-")
    socket_path = str(Path(tmp) / "service.sock")
    server = ServiceServer(pool, socket_path).start()
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, thread, socket_path


class TestServerRoundTrip:
    def test_batch_verdicts_stats_and_draining_shutdown(self):
        pool = WorkerPool(
            PoolConfig(workers=2, restart_backoff=_FAST_BACKOFF)
        )
        server, thread, socket_path = _serve(pool)
        pairs = _pairs()
        try:
            with ServiceClient(socket_path) as client:
                assert client.ping()
                results = client.submit_batch(
                    pairs, Configuration(timeout=10.0, seed=0)
                )
                stats = client.stats()
        finally:
            with ServiceClient(socket_path) as closer:
                reply = closer.shutdown_server()
            thread.join(timeout=60.0)
        assert reply["stopping"] is True
        assert not thread.is_alive()
        assert [payload["equivalence"] for payload in results] == [
            "equivalent",
            "equivalent",
        ]
        counters = stats["counters"]["counters"]
        assert counters["service.jobs_completed"] == len(pairs)
        assert stats["quarantined"] == 0
        assert not stats["broken"]
        assert pool.audit()["leaked"] == 0
        import os

        assert not os.path.exists(socket_path)

    def test_oversized_batch_gets_busy_with_retry_after(self):
        pool = WorkerPool(
            PoolConfig(
                workers=1, queue_depth=1, restart_backoff=_FAST_BACKOFF
            )
        )
        server, thread, socket_path = _serve(pool)
        try:
            with ServiceClient(socket_path) as client:
                # A 2-pair batch can never fit a depth-1 queue: every
                # attempt is answered busy, then the client gives up.
                sleeps = []
                with pytest.raises(PoolSaturated):
                    client.submit_batch(
                        _pairs(),
                        Configuration(timeout=10.0, seed=0),
                        max_attempts=3,
                        sleep=sleeps.append,
                    )
                assert len(sleeps) == 3
                assert all(delay > 0 for delay in sleeps)
                stats = client.stats()
            counters = stats["counters"]["counters"]
            assert counters["service.rejected_busy"] == 3
        finally:
            with ServiceClient(socket_path) as closer:
                closer.shutdown_server()
            thread.join(timeout=60.0)
        assert pool.audit()["leaked"] == 0

    def test_unknown_op_is_answered_not_fatal(self):
        pool = WorkerPool(
            PoolConfig(workers=1, restart_backoff=_FAST_BACKOFF)
        )
        server, thread, socket_path = _serve(pool)
        try:
            with ServiceClient(socket_path) as client:
                reply = client._request({"op": "bogus"})
                assert reply["ok"] is False
                assert reply["error"]["kind"] == "invalid_input"
                # The server survived and still answers real requests.
                assert client.ping()
        finally:
            with ServiceClient(socket_path) as closer:
                closer.shutdown_server()
            thread.join(timeout=60.0)
        assert pool.audit()["leaked"] == 0
