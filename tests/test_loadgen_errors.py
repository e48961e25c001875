"""Error bucketing in the load generators.

:func:`classify_error` turns each failed op's exception into a stable
bucket name; :class:`LoadResult.errors_by_type` aggregates them so a
run that half-failed says *how* — a stalled engine, a dead shard, and a
flaky transport are different diagnoses that the single ``error_count``
total used to flatten.
"""

import asyncio

import pytest

from repro.errors import (
    ProtocolError,
    RequestFailedError,
    RetriesExhaustedError,
)
from repro.server import binproto, protocol
from repro.server.loadgen import LoadResult, classify_error, closed_loop


class TestClassifyError:
    @pytest.mark.parametrize(
        ("error", "expected"),
        [
            (RequestFailedError("STALLED", "write stalled"), "stalled"),
            (
                RequestFailedError("SHARD_DOWN", "breaker open"),
                "shard_down",
            ),
            (
                RequestFailedError("NOT_LEADER", "follower"),
                "not_leader",
            ),
            (
                # Integrity refusals get their own bucket: an operator
                # must be able to tell corruption from transport noise.
                RequestFailedError("DATA_CORRUPT", "run 3 quarantined"),
                "data_corrupt",
            ),
            (asyncio.TimeoutError(), "timeout"),
            (TimeoutError(), "timeout"),
            (ConnectionResetError(), "connection_reset"),
            (ConnectionRefusedError(), "connection_refused"),
            (ProtocolError("bad frame"), "protocol"),
            (BrokenPipeError(), "connection_error"),
            (OSError("no route to host"), "connection_error"),
            (ValueError("unrelated"), "other"),
        ],
    )
    def test_buckets(self, error, expected):
        assert classify_error(error) == expected

    def test_retry_wrapper_classified_by_last_cause(self):
        wrapped = RetriesExhaustedError(
            "gave up",
            last_error=RequestFailedError("STALLED", "still stalled"),
        )
        assert classify_error(wrapped) == "stalled"

    def test_retry_wrapper_nests(self):
        inner = RetriesExhaustedError(
            "inner", last_error=ConnectionResetError()
        )
        outer = RetriesExhaustedError("outer", last_error=inner)
        assert classify_error(outer) == "connection_reset"

    def test_retry_wrapper_without_cause(self):
        wrapped = RetriesExhaustedError("gave up", last_error=None)
        assert classify_error(wrapped) == "retries_exhausted"

    def test_data_corrupt_is_distinct_from_every_transport_bucket(self):
        corrupt = classify_error(
            RequestFailedError("DATA_CORRUPT", "quarantined")
        )
        transports = {
            classify_error(error)
            for error in (
                asyncio.TimeoutError(),
                ConnectionResetError(),
                ConnectionRefusedError(),
                ProtocolError("x"),
                OSError("x"),
            )
        }
        assert corrupt == "data_corrupt"
        assert corrupt not in transports


class TestLoadResultSummary:
    def test_summary_names_the_buckets_most_frequent_first(self):
        result = LoadResult(
            label="run",
            op_count=5,
            error_count=4,
            duration_seconds=1.0,
            latencies=[0.01] * 5,
            errors_by_type={"timeout": 1, "stalled": 3},
        )
        assert "(stalled: 3, timeout: 1)" in result.summary()

    def test_data_corrupt_count_reads_its_bucket(self):
        result = LoadResult(
            label="run",
            op_count=5,
            error_count=3,
            duration_seconds=1.0,
            latencies=[0.01] * 5,
            errors_by_type={"data_corrupt": 2, "timeout": 1},
        )
        assert result.data_corrupt_count == 2

    def test_summary_without_errors_has_no_bucket_list(self):
        result = LoadResult(
            label="run",
            op_count=5,
            error_count=0,
            duration_seconds=1.0,
            latencies=[0.01] * 5,
        )
        assert "(" not in result.summary().split("op/s)", 1)[1]


class EveryOtherPutStalls:
    """Framed-protocol stub alternating OK and STALLED responses."""

    def __init__(self) -> None:
        self._puts = 0
        self._server: asyncio.AbstractServer | None = None
        self.address: tuple[str, int] | None = None

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle, "127.0.0.1", 0
        )
        self.address = self._server.sockets[0].getsockname()[:2]

    async def aclose(self) -> None:
        assert self._server is not None
        self._server.close()
        await self._server.wait_closed()

    async def _handle(self, reader, writer) -> None:
        try:
            assert await reader.readexactly(1) == binproto.MAGIC_BYTE
            while True:
                payload = await binproto.read_frame(reader)
                if payload is None:
                    break
                message = binproto.decode_request(payload)
                if message.get("op") == "PUT":
                    self._puts += 1
                    if self._puts % 2 == 0:
                        await binproto.write_response(
                            writer,
                            protocol.error_response(
                                protocol.CODE_STALLED, "stalled"
                            ),
                        )
                        continue
                await binproto.write_response(
                    writer, protocol.ok_response()
                )
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()


def test_closed_loop_buckets_sum_to_error_count():
    async def scenario():
        server = EveryOtherPutStalls()
        await server.start()
        try:
            host, port = server.address
            return await closed_loop(
                host,
                port,
                clients=1,
                ops_per_client=10,
                value_bytes=16,
                client_options={"max_retries": 0, "jitter": False},
            )
        finally:
            await server.aclose()

    result = asyncio.run(scenario())
    assert result.error_count == 5
    assert result.errors_by_type == {"stalled": 5}
    assert sum(result.errors_by_type.values()) == result.error_count
