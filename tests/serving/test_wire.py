"""The serving tier on the wire: one send per response.

A response written as head then body, with Nagle on, holds the body
until the client's delayed ACK: ~44 ms per request on a loopback
keep-alive connection, whatever the service time.
"""

from __future__ import annotations

import http.client
import json
import socket
import statistics
import time

from repro.faults import FaultPlan
from repro.serving import (
    AnalyticsService,
    ChaosAnalyticsService,
    ServingFaultSpec,
    serve_analytics,
)


def test_keepalive_requests_do_not_stall(serving_store, storm_paths):
    with serve_analytics(AnalyticsService(serving_store)) as server:
        host, port = server.server.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            for path in storm_paths:  # warm the response cache
                conn.request("GET", path)
                conn.getresponse().read()
            latencies = []
            for i in range(30):
                t0 = time.perf_counter()
                conn.request("GET", storm_paths[i % len(storm_paths)])
                response = conn.getresponse()
                response.read()
                latencies.append(time.perf_counter() - t0)
                assert response.status == 200
        finally:
            conn.close()
    assert statistics.median(latencies) < 0.010


def test_abort_promises_full_length_and_cuts_the_body(serving_store):
    path = "/tailfit/friends"
    full = json.dumps(AnalyticsService(serving_store).dispatch(path, {}))
    plan = FaultPlan(seed=2, default=ServingFaultSpec(abort=1.0))
    service = ChaosAnalyticsService(serving_store, plan)
    with serve_analytics(service) as server:
        host, port = server.server.server_address[:2]
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(f"GET {path} HTTP/1.1\r\nHost: x\r\n\r\n".encode())
            received = b""
            while chunk := sock.recv(65536):  # the server hangs up
                received += chunk
    head, _, body = received.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 200 ")
    assert f"Content-Length: {len(full)}".encode() in head.split(b"\r\n")
    assert 0 < len(body) < len(full)
    assert body == full.encode()[: len(body)]
