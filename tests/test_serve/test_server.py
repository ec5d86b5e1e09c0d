"""End-to-end HTTP: a live ServeApp driven by the blocking client."""

from __future__ import annotations

import asyncio
import http.client
import json
import threading
import time

import pytest

from repro.serve import ServeApp, ServeClient, ServeHTTPError

pytestmark = pytest.mark.serve

_SPEC = {"synthetic": {"d": 10, "m": 50, "seed": 21}}


class _LiveApp:
    """ServeApp on a background event-loop thread, for blocking tests."""

    def __init__(self, **kwargs):
        self._kwargs = kwargs
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(target=self._loop.run_forever, daemon=True)
        self.app: ServeApp | None = None
        self.address: tuple[str, int] | None = None

    def __enter__(self) -> "_LiveApp":
        self._thread.start()
        self.app = ServeApp(**self._kwargs)
        future = asyncio.run_coroutine_threadsafe(self.app.start(), self._loop)
        self.address = future.result(timeout=30)
        return self

    def __exit__(self, *exc_info) -> None:
        asyncio.run_coroutine_threadsafe(self.app.stop(), self._loop).result(timeout=30)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10)
        self._loop.close()

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def client(self) -> ServeClient:
        return ServeClient(self.url, timeout=30.0)


def _wait_for_state(client, job_id, state, timeout=30.0):
    deadline = time.monotonic() + timeout
    while client.status(job_id)["state"] != state:
        assert time.monotonic() < deadline, f"job {job_id} never reached {state!r}"
        time.sleep(0.005)


@pytest.fixture(scope="module")
def live():
    with _LiveApp(max_workers=1) as app:
        yield app


def test_submit_status_result_roundtrip(live):
    client = live.client()
    job_id = client.submit({"problem": _SPEC, "lam": 0.05, "tenant": "http"})
    status = client.status(job_id)
    assert status["id"] == job_id
    assert status["state"] in ("queued", "running", "done")
    payload = client.result(job_id, timeout=30)
    assert payload["state"] == "done"
    result = payload["result"]
    assert result["lam"] == 0.05
    assert len(result["w"]) == 10
    assert "solve_seconds" in payload


def test_repeat_submission_hits_warm_cache(live):
    client = live.client()
    first = client.result(client.submit({"problem": _SPEC, "lam": 0.04}), timeout=30)
    second = client.result(client.submit({"problem": _SPEC, "lam": 0.04}), timeout=30)
    assert first["result"]["warm_start"] in ("cold", "exact", "path")
    assert second["result"]["warm_start"] == "exact"
    metrics = client.metrics()
    assert metrics["stats"]["cache"]["warm_hits"] >= 1
    assert "serve_latency_seconds" in metrics["metrics"]


def test_healthz(live):
    payload = live.client().healthz()
    assert payload["ok"] is True
    assert payload["queue_depth"] >= 0


def test_cancel_over_http(live):
    client = live.client()
    job_id = client.submit({
        "problem": _SPEC, "lam": 0.001, "max_iter": 60000,
        "rel_change_tol": None, "warm_start": False,
    })
    cancelled = client.cancel(job_id)
    assert cancelled["state"] in ("cancelled", "running")
    with pytest.raises(ServeHTTPError) as excinfo:
        client.result(job_id, timeout=30)
    assert excinfo.value.status == 409


def test_include_report_round_trips(live):
    client = live.client()
    payload = client.result(
        client.submit({"problem": _SPEC, "lam": 0.05, "include_report": True}),
        timeout=30,
    )
    assert payload["report"]["solver"] == "fista"


class TestHttpErrors:
    def test_bad_json_is_400(self, live):
        host, port = live.address
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            conn.request("POST", "/v1/jobs", body=b"{not json",
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            assert response.status == 400
            error = json.loads(response.read())["error"]
            assert "JSON" in error["message"]
        finally:
            conn.close()

    def test_validation_error_is_400(self, live):
        with pytest.raises(ServeHTTPError) as excinfo:
            live.client().submit({"problem": {"dataset": "no_such"}})
        assert excinfo.value.status == 400
        assert excinfo.value.payload["error"]["type"] == "ValidationError"

    def test_unknown_job_is_404(self, live):
        for call in ("status", "cancel"):
            with pytest.raises(ServeHTTPError) as excinfo:
                getattr(live.client(), call)("job-does-not-exist")
            assert excinfo.value.status == 404

    def test_unknown_route_is_404(self, live):
        with pytest.raises(ServeHTTPError) as excinfo:
            live.client()._checked("GET", "/v2/nope")
        assert excinfo.value.status == 404

    def test_wrong_method_is_405(self, live):
        with pytest.raises(ServeHTTPError) as excinfo:
            live.client()._checked("GET", "/v1/jobs")
        assert excinfo.value.status == 405

    def test_queue_full_is_429_with_retry_after(self):
        with _LiveApp(max_workers=1, queue_limit=1) as small:
            client = small.client()
            slow = client.submit({"problem": _SPEC, "lam": 0.001, "max_iter": 60000,
                                  "rel_change_tol": None})
            # The worker dequeues asynchronously: until the slow job is
            # running it still holds the single queue slot.
            _wait_for_state(client, slow, "running")
            # Fill the single queue slot behind the slow job.
            queued = client.submit({"problem": _SPEC, "lam": 0.05, "tenant": "snd"})
            assert client.status(queued)["state"] == "queued"
            assert client.status(slow)["state"] == "running"
            with pytest.raises(ServeHTTPError) as excinfo:
                client.submit({"problem": _SPEC, "lam": 0.06, "tenant": "trd"})
            assert excinfo.value.status == 429
            assert excinfo.value.retryable
            assert excinfo.value.retry_after is not None


def test_fair_scheduling_across_tenants_over_http():
    """4 tenants × many jobs: all complete; per-tenant counters add up."""
    with _LiveApp(max_workers=1, tenant_weights={"t0": 2}) as app:
        client = app.client()
        ids = {}
        for i in range(12):
            tenant = f"t{i % 4}"
            ids.setdefault(tenant, []).append(client.submit({
                "problem": _SPEC, "lam": 0.03 + 0.01 * (i % 3), "tenant": tenant,
            }))
        for tenant, job_ids in ids.items():
            for job_id in job_ids:
                assert client.result(job_id, timeout=60)["state"] == "done"
        snapshot = client.metrics()["metrics"]["serve_requests_total"]["values"]
        for tenant in ("t0", "t1", "t2", "t3"):
            assert snapshot[f"state=done,tenant={tenant}"] == 3.0
