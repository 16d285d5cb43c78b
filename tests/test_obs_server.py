"""Tests for repro.obs.server: board, endpoints, and the determinism
contract of a served campaign (serving changes no sampled number)."""

import json
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.hamiltonians import IsingHamiltonian
from repro.lattice import square_lattice
from repro.obs import Instrumentation, Telemetry
from repro.obs.promexport import CONTENT_TYPE
from repro.obs.server import (
    OBS_PORT_ENV_VAR,
    StatusBoard,
    get_board,
    server_from_env,
    start_server,
    stop_server,
)
from repro.obs.timeseries import TimeSeriesConfig, TimeSeriesRecorder
from repro.parallel import REWLConfig, REWLDriver
from repro.proposals import FlipProposal
from repro.resilience import BudgetPolicy, ResilienceConfig
from repro.sampling import EnergyGrid


def _driver(backend="fused", resilience=None, **kwargs):
    ham = IsingHamiltonian(square_lattice(4))
    grid = EnergyGrid.from_levels(ham.energy_levels())
    return REWLDriver(
        hamiltonian=ham, proposal_factory=lambda: FlipProposal(), grid=grid,
        initial_config=np.zeros(16, dtype=np.int8),
        config=REWLConfig(n_windows=2, walkers_per_window=2, overlap=0.6,
                          exchange_interval=200, ln_f_final=5e-2, seed=11,
                          backend=backend),
        instrumentation=Instrumentation(**kwargs), resilience=resilience,
    )


@pytest.fixture(autouse=True)
def _clean_singletons():
    """Every test starts and ends with no server and an empty board."""
    stop_server()
    get_board().clear()
    yield
    stop_server()
    get_board().clear()


def _get(url):
    with urllib.request.urlopen(url, timeout=10) as resp:
        return resp.status, dict(resp.headers), resp.read().decode("utf-8")


def _get_code(url):
    try:
        return _get(url)[0]
    except urllib.error.HTTPError as err:
        return err.code


class TestStatusBoard:
    def test_idle_board(self):
        board = StatusBoard()
        code, payload = board.health()
        assert code == 200 and payload["status"] == "idle"
        assert "# EOF" in board.metrics_text()
        assert board.campaign_view() == {"campaign": None}
        assert board.events_tail() == []

    def test_recorder_drives_health_and_metrics(self):
        board = StatusBoard()
        recorder = TimeSeriesRecorder(TimeSeriesConfig(sample_every=1))
        driver = _driver(telemetry=Telemetry(), timeseries=recorder)
        driver.run(max_rounds=60)
        board.publish_recorder(recorder)
        code, payload = board.health()
        assert code == 200 and payload["status"] == "ok"
        assert payload["converged"] is True
        text = board.metrics_text()
        assert "rewl_window_ln_f" in text
        assert board.campaign_view()["live"]["round"] == driver.rounds

    def test_degraded_recorder_is_503(self):
        board = StatusBoard()
        recorder = TimeSeriesRecorder()
        recorder.latest = {"round": 9, "degraded": True, "quarantined": [1]}
        board.publish_recorder(recorder)
        code, payload = board.health()
        assert code == 503
        assert payload["status"] == "degraded"
        assert payload["quarantined_windows"] == [1]

    def test_exhausted_budget_is_503(self):
        board = StatusBoard()
        recorder = TimeSeriesRecorder()
        recorder.latest = {
            "round": 5,
            "budget": {"exhausted": True, "trigger": "rounds (5 >= 5)"},
        }
        board.publish_recorder(recorder)
        code, payload = board.health()
        assert code == 503
        assert payload["status"] == "budget_exhausted"
        assert "rounds" in payload["trigger"]

    @pytest.mark.parametrize("chunks", [(10,), (3, 10)])
    def test_budget_terminated_run_serves_503(self, chunks):
        """The budget trips after the last round's record was built; the
        end-of-run view must still report it (in the run that trips it and
        in a later run() that stops on it at once)."""
        board = StatusBoard()
        recorder = TimeSeriesRecorder(TimeSeriesConfig(sample_every=1))
        driver = _driver(
            telemetry=Telemetry(), timeseries=recorder,
            resilience=ResilienceConfig(budget=BudgetPolicy(rounds=3)),
        )
        for limit in chunks:
            driver.run(max_rounds=limit)
        assert driver.rounds == 3
        assert recorder.latest["budget"]["exhausted"] is True
        assert recorder.latest["degraded"] is True
        board.publish_recorder(recorder)
        code, payload = board.health()
        assert code == 503
        assert payload["status"] == "budget_exhausted"
        assert recorder.samples == 3

    def test_campaign_manifest_snapshot_detached(self):
        board = StatusBoard()
        manifest = {"completed": ["E1"]}
        board.publish_campaign(manifest)
        manifest["completed"].append("E2")  # later mutation must not leak
        assert board.campaign_view()["campaign"] == {"completed": ["E1"]}

    def test_events_tail(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        lines = [json.dumps({"kind": "x", "seq": i}) for i in range(5)]
        trace.write_text("".join(l + "\n" for l in lines))
        board = StatusBoard()
        board.publish_trace(trace)
        assert board.events_tail(2) == lines[-2:]
        assert board.events_tail(0) == lines


class TestServerEndpoints:
    def test_endpoints_serve_a_finished_run(self, tmp_path):
        recorder = TimeSeriesRecorder(TimeSeriesConfig(sample_every=1))
        driver = _driver(telemetry=Telemetry(), timeseries=recorder)
        driver.run(max_rounds=60)
        trace = tmp_path / "t.jsonl"
        trace.write_text(json.dumps({"kind": "heartbeat", "round": 1}) + "\n")
        board = get_board()
        board.publish_recorder(recorder)
        board.publish_campaign({"mode": "quick", "completed": []})
        board.publish_trace(trace)
        server = start_server(port=0)

        code, headers, text = _get(server.url + "/metrics")
        assert code == 200
        assert headers["Content-Type"] == CONTENT_TYPE
        assert "# TYPE rewl_window_ln_f gauge" in text
        assert 'rewl_window_ln_f{window="0"}' in text
        assert text.rstrip().endswith("# EOF")

        code, _, body = _get(server.url + "/healthz")
        assert code == 200 and json.loads(body)["status"] == "ok"

        code, _, body = _get(server.url + "/campaign")
        view = json.loads(body)
        assert code == 200
        assert view["campaign"]["mode"] == "quick"
        assert view["live"]["converged"] is True
        assert "rewl.steps_total" in view["live"]["series"]

        code, _, body = _get(server.url + "/events?n=10")
        assert code == 200 and '"heartbeat"' in body

        code, _, body = _get(server.url + "/")
        assert "/metrics" in json.loads(body)["endpoints"]

    def test_degraded_run_is_503(self):
        recorder = TimeSeriesRecorder()
        recorder.latest = {"round": 3, "degraded": True, "quarantined": [0]}
        get_board().publish_recorder(recorder)
        server = start_server(port=0)
        assert _get_code(server.url + "/healthz") == 503

    def test_unknown_endpoint_404(self):
        server = start_server(port=0)
        assert _get_code(server.url + "/nope") == 404

    def test_start_server_is_idempotent(self):
        first = start_server(port=0)
        assert start_server(port=0) is first

    def test_server_from_env(self, monkeypatch):
        monkeypatch.delenv(OBS_PORT_ENV_VAR, raising=False)
        assert server_from_env() is None
        monkeypatch.setenv(OBS_PORT_ENV_VAR, "not-a-port")
        with pytest.raises(ValueError, match=OBS_PORT_ENV_VAR):
            server_from_env()
        monkeypatch.setenv(OBS_PORT_ENV_VAR, "0")
        server = server_from_env()
        assert server is not None
        assert _get_code(server.url + "/healthz") == 200


class TestServedRunBitIdentity:
    """The ISSUE acceptance criterion: the same seeded campaign run with and
    without serving produces bit-identical sampler output."""

    @pytest.mark.parametrize("backend", ["fused", "shm"])
    def test_serving_changes_no_sampled_number(self, monkeypatch, backend):
        from repro.obs.convergence import ConvergenceConfig
        from repro.obs.health import HealthConfig

        monkeypatch.delenv(OBS_PORT_ENV_VAR, raising=False)
        bare = _driver().run(max_rounds=60)

        monkeypatch.setenv(OBS_PORT_ENV_VAR, "0")
        driver = _driver(backend=backend, telemetry=Telemetry(),
                         health=HealthConfig(heartbeat_rounds=3),
                         convergence=ConvergenceConfig(sample_every=2))
        # Serving implied a recorder and started the singleton server.
        assert driver.timeseries is not None
        from repro.obs import server as server_mod

        live = server_mod._server
        assert live is not None
        try:
            served = driver.run(max_rounds=60)
        finally:
            driver.close()
        # Scrape mid-teardown-free: the served view renders fine afterwards.
        assert _get_code(live.url + "/metrics") == 200

        assert served.converged == bare.converged
        assert served.rounds == bare.rounds
        assert served.total_steps == bare.total_steps
        for a, b in zip(bare.window_ln_g, served.window_ln_g):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(bare.window_visited, served.window_visited):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(bare.exchange_attempts,
                                      served.exchange_attempts)
        np.testing.assert_array_equal(bare.exchange_accepts,
                                      served.exchange_accepts)
