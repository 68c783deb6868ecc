"""Replay determinism and the sim-vs-live agreement cross-check."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.serving import ReplayReport, replay, serve_preset
from repro.serving.replay import REPLAY_SCHEMA_VERSION


def _smoke(speedup):
    return serve_preset("smoke").with_overrides(speedup=speedup)


class TestReplayDeterminism:
    def test_two_live_runs_agree_on_counts(self):
        # Wall-clock timing is not bit-deterministic, but the *counting*
        # level is: same trace, same seed, full drain — every request is
        # admitted and completed in both runs.
        first = replay(config=_smoke(50.0))
        second = replay(config=_smoke(50.0))
        for report in (first, second):
            assert report.drained
            assert report.executor_incomplete == 0
        assert first.injected == second.injected > 0
        assert first.admitted == second.admitted == first.injected
        assert first.completed == second.completed == first.injected
        assert first.rejected == second.rejected == 0
        # And both see the identical simulator prediction.
        assert first.sim_p99 == second.sim_p99
        assert first.sim_attainment == second.sim_attainment


@pytest.mark.slow
class TestSimVsLiveAgreement:
    def test_live_metrics_agree_with_simulation(self):
        # The acceptance gate: with the sleep-stub executor, measured
        # attainment and p99 must land within the documented tolerances
        # of the discrete-event prediction for the same seed. Moderate
        # speedup keeps wall-clock skew well inside the band; one retry
        # absorbs host scheduling spikes (same policy as the CLI's
        # --retries flag).
        report = replay(config=_smoke(20.0))
        if not report.agrees:
            report = replay(config=_smoke(20.0))
        assert report.drained
        assert report.live_strict_requests > 0
        assert report.attainment_agrees, (
            f"attainment live={report.live_attainment:.4f} "
            f"sim={report.sim_attainment:.4f} "
            f"tolerance={report.attainment_tolerance}"
        )
        assert report.p99_agrees, (
            f"p99 live={report.live_p99:.4f} sim={report.sim_p99:.4f} "
            f"tolerance={report.p99_tolerance:.4f}"
        )
        assert report.agrees


class TestGroupedArrivalsLive:
    def test_duplicate_stamps_admitted_once_in_order(self, monkeypatch):
        # The smoke trace is batch-aligned, so requests share arrival
        # stamps and the platform admits each instant from one clock
        # event. On the wall clock that event never splits; every spec
        # must still be admitted exactly once, in trace order, on both
        # the live and the simulated side of the replay.
        from repro.experiments.runner import build_specs
        from repro.serverless.dispatcher import Gateway
        from repro.simulation import AsyncioClock

        config = _smoke(50.0)
        specs = build_specs(config.experiment)
        assert len({s.arrival for s in specs}) < len(specs)
        admitted = {"live": [], "sim": []}
        admit = Gateway.admit

        def recording(self, request):
            side = "live" if isinstance(self.sim, AsyncioClock) else "sim"
            admitted[side].append(
                (request.arrival, request.model.name, request.strict,
                 request.deadline)
            )
            admit(self, request)

        monkeypatch.setattr(Gateway, "admit", recording)
        report = replay(config=config)
        expected = [
            (s.arrival, s.model.name, s.strict, s.slo_deadline)
            for s in sorted(specs, key=lambda s: s.arrival)
        ]
        assert admitted["live"] == expected
        assert admitted["sim"] == expected
        # The report reconciles with the simulated run of the same specs.
        assert report.drained
        assert report.executor_incomplete == 0
        assert report.injected == report.admitted == len(specs)
        assert report.completed == len(specs)
        assert report.rejected == 0
        assert report.live_strict_requests == report.sim_strict_requests


@pytest.fixture(scope="module")
def smoke_report():
    return replay(config=_smoke(50.0))


class TestReplayReport:
    def test_round_trips_through_json(self, smoke_report):
        payload = json.loads(json.dumps(smoke_report.to_dict()))
        assert payload["version"] == REPLAY_SCHEMA_VERSION
        assert payload["agrees"] == smoke_report.agrees
        assert ReplayReport.from_dict(payload) == smoke_report

    def test_unknown_keys_rejected(self, smoke_report):
        payload = smoke_report.to_dict()
        payload["mystery"] = 1
        with pytest.raises(ConfigurationError, match="mystery"):
            ReplayReport.from_dict(payload)

    def test_newer_schema_refused(self, smoke_report):
        payload = smoke_report.to_dict()
        payload["version"] = REPLAY_SCHEMA_VERSION + 1
        with pytest.raises(ConfigurationError, match="version"):
            ReplayReport.from_dict(payload)

    def test_summary_lines_name_the_verdict(self, smoke_report):
        text = "\n".join(smoke_report.summary_lines())
        assert "verdict:" in text
        assert "p99" in text and "attainment" in text
