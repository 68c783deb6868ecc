"""One arrival event per instant keeps the order of one event per request.

``ServerlessPlatform.inject`` schedules one clock event per distinct
arrival instant; the event admits every request of that instant in trace
order. Before it did, each request had its own arrival event, so an
event that admitting one request made due at ``now`` (a zero-second cold
start, say) ran before the next request's admission. The grouped event
keeps that order by handing the rest of the instant to a fresh
``arrival-rest`` event whenever the clock reports such an event due.

The pinned run is a 60 s two-tenant run with a collapsed (batch-aligned)
trace, zero-second cold starts, a 0.05 s keep-alive and no prewarmed
containers, so partially refused instants leave buffered requests that
a later instant of the same class tops up: the batch then flushes
mid-instant, cold-starts a container at ``now``, and the grouped event
must split. Its summary row, extras, span digest and event count were
captured with one arrival event per request, before arrivals were
grouped. A drift means grouping changed what the simulator computes.
"""

import collections

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import build_specs, run_scheme
from repro.simulation import Simulator
from repro.simulation.events import (
    PRIORITY_EARLY,
    PRIORITY_LATE,
    PRIORITY_NORMAL,
    EventQueue,
)
from repro.tenancy.model import TenancySpec, Tenant, TenantSet

from tests.serverless.test_platform import make_platform, spec

PINNED_CONFIG = ExperimentConfig(
    trace="constant",
    duration=60.0,
    warmup=15.0,
    drain=60.0,
    n_nodes=2,
    offered_load=2.2,
    cold_start_seconds=0.0,
    keep_alive_seconds=0.05,
    prewarm_containers=0,
    seed=7,
    tracing=True,
    tenants=TenancySpec(
        tenant_set=TenantSet(
            (
                Tenant(
                    "victim",
                    slo_class="standard",
                    priority=0,
                    weight=3.0,
                    traffic_share=1.0,
                ),
                Tenant(
                    "aggressor",
                    slo_class="relaxed",
                    priority=1,
                    quota=32,
                    weight=1.0,
                    traffic_share=3.0,
                ),
            )
        ),
        policy="wfq",
        admission=True,
    ),
)

PINNED_ROW = {
    "scheme": "protean",
    "model": "resnet50",
    "slo_%": 58.94,
    "strict_p50_ms": 139.4,
    "strict_p99_ms": 191.7,
    "be_p99_ms": 120.4,
    "thru_strict_rps_gpu": 99.37,
    "gpu_util_%": 94.3,
    "mem_util_%": 27.6,
    "cost_$": 0.2731,
    "savings_%": 0.0,
}

PINNED_EXTRAS = {
    "spot_nodes_built": 0,
    "on_demand_nodes_built": 2,
    "evictions": 0,
    "spot_notices": 0,
    "resubmissions": 0,
    "backlog_at_end": 0,
    "cold_starts": 4080,
    "nodes_at_end": 2,
    "tenant_rejections": 17074,
    "tenant_fairness": 0.999999417660248,
}

PINNED_SPAN_DIGEST = (
    "f9d3a68bdf7f591f48881cbf03d88f6641d36ab7b99a7d968ee28b6e93af02e0"
)

#: Events the pinned run processed with one arrival event per request.
PER_REQUEST_EVENTS = 50789


@pytest.fixture(scope="module")
def pinned_run():
    """The pinned run, with every scheduled event's label counted."""
    labels = collections.Counter()
    schedule = EventQueue.schedule

    def counting(self, time, callback, *, priority=PRIORITY_NORMAL, label=""):
        labels[label] += 1
        return schedule(self, time, callback, priority=priority, label=label)

    specs = build_specs(PINNED_CONFIG)
    EventQueue.schedule = counting
    try:
        result = run_scheme("protean", PINNED_CONFIG, specs=specs)
    finally:
        EventQueue.schedule = schedule
    return specs, result, labels


def test_grouped_arrivals_match_pin(pinned_run):
    _specs, result, _labels = pinned_run
    assert result.summary.row() == PINNED_ROW
    assert dict(result.extras) == PINNED_EXTRAS
    assert result.extras["tenant_rejections"] > 0
    assert result.detach().tracer.digest() == PINNED_SPAN_DIGEST


def test_one_arrival_event_per_instant(pinned_run):
    specs, result, labels = pinned_run
    instants = len({s.arrival for s in specs})
    assert instants < len(specs)  # the collapsed trace shares instants
    assert labels["arrival"] == instants
    # The guard split some instants (so the pin covers it), and only a
    # few: a split is the exception, not the rule.
    rest = labels["arrival-rest"]
    assert 0 < rest < instants // 10
    # Every event saved is a per-request arrival event, nothing else.
    events = result.platform.sim.events_processed
    assert PER_REQUEST_EVENTS - events == len(specs) - instants - rest


class TestTieOrder:
    """Same-instant order against the per-request-event reference."""

    @staticmethod
    def _run(schedule_on_admit, before_run=None):
        sim = Simulator()
        platform = make_platform(sim)
        order = []

        def observer(request):
            order.append(("admit", request.request_id))
            schedule_on_admit(sim, order, request.request_id)

        platform.request_observers.append(observer)
        platform.inject([spec(arrival=1.0) for _ in range(3)])
        if before_run is not None:
            before_run(sim, order)
        sim.run(until=1.0)
        return order

    def test_event_due_now_runs_between_members(self):
        def tick(sim, order, rid):
            sim.after(0.0, lambda: order.append(("tick", rid)))

        order = self._run(tick)
        ids = [rid for kind, rid in order if kind == "admit"]
        assert order == [
            item for rid in ids for item in (("admit", rid), ("tick", rid))
        ]

    def test_early_event_due_now_runs_between_members(self):
        def tick(sim, order, rid):
            sim.after(0.0, lambda: order.append(("tick", rid)),
                      priority=PRIORITY_EARLY)

        order = self._run(tick)
        assert [kind for kind, _ in order] == ["admit", "tick"] * 3

    def test_late_event_waits_for_the_whole_instant(self):
        def tick(sim, order, rid):
            sim.after(0.0, lambda: order.append(("tick", rid)),
                      priority=PRIORITY_LATE)

        order = self._run(tick)
        assert [kind for kind, _ in order] == ["admit"] * 3 + ["tick"] * 3

    def test_event_already_due_runs_after_the_first_member(self):
        # Scheduled after inject, so it follows the instant's first
        # arrival event in FIFO order but precedes the second's.
        def nothing(sim, order, rid):
            pass

        def queued(sim, order):
            sim.at(1.0, lambda: order.append(("queued", None)))

        order = self._run(nothing, before_run=queued)
        assert [kind for kind, _ in order] == [
            "admit", "queued", "admit", "admit",
        ]

    def test_instants_are_admitted_in_trace_order(self):
        sim = Simulator()
        platform = make_platform(sim)
        seen = []
        platform.request_observers.append(
            lambda request: seen.append((sim.now, request.strict))
        )
        specs = [
            spec(arrival=2.0, strict=False),
            spec(arrival=1.0),
            spec(arrival=2.0),
            spec(arrival=1.0, strict=False),
        ]
        platform.inject(specs)
        sim.run(until=3.0)
        # Stable by arrival: ties keep their trace order.
        assert seen == [(1.0, True), (1.0, False), (2.0, False), (2.0, True)]
