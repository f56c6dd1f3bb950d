"""The ``python -m repro replay --demo`` flow.

Round-trips a recorded service trace into simulated, verified traces:

1. run a seeded churn workload through the online control plane
   (:class:`~repro.service.controller.SessionService`) with timeline
   recording on;
2. fit the recorded start/stop trace into a simulation horizon as a
   :class:`~repro.core.timeline.ReconfigurationTimeline`;
3. execute the timeline on the flit-level TDM backend and verify
   dynamic composability — every surviving session's trace must be
   bit-identical to its solo reference across all reconfiguration
   epochs;
4. execute the same timeline on the best-effort baseline, where the
   same churn demonstrably perturbs the survivors.

The whole flow runs twice and the demo asserts the two canonical JSON
reports are byte-identical, the same self-check the campaign and serve
demos perform.

The demo topology is a 3x3 mesh with two NIs per router — denser than
the Section VII mesh relative to its size, so best-effort sharing
(queues, ports, buffers) between sessions is actually exercised.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.simulation.backend import BestEffortBackend, FlitLevelBackend
from repro.simulation.composability import replay_traffic, verify_timeline
from repro.topology.builders import mesh

__all__ = ["ReplayOutcome", "replay_churn", "run_replay_demo"]

@dataclass
class ReplayOutcome:
    """Everything one record-and-replay run produces.

    ``report`` is the control plane's report, ``service`` the service
    instance (its live allocation feeds rebuild studies), ``timeline``
    the recorded churn fitted into the simulation horizon and
    ``verdict`` the survivors' dynamic composability check.
    """

    report: object
    service: object
    timeline: object
    verdict: object


def replay_churn(topology, events, *, table_size: int,
                 frequency_hz: float, horizon_slots: int, name: str,
                 seed: int = 0, backend_factory=None, telemetry=None,
                 monitor=None) -> ReplayOutcome:
    """Serve a stream with timeline recording on, replay it, verify it.

    The replay chain shared by the campaign's ``mode="replay"`` runs,
    this demo and :func:`~repro.faults.demo.run_churn_with_faults`:
    :func:`~repro.service.demo.serve_churn`, the timeline fitted into
    ``horizon_slots``, and :func:`~repro.simulation.composability.
    verify_timeline` on ``backend_factory`` (default: the flit-level
    TDM backend, instrumented by ``telemetry`` like the service).
    ``monitor`` arms the conformance watchdog on the service (quote
    conformance via ``outcome.service.conformance_report()``) and on
    the verification (``outcome.verdict.conformance``).
    """
    from repro.service.demo import serve_churn

    report, service = serve_churn(
        topology, events, table_size=table_size,
        frequency_hz=frequency_hz, name=name, seed=seed,
        record_timeline=True, telemetry=telemetry, monitor=monitor)
    timeline = service.timeline(horizon_slots=horizon_slots)
    if backend_factory is None:
        def backend_factory(config):
            return FlitLevelBackend(config, telemetry=telemetry)
    verdict = verify_timeline(timeline, replay_traffic(timeline),
                              backend_factory=backend_factory,
                              scenario=name, monitor=monitor)
    return ReplayOutcome(report=report, service=service,
                         timeline=timeline, verdict=verdict)


def run_replay_demo(*, n_events: int = 240, n_slots: int = 3000,
                    seed: int = 2009, telemetry=None, monitor=None
                    ) -> tuple[dict[str, object], str, bool]:
    """Run the replay demo twice; return (record, json, byte-identical?).

    The returned record carries the full timeline (every transition with
    its route and slots) plus the churn-vs-solo verdict per backend; the
    JSON string is its canonical serialisation.  ``telemetry``
    instruments the *first* run only (control plane and flit backend),
    so byte-identity doubles as the telemetry-leak check.  ``monitor``
    arms the conformance watchdog on the first run's flit-level
    verification; the resulting
    :class:`~repro.telemetry.monitor.ConformanceReport` is stashed
    under the record's ``"_conformance"`` key after the canonical JSON
    is rendered, preserving byte-identity monitor-on vs monitor-off.
    """
    # Local imports: campaign.spec imports service.churn which would
    # cycle through the package __init__s at module scope.
    from repro.campaign.spec import derive_seed
    from repro.service.churn import ChurnWorkload
    from repro.service.demo import (DEMO_FREQUENCY_HZ, DEMO_TABLE_SIZE,
                                    demo_churn_spec)
    from repro.telemetry.hub import coalesce, run_twice

    with coalesce(telemetry).phase("workload"):
        # The serve demo's operating point, on a denser (relative) mesh.
        topology = mesh(3, 3, nis_per_router=2)
        # Truncation leaves some sessions open at the cut — the
        # replay's survivors.
        workload = ChurnWorkload(demo_churn_spec(n_events), topology,
                                 derive_seed(seed, "replay-demo"))
        events = workload.events(limit=n_events)

    def one_run(run_telemetry, run_monitor):
        outcome = replay_churn(
            topology, events, table_size=DEMO_TABLE_SIZE,
            frequency_hz=DEMO_FREQUENCY_HZ, horizon_slots=n_slots,
            name="replay-demo", seed=seed, telemetry=run_telemetry,
            monitor=run_monitor)
        timeline = outcome.timeline
        with coalesce(run_telemetry).phase("best-effort"):
            be = verify_timeline(timeline, replay_traffic(timeline),
                                 backend_factory=BestEffortBackend,
                                 scenario="replay-demo")
        return {
            "demo": "replay",
            "seed": seed,
            "n_events": len(events),
            "horizon_slots": n_slots,
            "timeline": timeline.to_record(),
            "verdicts": {"flit": outcome.verdict.to_record(),
                         "be": be.to_record()},
        }, outcome.verdict.conformance

    return run_twice(one_run, telemetry=telemetry, monitor=monitor,
                     phases=("replay", "verify"))
