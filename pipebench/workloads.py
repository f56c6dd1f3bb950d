"""The benchmark's four seeded, closed-loop workloads.

Each workload builds its inputs from the seed in :meth:`setup` (which
also runs one reference pass: it warms caches and fixes the digest that
every later pass must reproduce), then runs timed passes through the
public API.  A pass is one complete scenario: a fresh
``SessionService`` over the whole event stream, one churn + faults
pipeline from the healthy baseline to the conformance report, or one
campaign grid.  One caller drives each pass and hands over the next
event only after the previous one returned.

With a :class:`~tracing.Tracer` a pass wraps the public methods of the
objects it builds and returns per-layer metrics; without one it wraps
nothing and only the end-to-end figures are meaningful.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import time
from contextlib import nullcontext

from repro.campaign import CampaignRunner, CampaignSpec
from repro.campaign.presets import (churn_campaign, design_campaign,
                                    fault_campaign)
from repro.campaign.spec import derive_seed
from repro.core.allocation import SlotAllocator
from repro.faults.model import FaultSchedule, FaultSpec
from repro.service import (ChurnSpec, ChurnWorkload, SessionService,
                           abusive_tenant_mix, merge_events)
from repro.service.fairness_demo import demo_fairness_spec
from repro.simulation.backend import FlitLevelBackend
from repro.simulation.composability import replay_traffic, verify_timeline
from repro.telemetry import monitor as monitor_module
from repro.telemetry.hub import Telemetry
from repro.telemetry.monitor import MonitorSpec
from repro.topology.builders import concentrated_mesh, mesh

_now = time.perf_counter

#: Fault multiplier applied to the fault-campaign preset's adversaries.
FAULT_SCALE = 6

#: Section VII operating point shared by every workload.
TABLE_SIZE = 32
FREQUENCY_HZ = 500e6

#: Workload sizes.  ``full`` is what the benchmark measures; ``smoke``
#: keeps the benchmark's own tests to a few seconds.
SIZES = {
    "full": {
        "churn_sessions": 10000, "wfq_sessions": 10000,
        "pipeline_scenarios": 4, "pipeline_events": 4000,
        "pipeline_faults": 40, "pipeline_slots": 40000,
        "campaign_sessions": 100,
        "campaign_fault_sessions": 40, "campaign_slots": 800,
        "campaign_seeds": 4, "campaign_design": None,
    },
    "smoke": {
        "churn_sessions": 200, "wfq_sessions": 200,
        "pipeline_scenarios": 2, "pipeline_events": 300,
        "pipeline_faults": 4, "pipeline_slots": 3000,
        "campaign_sessions": 30,
        "campaign_fault_sessions": 20, "campaign_slots": 400,
        "campaign_seeds": 1, "campaign_design": 2,
    },
}

#: Layer metrics of the traced run, with units.  Every workload reports
#: all of them; a layer the workload does not run reads 0.
LAYER_UNITS = {
    "admission.calls": "count", "admission.busy_s": "s",
    "admission.self_s": "s", "admission.mean_us": "us",
    "admission.reject_ratio": "ratio", "admission.path_hit_ratio": "ratio",
    "admission.release_busy_s": "s",
    "allocator.route_quotes_calls": "count",
    "allocator.route_quotes_busy_s": "s",
    "invariant.checks": "count", "invariant.busy_s": "s",
    "invariant.mean_us": "us", "invariant.full_validations": "count",
    "policy.decisions": "count", "policy.busy_s": "s",
    "policy.shed_ratio": "ratio",
    "service.self_s": "s",
    "design.runs": "count", "design.pruned_ratio": "ratio",
    "campaign.execute_s": "s", "campaign.worker_busy_ratio": "ratio",
    "campaign.batches": "count", "campaign.steals": "count",
    "campaign.median_run_s": "s",
}

#: Layers only pipeline-faults runs in the benchmark's own process; its
#: traced run reports them besides :data:`LAYER_UNITS`.
PIPELINE_LAYER_UNITS = {
    "faults.events": "count", "faults.busy_s": "s", "faults.self_s": "s",
    "faults.evicted": "count", "faults.reallocated_ratio": "ratio",
    "timeline.records": "count", "timeline.record_busy_s": "s",
    "timeline.build_s": "s", "timeline.epochs": "count",
    "executor.runs": "count", "executor.busy_s": "s",
    "executor.slots_per_s": "1/s",
    "verify.busy_s": "s", "verify.self_s": "s",
    "verify.survivors": "count", "verify.identical_ratio": "ratio",
    "monitor.busy_s": "s", "monitor.rows": "count",
}


def sha256(text: str) -> str:
    """Hex digest of one canonical output."""
    return hashlib.sha256(text.encode()).hexdigest()


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


@dataclasses.dataclass
class PassResult:
    """What one closed-loop pass produced."""

    #: Host seconds for the whole pass.
    wall_s: float
    #: Host seconds spent handing session/fault events to the service.
    loop_s: float
    #: Session and fault events processed during ``loop_s``.
    events: int
    #: Host seconds per operation (per open event, or per campaign run).
    op_s: list
    #: Operations attempted: opens plus fault events, or campaign runs.
    ops: int
    #: Descriptions of every failed correctness check.
    failures: list
    #: sha256 of each canonical output, by name.
    digests: dict
    #: Per-layer metrics (traced passes only).
    layers: dict = dataclasses.field(default_factory=dict)


class Workload:
    """Base class: seeded inputs, a reference pass, timed passes."""

    name = ""
    #: Passes in one cycle of distinct scenarios; runs measure whole
    #: cycles, and the reference pass of set-up is one cycle.
    cycle = 1
    #: Per-layer metrics the traced run reports, with units.
    layer_units = LAYER_UNITS

    def __init__(self, seed: int, size: str = "full",
                 inject: str | None = None):
        self.seed = seed
        self.size = SIZES[size]
        self.inject = inject
        #: Deterministic guard figures, fixed by the reference pass.
        self.accept_rate = 1.0
        self.guarantee_retention = 1.0
        self.reference: dict[str, str] = {}

    def setup(self) -> list:
        """Build the inputs from the seed and run the reference passes."""
        self.build()
        results = [self.run_pass() for _ in range(self.cycle)]
        self.reference = {name: digest for result in results
                          for name, digest in result.digests.items()}
        if self.inject == "tamper-digest":
            name = sorted(self.reference)[0]
            self.reference[name] = "0" * 64
        return results

    def build(self) -> None:
        raise NotImplementedError

    def run_pass(self, tracer=None) -> PassResult:
        raise NotImplementedError

    def check_digests(self, digests: dict, failures: list) -> None:
        """Every canonical output must equal the reference pass's."""
        for name, digest in digests.items():
            if self.reference and self.reference.get(name) != digest:
                failures.append(f"{name} digest differs from the "
                                "reference pass")


def _stage(tracer, name: str):
    return tracer.span(name) if tracer is not None else nullcontext()


def _wrap_service(tracer, service: SessionService) -> None:
    """Time the layers one ``SessionService`` calls into."""
    tracer.wrap(service.admission, "admit", "admission.admit")
    tracer.wrap(service.admission, "release", "admission.release")
    tracer.wrap(service.checker, "check_transition", "invariant.check")
    tracer.wrap(service, "process_fault", "faults.process")
    tracer.wrap(service.allocator, "route_quotes", "allocator.route_quotes")
    # The scheduler is built inside the service; it has no public handle.
    if service._fairness is not None:
        tracer.wrap(service._fairness, "admit_decision", "policy.decide")
    if service.recorder is not None:
        tracer.wrap(service.recorder, "record_start", "timeline.record")
        tracer.wrap(service.recorder, "record_stop", "timeline.record")
        tracer.wrap(service.recorder, "build", "timeline.build")


def _serve(service: SessionService, events, tracer, op_s: list) -> float:
    """Hand ``events`` to ``service`` one by one; return the loop wall.

    Untraced, every open event is timed on its own (a fault event's
    ``kind`` is ``link`` or ``router``); traced, the loop is one
    ``service.run`` span whose children are the layers.
    """
    process = service.process
    start = _now()
    if tracer is None:
        append = op_s.append
        for event in events:
            if event.kind == "open":
                t0 = _now()
                process(event)
                append(_now() - t0)
            else:
                process(event)
    else:
        with tracer.span("service.run"):
            for event in events:
                process(event)
    return _now() - start


def _service_layers(totals: dict, services, reports) -> dict:
    """Per-layer metrics of the service stack from one traced pass."""
    def busy(name):
        return totals.get(name, (0, 0.0, 0.0))

    admit = busy("admission.admit")
    check = busy("invariant.check")
    policy = busy("policy.decide")
    faults = busy("faults.process")
    quotes = busy("allocator.route_quotes")
    rejects = sum(s.admission.rejects for s in services)
    hits = sum(s.admission.path_hits for s in services)
    misses = sum(s.admission.path_misses for s in services)
    n_shed = sum(int(r.totals.get("n_shed", 0)) for r in reports)
    evicted = reallocated = 0
    for report in reports:
        if report.faults:
            evicted += int(report.faults["n_evicted"])
            reallocated += int(report.faults["n_reallocated"])
    return {
        "admission.calls": admit[0],
        "admission.busy_s": admit[1],
        "admission.self_s": admit[2],
        "admission.mean_us": _ratio(admit[1], admit[0]) * 1e6,
        "admission.reject_ratio": _ratio(rejects, admit[0]),
        "admission.path_hit_ratio": _ratio(hits, hits + misses),
        "admission.release_busy_s": busy("admission.release")[1],
        "allocator.route_quotes_calls": quotes[0],
        "allocator.route_quotes_busy_s": quotes[1],
        "invariant.checks": check[0],
        "invariant.busy_s": check[1],
        "invariant.mean_us": _ratio(check[1], check[0]) * 1e6,
        "invariant.full_validations": sum(
            s.checker.full_validations for s in services),
        "policy.decisions": policy[0],
        "policy.busy_s": policy[1],
        "policy.shed_ratio": _ratio(n_shed, policy[0]),
        "service.self_s": busy("service.run")[2],
        "faults.events": faults[0],
        "faults.busy_s": faults[1],
        "faults.self_s": faults[2],
        "faults.evicted": evicted,
        "faults.reallocated_ratio": _ratio(reallocated, evicted),
        "timeline.records": busy("timeline.record")[0],
        "timeline.record_busy_s": busy("timeline.record")[1],
        "timeline.build_s": busy("timeline.build")[1],
    }


class ChurnFcfs(Workload):
    """Section VII mesh near capacity, default QoS mix, FCFS."""

    name = "churn-fcfs"
    arrival_rate_per_s = 12000.0

    def churn_spec(self) -> ChurnSpec:
        return ChurnSpec(n_sessions=self.size["churn_sessions"],
                         arrival_rate_per_s=self.arrival_rate_per_s)

    def service_options(self) -> dict:
        return {}

    def build(self) -> None:
        self.topology = concentrated_mesh(4, 3, nis_per_router=4)
        self.events = ChurnWorkload(
            self.churn_spec(), self.topology,
            derive_seed(self.seed, self.name)).events()
        # One allocator for every pass: its route caches are warmed by
        # the reference pass and shared by each fresh service.
        self.allocator = SlotAllocator(self.topology,
                                       table_size=TABLE_SIZE,
                                       frequency_hz=FREQUENCY_HZ)

    def run_pass(self, tracer=None) -> PassResult:
        start = _now()
        service = SessionService(self.topology, allocator=self.allocator,
                                 record_events=False,
                                 **self.service_options())
        if tracer is not None:
            _wrap_service(tracer, service)
        op_s: list[float] = []
        try:
            loop_s = _serve(service, self.events, tracer, op_s)
        finally:
            if tracer is not None:
                tracer.unwrap_all()
        report = service.report()
        wall_s = _now() - start
        failures: list[str] = []
        if not report.invariant["ok"]:
            failures.append(f"invariant violated: "
                            f"{report.invariant['violations'][:3]}")
        digests = {"service_report": sha256(report.to_json())}
        self.check_digests(digests, failures)
        self.accept_rate = float(report.totals["accept_rate"])
        result = PassResult(
            wall_s=wall_s, loop_s=loop_s, events=len(self.events),
            op_s=op_s, ops=int(report.totals["n_opens"]),
            failures=failures, digests=digests)
        if tracer is not None:
            result.layers = _service_layers(tracer.next_iteration(),
                                            [service], [report])
        return result


class TenantsWfq(ChurnFcfs):
    """One 10x-abusive tenant among three, weighted-fair admission."""

    name = "tenants-wfq"
    arrival_rate_per_s = 18000.0

    def churn_spec(self) -> ChurnSpec:
        return ChurnSpec(
            n_sessions=self.size["wfq_sessions"],
            arrival_rate_per_s=self.arrival_rate_per_s,
            tenants=abusive_tenant_mix(3, floor_opens_per_window=2))

    def service_options(self) -> dict:
        return {"policy": "wfq", "fairness": demo_fairness_spec(),
                "tenants": self.churn_spec().tenants}


class PipelineFaults(Workload):
    """Churn + faults through serve, timeline, replay, verify, monitor.

    The stages follow :func:`repro.faults.demo.run_churn_with_faults`
    on the faults demo's 3x3 mesh, scaled up, with both conformance
    watchdogs armed.  A pass runs one scenario; passes cycle through
    several seeded scenarios, over which the guard figures are pooled
    (which links and routers fail moves one scenario's retention a lot).
    """

    name = "pipeline-faults"
    mean_repair_s = 0.004
    layer_units = {**LAYER_UNITS, **PIPELINE_LAYER_UNITS}

    def build(self) -> None:
        size = self.size
        self.cycle = size["pipeline_scenarios"]
        self.topology = mesh(3, 3, nis_per_router=2)
        self.scenarios = [self._scenario(index)
                          for index in range(self.cycle)]
        self.executors: set[str] = set()
        self._next = 0
        #: Per scenario: (accepted, opens, same-bounds re-admissions,
        #: evictions) of the degraded run.
        self._guards: dict[int, tuple] = {}

    def _scenario(self, index: int):
        """Churn events, fault schedule and their merge for one scenario."""
        size = self.size
        n_events = size["pipeline_events"]
        events = ChurnWorkload(
            ChurnSpec(n_sessions=n_events // 2 + 8), self.topology,
            derive_seed(self.seed, self.name, index, "churn")
        ).events(limit=n_events)
        # Faults are paced over the whole churn trace, at the demo's
        # share of failing routers and its quick repairs.
        schedule = FaultSchedule(
            FaultSpec(n_faults=size["pipeline_faults"],
                      fault_rate_per_s=(size["pipeline_faults"]
                                        / events[-1].time_s),
                      mean_repair_s=self.mean_repair_s,
                      router_fraction=0.25),
            self.topology, derive_seed(self.seed, self.name, index,
                                       "faults"))
        return events, schedule, merge_events(events, schedule.events())

    def _service(self, record_timeline: bool, monitor=None):
        return SessionService(
            self.topology, table_size=TABLE_SIZE,
            frequency_hz=FREQUENCY_HZ, name=self.name,
            record_events=False, record_timeline=record_timeline,
            monitor=monitor)

    def _backend_factory(self, tracer, timeline):
        """Flit backend; records its executor, and may be traced."""
        survivors = timeline.survivors(until=timeline.horizon_slots)
        calls = [0]

        def factory(config):
            backend = FlitLevelBackend(config)
            run = backend.run

            def recorded_run(request):
                calls[0] += 1
                if (self.inject == "diverge" and calls[0] == 1
                        and survivors):
                    # Forced divergence: the churn run (the first of
                    # the two) serves one survivor at half its rate.
                    victim = survivors[0]
                    traffic = dict(request.traffic)
                    traffic[victim] = replay_traffic(
                        timeline, rate_factor=0.5)[victim]
                    request = dataclasses.replace(request,
                                                  traffic=traffic)
                result = run(request)
                self.executors.add(str(result.meta.get("executor")))
                return result

            backend.run = (tracer.timed(recorded_run, "executor.run")
                           if tracer is not None else recorded_run)
            return backend
        return factory

    def run_pass(self, tracer=None) -> PassResult:
        index = self._next % self.cycle
        self._next += 1
        events, schedule, merged = self.scenarios[index]
        spec = MonitorSpec()
        op_s: list[float] = []
        start = _now()
        if tracer is not None:
            tracer.wrap(monitor_module, "timeline_conformance",
                        "monitor.timeline")
        try:
            with _stage(tracer, "pipeline.baseline"):
                healthy = self._service(False)
                if tracer is not None:
                    _wrap_service(tracer, healthy)
                _serve(healthy, events, tracer, [])
                baseline = healthy.report()
            with _stage(tracer, "pipeline.serve"):
                degraded = self._service(True, monitor=spec)
                if tracer is not None:
                    _wrap_service(tracer, degraded)
                loop_s = _serve(degraded, merged, tracer, op_s)
                faulty = degraded.report()
            with _stage(tracer, "pipeline.timeline"):
                timeline = degraded.timeline(
                    horizon_slots=self.size["pipeline_slots"])
            with _stage(tracer, "verify.timeline"):
                verdict = verify_timeline(
                    timeline, replay_traffic(timeline),
                    backend_factory=self._backend_factory(tracer,
                                                          timeline),
                    scenario=self.name, monitor=spec)
            with _stage(tracer, "monitor.quotes"):
                quotes = degraded.conformance_report(scenario=self.name)
        finally:
            if tracer is not None:
                tracer.unwrap_all()
        wall_s = _now() - start

        failures: list[str] = []
        for label, report in (("baseline", baseline), ("faulty", faulty)):
            if not report.invariant["ok"]:
                failures.append(f"{label} invariant violated")
        if verdict.diverged:
            failures.append(f"diverged survivors: {list(verdict.diverged)}")
        for label, conformance in (("timeline", verdict.conformance),
                                   ("quote", quotes)):
            violated = [row.channel for row in conformance.channels
                        if row.verdict == "violated"]
            if violated:
                failures.append(f"{label} conformance violated: "
                                f"{violated}")
        if self.executors != {"compiled"}:
            failures.append(f"replay ran on {sorted(self.executors)}, "
                            "not the compiled executor")
        outputs = {
            "baseline_report": baseline.to_json(),
            "faulty_report": faulty.to_json(),
            "timeline": json.dumps(timeline.to_record(), sort_keys=True),
            "composability": json.dumps(verdict.to_record(),
                                        sort_keys=True),
            "timeline_conformance": verdict.conformance.to_json(),
            "quote_conformance": quotes.to_json(),
        }
        digests = {f"scenario{index}.{name}": sha256(text)
                   for name, text in outputs.items()}
        self.check_digests(digests, failures)
        faults = faulty.faults or {}
        self._guards[index] = (
            int(faulty.totals["n_accepted"]), int(faulty.totals["n_opens"]),
            int(faults.get("n_realloc_same_bounds", 0)),
            int(faults.get("n_evicted", 0)))
        accepted, opens, same_bounds, evicted = (
            sum(column) for column in zip(*self._guards.values()))
        self.accept_rate = _ratio(accepted, opens)
        self.guarantee_retention = (_ratio(same_bounds, evicted)
                                    if evicted else 1.0)
        result = PassResult(
            wall_s=wall_s, loop_s=loop_s, events=len(merged), op_s=op_s,
            ops=int(faulty.totals["n_opens"]) + len(schedule.events()),
            failures=failures, digests=digests)
        if tracer is not None:
            totals = tracer.next_iteration()
            layers = _service_layers(totals, [healthy, degraded],
                                     [baseline, faulty])
            executor = totals.get("executor.run", (0, 0.0, 0.0))
            verify = totals.get("verify.timeline", (0, 0.0, 0.0))
            monitor = [totals.get(name, (0, 0.0, 0.0))[1] for name in
                       ("monitor.timeline", "monitor.quotes")]
            layers.update({
                "timeline.epochs": timeline.n_epochs,
                "executor.runs": executor[0],
                "executor.busy_s": executor[1],
                "executor.slots_per_s": _ratio(
                    executor[0] * timeline.horizon_slots, executor[1]),
                "verify.busy_s": verify[1],
                "verify.self_s": verify[2],
                "verify.survivors": len(verdict.survivors),
                "verify.identical_ratio": _ratio(
                    len(verdict.identical), len(verdict.survivors)),
                "monitor.busy_s": sum(monitor),
                "monitor.rows": (len(verdict.conformance.channels)
                                 + len(quotes.channels)),
            })
            result.layers = layers
        return result


class CampaignSweep(Workload):
    """Reduced design, fault and churn presets in one campaign grid."""

    name = "campaign-sweep"

    def build(self) -> None:
        size = self.size
        base_seed = derive_seed(self.seed, self.name) % (2 ** 31)
        seeds = tuple(range(1, size["campaign_seeds"] + 1))
        # The design problem is the preset's own; the seed varies every
        # run seed, the mapping optimiser's included.
        design = design_campaign().scenarios
        if size["campaign_design"] is not None:
            design = design[:size["campaign_design"]]
        # Three times the preset adversaries' faults, at three times the
        # rate: more evictions per run steady the pooled retention.
        faults = tuple(
            dataclasses.replace(scenario, faults=dataclasses.replace(
                scenario.faults,
                n_faults=FAULT_SCALE * scenario.faults.n_faults,
                fault_rate_per_s=(FAULT_SCALE
                                  * scenario.faults.fault_rate_per_s)))
            for scenario in fault_campaign(
                n_sessions=size["campaign_fault_sessions"],
                n_slots=size["campaign_slots"], seeds=seeds).scenarios)
        churn = churn_campaign(n_sessions=size["campaign_sessions"],
                               seeds=seeds).scenarios
        self.spec = CampaignSpec(name=self.name,
                                 scenarios=design + faults + churn,
                                 seeds=seeds, base_seed=base_seed)
        self.workers = min(2, os.cpu_count() or 1)

    def run_pass(self, tracer=None) -> PassResult:
        # The hub only collects the runner's per-run wall spans.
        hub = Telemetry(self.name)
        start = _now()
        runner = CampaignRunner(self.spec, workers=self.workers,
                                telemetry=hub)
        with _stage(tracer, "campaign.run"):
            result = runner.run()
        wall_s = _now() - start
        records = list(result.iter_records())
        failures: list[str] = []
        if result.n_failed:
            failures.append(f"{result.n_failed} failed campaign runs")
        events = accepted = opens = same_bounds = evicted = 0
        for record in records:
            if record["status"] != "ok" or record["mode"] == "design":
                continue
            body = record["result"]
            totals = body["totals"]
            events += int(totals["n_events"])
            accepted += int(totals["n_accepted"])
            opens += int(totals["n_opens"])
            if not body["invariant"]["ok"]:
                failures.append(f"{record['run_id']}: invariant violated")
            if record["mode"] == "faults":
                if body["composability"]["diverged"]:
                    failures.append(
                        f"{record['run_id']}: diverged survivors")
                if body["faults"]:
                    same_bounds += int(body["faults"]
                                       ["n_realloc_same_bounds"])
                    evicted += int(body["faults"]["n_evicted"])
        self.accept_rate = _ratio(accepted, opens)
        # Pooled over every fault run: evictions re-admitted with bounds
        # no worse than their original quote, over all evictions.
        self.guarantee_retention = _ratio(same_bounds, evicted)
        digests = {"campaign_report": sha256(result.to_json())}
        self.check_digests(digests, failures)
        run_s = [(span.end - span.start) / 1e3 for span in hub.spans
                 if span.track.startswith("worker ")]
        pass_result = PassResult(
            wall_s=wall_s, loop_s=wall_s, events=events, op_s=run_s,
            ops=result.n_runs, failures=failures, digests=digests)
        if tracer is not None:
            # The runner's per-run spans become children of the grid's
            # span, on one track per worker process.
            root_id, _, root_start = tracer.spans[-1][:3]
            for span in hub.spans:
                if span.track.startswith("worker "):
                    tracer.record(span.name, root_start + span.start / 1e3,
                                  root_start + span.end / 1e3, root_id,
                                  span.track)
            tracer.next_iteration()
            meta = result.meta
            design = [r for r in records if r["mode"] == "design"]
            execute_s = float(meta["stages"]["execute_s"])
            busy = sum(entry["wall_s"]
                       for entry in meta["worker_table"].values())
            dispatch = meta.get("dispatch") or {}
            pass_result.layers = {
                "design.runs": len(design),
                "design.pruned_ratio": _ratio(
                    sum(1 for r in design if r["status"] == "pruned"),
                    len(design)),
                "campaign.execute_s": execute_s,
                "campaign.worker_busy_ratio": _ratio(
                    busy, execute_s * int(meta["workers"])),
                "campaign.batches": int(dispatch.get("batches", 0)),
                "campaign.steals": int(dispatch.get("steals", 0)),
                "campaign.median_run_s": float(
                    meta["median_run_wall_s"]),
            }
        return pass_result


WORKLOADS = {cls.name: cls for cls in
             (ChurnFcfs, TenantsWfq, PipelineFaults, CampaignSweep)}
