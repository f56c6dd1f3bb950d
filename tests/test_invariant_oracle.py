"""Differential tests of the journaled composability check.

:class:`ReferenceInvariantChecker` is the O(active) scan the service ran
after every transition before :class:`Allocation` grew a mutation
journal: it snapshots every running session and compares all of them
after each transition.  It is kept here, logic and messages unchanged,
as the oracle the journaled :class:`CompositionInvariantChecker` must
agree with — including on allocations corrupted behind the service's
back.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.allocation import (Allocation, ChannelAllocation,
                                   SlotAllocator)
from repro.core.application import Application
from repro.core.connection import MB, ChannelSpec
from repro.core.exceptions import AllocationError, ConfigurationError
from repro.core.reconfiguration import ReconfigurationManager
from repro.core.slot_table import mask_to_slots
from repro.faults.model import FaultSchedule, FaultSpec
from repro.service import (DEFAULT_CLASSES, ChurnSpec, ChurnWorkload,
                           CompositionInvariantChecker, SessionService,
                           merge_events)
from repro.topology.builders import mesh
from repro.topology.mapping import round_robin

VALIDATE_EVERY = 7


class ReferenceInvariantChecker:
    """The O(active) composability scan, as the service once ran it."""

    def __init__(self, allocation: Allocation, *,
                 validate_every: int = 512):
        self.allocation = allocation
        self.validate_every = validate_every
        self.transitions_checked = 0
        self.full_validations = 0
        self.violations: list[str] = []
        self._expected = dict(allocation.channels)
        self._since_validate = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def check_transition(self, changed: str) -> bool:
        self.transitions_checked += 1
        actual = self.allocation.channels
        clean = True
        for name, expected_ca in self._expected.items():
            if name == changed:
                continue
            current = actual.get(name)
            if current is expected_ca:
                continue
            if (current is None
                    or current.slots != expected_ca.slots
                    or current.path.link_keys()
                    != expected_ca.path.link_keys()):
                clean = False
                self.violations.append(
                    f"transition on {changed!r} disturbed running "
                    f"session {name!r}")
        if len(actual) - (changed in actual) \
                != len(self._expected) - (changed in self._expected):
            for name in actual:
                if name != changed and name not in self._expected:
                    clean = False
                    self.violations.append(
                        f"transition on {changed!r} materialised "
                        f"unexpected session {name!r}")
        if changed in actual:
            self._expected[changed] = actual[changed]
        else:
            self._expected.pop(changed, None)
        self._since_validate += 1
        if self._since_validate >= self.validate_every:
            clean = self._full_validate() and clean
        return clean

    def final_check(self) -> dict[str, object]:
        self._full_validate()
        return {
            "ok": self.ok,
            "transitions_checked": self.transitions_checked,
            "full_validations": self.full_validations,
            "violations": list(self.violations),
        }

    def _full_validate(self) -> bool:
        self._since_validate = 0
        self.full_validations += 1
        try:
            self.allocation.validate()
            return True
        except AllocationError as exc:
            self.violations.append(f"full validation failed: {exc}")
            return False


def _events(topology, seed: int):
    churn = ChurnWorkload(ChurnSpec(n_sessions=40,
                                    arrival_rate_per_s=4000.0),
                          topology, seed)
    faults = FaultSchedule(FaultSpec(n_faults=2, fault_rate_per_s=400.0,
                                     mean_repair_s=0.002),
                           topology, seed)
    return merge_events(churn.events(), faults.events())


def _paired_service(topology):
    """A service whose every transition is also run by the oracle.

    Returns the service, the oracle, and the per-transition log of
    ``(changed, journaled violations, reference violations)``.
    """
    service = SessionService(topology, table_size=16, frequency_hz=500e6,
                             record_events=False,
                             validate_every=VALIDATE_EVERY)
    journaled = service.checker
    reference = ReferenceInvariantChecker(service.allocation,
                                          validate_every=VALIDATE_EVERY)
    log: list[tuple[str, list[str], list[str]]] = []
    check = journaled.check_transition

    def both(changed: str) -> bool:
        n_j, n_r = len(journaled.violations), len(reference.violations)
        clean = check(changed)
        assert clean == reference.check_transition(changed)
        log.append((changed, sorted(journaled.violations[n_j:]),
                    sorted(reference.violations[n_r:])))
        return clean

    journaled.check_transition = both
    return service, reference, log


def _corrupt(service: SessionService, kind: str, pick: int,
             serial: int) -> bool:
    """Mutate the allocation behind the service's back.

    ``release`` drops a running bystander (and hides it from the
    service, which would otherwise fail releasing it later);
    ``foreign`` commits a session the service never admitted;
    ``replace`` swaps a bystander's record for an equal copy, which
    neither checker may flag.  Returns whether a disturbance that must
    be flagged was made.
    """
    allocation = service.allocation
    if kind == "foreign":
        nis = service.topology.nis
        src, dst = nis[pick % len(nis)], nis[(pick + 1) % len(nis)]
        path = service.allocator.shortest_candidates(src, dst)[0]
        free = mask_to_slots(service.allocator.free_injection_mask(
            allocation, path))
        if not free:
            return False
        spec = DEFAULT_CLASSES[0].channel_spec(f"foreign{serial}", src,
                                               dst)
        allocation.commit(ChannelAllocation(spec=spec, path=path,
                                            slots=(free[0],)))
        return True
    running = sorted(service.active)
    if not running:
        return False
    victim = running[pick % len(running)]
    ca = allocation.release(victim)
    if kind == "release":
        del service.active[victim]
        return True
    allocation.commit(ChannelAllocation(spec=ca.spec, path=ca.path,
                                        slots=ca.slots))
    return False


class TestDifferentialOracle:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2 ** 16),
           corruptions=st.lists(
               st.tuples(st.integers(0, 79),
                         st.sampled_from(("release", "foreign",
                                          "replace")),
                         st.integers(0, 10 ** 6)),
               max_size=5))
    def test_journal_flags_exactly_what_the_scan_flags(self, seed,
                                                       corruptions):
        topology = mesh(2, 2, nis_per_router=2)
        service, reference, log = _paired_service(topology)
        plan: dict[int, list[tuple[str, int]]] = {}
        for step, kind, pick in corruptions:
            plan.setdefault(step, []).append((kind, pick))
        disturbed_at = None
        for step, event in enumerate(_events(topology, seed)):
            for serial, (kind, pick) in enumerate(plan.get(step, ())):
                if _corrupt(service, kind, pick, step * 10 + serial) \
                        and disturbed_at is None:
                    disturbed_at = len(log)
            service.process(event)
        for changed, journaled, expected in log:
            assert journaled == expected, changed
        final = service.report().invariant
        oracle = reference.final_check()
        assert sorted(final["violations"]) == sorted(oracle["violations"])
        assert {k: v for k, v in final.items() if k != "violations"} \
            == {k: v for k, v in oracle.items() if k != "violations"}
        # A disturbance followed by any transition is caught.
        assert final["ok"] == (disturbed_at is None
                               or disturbed_at == len(log))

    @pytest.mark.parametrize("seed", [1, 7, 2009])
    def test_clean_runs_agree(self, seed):
        topology = mesh(2, 2, nis_per_router=2)
        service, reference, log = _paired_service(topology)
        for event in _events(topology, seed):
            service.process(event)
        final = service.report().invariant
        assert final == reference.final_check()
        assert final["ok"]
        assert final["transitions_checked"] == len(log) > 0
        assert final["full_validations"] >= 2

    def test_released_bystander_flagged_until_rerecorded(self):
        """A missing bystander is flagged after every later transition."""
        topology = mesh(2, 2, nis_per_router=2)
        allocator = SlotAllocator(topology, table_size=16,
                                  frequency_hz=500e6)
        allocation = Allocation(topology, 16, 500e6, allocator.fmt)
        journaled = CompositionInvariantChecker(allocation)
        reference = ReferenceInvariantChecker(allocation)
        nis = topology.nis
        for i in range(3):
            spec = DEFAULT_CLASSES[0].channel_spec(f"s{i}", nis[i],
                                                   nis[i + 3])
            path = allocator.shortest_candidates(nis[i], nis[i + 3])[0]
            free = mask_to_slots(allocator.free_injection_mask(allocation,
                                                               path))
            allocation.commit(ChannelAllocation(spec=spec, path=path,
                                                slots=(free[0],)))
            for checker in (journaled, reference):
                assert checker.check_transition(f"s{i}")
        allocation.release("s0")
        for changed in ("s1", "s2", "s0", "s1"):
            assert journaled.check_transition(changed) \
                == reference.check_transition(changed)
        assert journaled.violations == reference.violations == [
            "transition on 's1' disturbed running session 's0'",
            "transition on 's2' disturbed running session 's0'",
        ]


class TestReadOnlyChannels:
    def test_channels_view_rejects_mutation(self):
        topology = mesh(2, 2, nis_per_router=1)
        allocator = SlotAllocator(topology, table_size=8,
                                  frequency_hz=500e6)
        allocation = Allocation(topology, 8, 500e6, allocator.fmt)
        src, dst = topology.nis[0], topology.nis[1]
        ca = ChannelAllocation(
            spec=DEFAULT_CLASSES[0].channel_spec("x", src, dst),
            path=allocator.shortest_candidates(src, dst)[0], slots=(0,))
        with pytest.raises(TypeError):
            allocation.channels["x"] = ca
        allocation.commit(ca)
        with pytest.raises(TypeError):
            del allocation.channels["x"]
        assert allocation.channels["x"] is ca
        # The view is stored once, not rebuilt per access.
        assert allocation.channels is allocation.channels

    def test_second_journal_reader_rejected(self):
        topology = mesh(2, 2, nis_per_router=1)
        allocation = SlotAllocator(topology, table_size=8,
                                   frequency_hz=500e6).allocate(
            [], round_robin(["ip0"], topology))
        CompositionInvariantChecker(allocation)
        with pytest.raises(ConfigurationError):
            CompositionInvariantChecker(allocation)


class TestJournalBounded:
    def test_unobserved_allocations_keep_no_journal(self):
        topology = mesh(2, 2, nis_per_router=1)
        ips = [f"ip{i}" for i in range(8)]
        mapping = round_robin(ips, topology)
        allocator = SlotAllocator(topology, table_size=16,
                                  frequency_hz=500e6)
        offline = allocator.allocate(
            [ChannelSpec("c0", "ip0", "ip1", 40 * MB),
             ChannelSpec("c1", "ip2", "ip3", 40 * MB)], mapping)
        assert offline.journal is None
        manager = ReconfigurationManager(allocator, mapping)
        for name, pairs in (("A", [("ip0", "ip1")]),
                            ("B", [("ip4", "ip5"), ("ip6", "ip7")])):
            manager.start_application(Application(name, tuple(
                ChannelSpec(f"{name}_c{i}", src, dst, 40 * MB,
                            application=name)
                for i, (src, dst) in enumerate(pairs))))
        manager.stop_application("A")
        assert manager.allocation.journal is None
        link = next(key for key in topology.iter_link_keys()
                    if key[0].startswith("r") and key[1].startswith("r"))
        rebuilt = offline.rebuild_excluding([link])
        assert rebuilt.allocation.journal is None
        assert offline.journal is None

    def test_service_journal_holds_only_the_changed_session(self):
        topology = mesh(2, 2, nis_per_router=2)
        service = SessionService(topology, table_size=16,
                                 frequency_hz=500e6, record_events=False)
        check = service.checker.check_transition
        seen: list[tuple[str, tuple[str, ...]]] = []

        def inspect(changed: str) -> bool:
            seen.append((changed, tuple(service.allocation.journal)))
            return check(changed)

        service.checker.check_transition = inspect
        report = service.run(_events(topology, 3))
        assert report.invariant["ok"]
        assert report.faults["n_evicted"] > 0
        assert seen
        for changed, touched in seen:
            assert touched in ((), (changed,))
        assert service.allocation.journal == {}
