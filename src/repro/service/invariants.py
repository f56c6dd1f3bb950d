"""Continuous composability checking under churn.

The paper's composability claim — starting or stopping an application
never touches another application's reservations — is proved statically
by :class:`~repro.core.reconfiguration.TransitionReport` for a single
hand-written transition.  Under churn the claim must hold for *every*
transition, so :class:`CompositionInvariantChecker` rides along with the
admission controller and asserts, after each admit/release, that every
other running session's reservations are bit-identical to what they were
before the transition.

Two mechanisms at two costs:

* every transition, O(changed): the checker opens the allocation's
  mutation journal (:meth:`Allocation.open_journal`) and drains it.
  ``channels`` is a read-only view, so :meth:`Allocation.commit` and
  :meth:`Allocation.release` are the only mutators and the journal names
  every session a transition touched, with its record before the first
  touch.  Any touched session other than the one the transition was
  about is compared against that record — identity first (the committed
  objects are frozen), with a value comparison fallback so an
  equal-but-replaced record is not a false alarm.  A session found
  disturbed stays under watch, and is flagged again after every later
  transition, until it is back as recorded or a transition of its own
  re-records it;
* every ``validate_every`` transitions (and at the end of a run): the
  full :meth:`Allocation.validate` re-derivation, which also catches
  divergence between channel records and per-link occupancy tables.

Violations are collected, not raised, so a run always produces a report
whose ``invariant`` section states the verdict.
"""

from __future__ import annotations

from repro.core.allocation import Allocation, ChannelAllocation
from repro.core.exceptions import AllocationError, ConfigurationError

__all__ = ["CompositionInvariantChecker"]


def _same(current: ChannelAllocation | None,
          expected: ChannelAllocation | None) -> bool:
    """Whether a session's record is as expected (absent counts)."""
    if current is expected:
        return True
    return (current is not None and expected is not None
            and current.slots == expected.slots
            and current.path.link_keys() == expected.path.link_keys())


class CompositionInvariantChecker:
    """Asserts per-session isolation across a stream of transitions."""

    def __init__(self, allocation: Allocation, *,
                 validate_every: int = 512):
        if validate_every < 1:
            raise ConfigurationError("validate_every must be >= 1")
        self.allocation = allocation
        self.validate_every = validate_every
        self.transitions_checked = 0
        self.full_validations = 0
        self.violations: list[str] = []
        allocation.open_journal()
        #: Sessions found not as expected, each with its expected record
        #: (``None``: expected absent).  Empty while the invariant holds.
        self._watch: dict[str, ChannelAllocation | None] = {}
        self._since_validate = 0

    @property
    def ok(self) -> bool:
        """True while no transition has disturbed a running session."""
        return not self.violations

    def check_transition(self, changed: str) -> bool:
        """Verify isolation after a transition that touched ``changed``.

        ``changed`` is the session admitted, released, or rejected; every
        other session must be exactly as recorded.  Returns whether this
        transition was clean, and re-records ``changed`` at its
        post-transition state.
        """
        self.transitions_checked += 1
        watch = self._watch
        for name, before in self.allocation.drain_journal().items():
            if name != changed and name not in watch:
                watch[name] = before
        clean = True
        if watch:
            watch.pop(changed, None)
            clean = self._recheck(changed)
        self._since_validate += 1
        if self._since_validate >= self.validate_every:
            clean = self._full_validate() and clean
        return clean

    def final_check(self) -> dict[str, object]:
        """Run a terminal full validation and return the JSON verdict."""
        self._full_validate()
        return {
            "ok": self.ok,
            "transitions_checked": self.transitions_checked,
            "full_validations": self.full_validations,
            "violations": list(self.violations),
        }

    def _recheck(self, changed: str) -> bool:
        """Flag every watched session that is still not as expected."""
        actual = self.allocation.channels
        clean = True
        unexpected: list[str] = []
        # Running bystanders now minus running bystanders expected.
        drift = 0
        for name, expected in list(self._watch.items()):
            current = actual.get(name)
            if _same(current, expected):
                del self._watch[name]
            elif expected is None:
                drift += 1
                unexpected.append(name)
            else:
                drift -= current is None
                clean = False
                self.violations.append(
                    f"transition on {changed!r} disturbed running "
                    f"session {name!r}")
        # Sessions that appeared from nowhere are reported only when the
        # number of running bystanders changed: a swap of one for
        # another already flags the session that went missing.
        if drift:
            for name in unexpected:
                clean = False
                self.violations.append(
                    f"transition on {changed!r} materialised "
                    f"unexpected session {name!r}")
        return clean

    def _full_validate(self) -> bool:
        self._since_validate = 0
        self.full_validations += 1
        try:
            self.allocation.validate()
            return True
        except AllocationError as exc:
            self.violations.append(f"full validation failed: {exc}")
            return False
