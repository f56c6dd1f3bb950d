"""Differential oracle for bitmask slot placement.

The reference functions below are the set-based slot placement that
:func:`~repro.core.slot_table.spread_slots` and
:func:`~repro.core.slot_table.choose_slots_fast` used before they moved
to integer free masks, kept verbatim.  Every slot choice the allocator
makes feeds byte-pinned reports, so the mask implementation must return
exactly what the reference returns — ``None`` included — for every
table size (powers of two or not), free set, slot count, gap bound and
anchor.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.exceptions import AllocationError
from repro.core.slot_table import (_assign_near_ideal, _fill_gaps,
                                   _largest_gap, _nearest_in_mask,
                                   choose_slots_fast, ideal_positions,
                                   max_consecutive_gap, slots_to_mask,
                                   spread_slots)

# -- reference: the set-based placement, unchanged ----------------------------


def ref_choose_slots_fast(free, n, size, max_gap=None):
    free_sorted = sorted(set(free))
    if n <= 0:
        raise AllocationError(f"cannot reserve {n} slots")
    if len(free_sorted) < n:
        return None
    chosen = ref_assign_near_ideal(free_sorted, n, size, free_sorted[0])
    if chosen is None:
        return None
    if max_gap is not None and max_consecutive_gap(chosen, size) > max_gap:
        chosen = ref_fill_gaps(chosen, free_sorted, size, max_gap)
    return chosen


def ref_spread_slots(free, n, size, max_gap=None):
    free_sorted = sorted(set(free))
    if n <= 0:
        raise AllocationError(f"cannot reserve {n} slots")
    if len(free_sorted) < n:
        return None

    best = None
    best_gap = size + 1
    anchors = free_sorted if len(free_sorted) <= 64 else free_sorted[::2]
    for anchor in anchors:
        chosen = ref_assign_near_ideal(free_sorted, n, size, anchor)
        if chosen is None:
            continue
        gap = max_consecutive_gap(chosen, size)
        if gap < best_gap:
            best, best_gap = chosen, gap
            if max_gap is None and gap <= (size + n - 1) // n:
                break  # already optimal for n slots
    if best is None:
        return None

    if max_gap is not None and best_gap > max_gap:
        best = ref_fill_gaps(best, free_sorted, size, max_gap)
        if best is None:
            return None
    return best


def ref_assign_near_ideal(free_sorted, n, size, anchor):
    remaining = set(free_sorted)
    chosen = []
    for offset in ideal_positions(n, size):
        target = (anchor + offset) % size
        pick = ref_nearest(remaining, target, size)
        if pick is None:
            return None
        remaining.discard(pick)
        chosen.append(pick)
    return tuple(sorted(chosen))


def ref_nearest(candidates, target, size):
    if not candidates:
        return None
    return min(candidates,
               key=lambda s: (min((s - target) % size, (target - s) % size), s))


def ref_fill_gaps(chosen, free_sorted, size, max_gap):
    slots = set(chosen)
    available = [s for s in free_sorted if s not in slots]
    while max_consecutive_gap(slots, size) > max_gap:
        if not available:
            return None
        start, length = _largest_gap(sorted(slots), size)
        middle = (start + length // 2) % size
        pick = ref_nearest(set(available), middle, size)
        if pick is None:
            return None
        available.remove(pick)
        slots.add(pick)
    return tuple(sorted(slots))


# -- strategies ---------------------------------------------------------------


@st.composite
def placements(draw):
    """A table size, a free set, a slot count, a gap bound and an anchor."""
    size = draw(st.integers(1, 64))
    free = draw(st.sets(st.integers(0, size - 1), max_size=size))
    n = draw(st.integers(1, size + 1))
    max_gap = draw(st.none() | st.integers(1, size))
    anchor = draw(st.integers(0, size - 1))
    return size, free, n, max_gap, anchor


# -- the oracle -----------------------------------------------------------------


@settings(max_examples=400, deadline=None)
@given(placements())
def test_spread_slots_matches_reference(case):
    size, free, n, max_gap, _ = case
    assert spread_slots(free, n, size, max_gap) == \
        ref_spread_slots(free, n, size, max_gap)


@settings(max_examples=400, deadline=None)
@given(placements())
def test_choose_slots_fast_matches_reference(case):
    size, free, n, max_gap, _ = case
    assert choose_slots_fast(free, n, size, max_gap) == \
        ref_choose_slots_fast(free, n, size, max_gap)


@settings(max_examples=400, deadline=None)
@given(placements())
def test_assign_and_fill_match_reference_at_any_anchor(case):
    size, free, n, max_gap, anchor = case
    free_sorted = sorted(free)
    mask = slots_to_mask(free, size)
    chosen = _assign_near_ideal(mask, ideal_positions(n, size), size, anchor)
    assert chosen == ref_assign_near_ideal(free_sorted, n, size, anchor)
    if chosen is not None and max_gap is not None:
        assert _fill_gaps(chosen, mask, size, max_gap) == \
            ref_fill_gaps(chosen, free_sorted, size, max_gap)


@settings(max_examples=400, deadline=None)
@given(placements())
def test_nearest_in_mask_matches_reference(case):
    size, free, _, _, target = case
    if free:
        assert _nearest_in_mask(slots_to_mask(free, size), target, size) \
            == ref_nearest(free, target, size)


def test_cyclic_tie_goes_to_the_lower_slot():
    # Slots 1 and 5 are both two away from 3 (and 7 from 0 wraps to 1).
    assert _nearest_in_mask(slots_to_mask({1, 5}, 8), 3, 8) == 1
    assert _nearest_in_mask(slots_to_mask({1, 7}, 8), 0, 8) == 1
    assert _nearest_in_mask(slots_to_mask({2}, 5), 4, 5) == 2


@pytest.mark.parametrize("place", [spread_slots, choose_slots_fast])
def test_non_positive_slot_count_raises(place):
    with pytest.raises(AllocationError):
        place({0, 1}, 0, 4)
