"""HiddenPopulation schedule tests."""

from __future__ import annotations

import datetime
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scan.hidden import HiddenPopulation, weekday_factor

START = datetime.date(2013, 1, 1)
END = datetime.date(2015, 3, 31)
HB = datetime.date(2014, 4, 7)
DAY = datetime.timedelta(days=1)


class ReferencePopulation:
    """The oracle for :class:`HiddenPopulation`: the same schedule kept
    as one dict entry per day, with weights and shares recomputed for
    every instance."""

    def __init__(
        self,
        target_end,
        window_start,
        window_end,
        heartbleed_date=None,
        heartbleed_boost=6.0,
        heartbleed_decay_days=14.0,
        churn=0.65,
        growth=0.06,
    ):
        self.window_start = window_start
        self.window_end = window_end
        days = (window_end - window_start).days + 1
        dates = [window_start + datetime.timedelta(days=i) for i in range(days)]

        weights = []
        for day in dates:
            weight = weekday_factor(day)
            if heartbleed_date is not None and day >= heartbleed_date:
                age = (day - heartbleed_date).days
                weight *= 1.0 + heartbleed_boost * math.exp(
                    -age / heartbleed_decay_days
                )
            weights.append(weight)
        total_weight = sum(weights)

        additions_total = round(target_end * churn)
        self._additions = {}
        allocated = 0
        for day, weight in zip(dates, weights):
            amount = int(additions_total * weight / total_weight)
            self._additions[day] = amount
            allocated += amount
        remainder = additions_total - allocated
        for day, _ in sorted(zip(dates, weights), key=lambda pair: -pair[1])[
            : max(0, remainder)
        ]:
            self._additions[day] += 1

        removals_total = additions_total - round(target_end * growth)
        self._removals = {}
        per_day = removals_total // days
        extra = removals_total - per_day * days
        for i, day in enumerate(dates):
            self._removals[day] = per_day + (1 if i < extra else 0)

        net = sum(self._additions.values()) - sum(self._removals.values())
        self.initial_count = target_end - net

        self._cumulative = {}
        running = self.initial_count
        for day in dates:
            running += self._additions[day] - self._removals[day]
            self._cumulative[day] = running

    def additions_on(self, day):
        return self._additions.get(day, 0)

    def removals_on(self, day):
        return self._removals.get(day, 0)

    def count_at(self, day):
        if day < self.window_start:
            return self.initial_count
        if day > self.window_end:
            day = self.window_end
        return self._cumulative[day]


#: (window_start, window_end, heartbleed_date): ending before, spanning,
#: and starting after the Heartbleed date, and with no Heartbleed date.
WINDOWS = [
    (datetime.date(2012, 6, 1), datetime.date(2014, 3, 1), HB),
    (START, END, HB),
    (datetime.date(2014, 6, 15), datetime.date(2015, 12, 31), HB),
    (START, END, None),
]


class TestMatchesReference:
    @given(
        target=st.integers(min_value=0, max_value=200_000),
        window=st.sampled_from(WINDOWS),
    )
    @settings(max_examples=60, deadline=None)
    def test_every_day_matches_the_reference(self, target, window):
        start, end, heartbleed = window
        population = HiddenPopulation(target, start, end, heartbleed_date=heartbleed)
        reference = ReferencePopulation(
            target, start, end, heartbleed_date=heartbleed
        )
        assert population.initial_count == reference.initial_count
        day = start - 3 * DAY
        while day <= end + 3 * DAY:
            assert population.count_at(day) == reference.count_at(day), day
            assert population.additions_on(day) == reference.additions_on(day), day
            assert population.removals_on(day) == reference.removals_on(day), day
            day += DAY

    @given(
        target=st.integers(min_value=0, max_value=200_000),
        window=st.sampled_from(WINDOWS),
    )
    @settings(max_examples=20, deadline=None)
    def test_active_days_are_the_nonzero_days(self, target, window):
        start, end, heartbleed = window
        population = HiddenPopulation(target, start, end, heartbleed_date=heartbleed)
        expected = []
        day = start
        while day <= end:
            added, removed = population.additions_on(day), population.removals_on(day)
            if added or removed:
                expected.append((day.toordinal(), added, removed))
            day += DAY
        columns = population.active_days()
        assert [column.dtype for column in columns] == [np.dtype(np.int64)] * 3
        assert list(zip(*(column.tolist() for column in columns))) == expected

    def test_shape_parameters_match_the_reference(self):
        kwargs = dict(
            heartbleed_date=HB,
            heartbleed_boost=3.0,
            heartbleed_decay_days=30.0,
            churn=0.9,
            growth=0.2,
        )
        population = HiddenPopulation(54_321, START, END, **kwargs)
        reference = ReferencePopulation(54_321, START, END, **kwargs)
        day = START
        while day <= END:
            assert population.count_at(day) == reference.count_at(day)
            assert population.additions_on(day) == reference.additions_on(day)
            day += DAY


class TestSchedule:
    def test_exact_target_at_end(self):
        population = HiddenPopulation(10_000, START, END, heartbleed_date=HB)
        assert population.count_at(END) == 10_000

    def test_count_before_window_is_initial(self):
        population = HiddenPopulation(10_000, START, END)
        assert population.count_at(START - datetime.timedelta(days=30)) == (
            population.initial_count
        )

    def test_count_after_window_clamps(self):
        population = HiddenPopulation(10_000, START, END)
        later = END + datetime.timedelta(days=100)
        assert population.count_at(later) == 10_000

    def test_counts_never_negative(self):
        population = HiddenPopulation(500, START, END, heartbleed_date=HB)
        day = START
        while day <= END:
            assert population.count_at(day) >= 0
            day += datetime.timedelta(days=31)

    def test_weekly_pattern_in_additions(self):
        population = HiddenPopulation(100_000, START, END)
        weekdays, weekends = [], []
        day = datetime.date(2013, 6, 3)  # a Monday, pre-Heartbleed
        for i in range(28):
            additions = population.additions_on(day + datetime.timedelta(days=i))
            if (day + datetime.timedelta(days=i)).weekday() < 5:
                weekdays.append(additions)
            else:
                weekends.append(additions)
        assert sum(weekdays) / len(weekdays) > 1.8 * sum(weekends) / len(weekends)

    def test_heartbleed_burst(self):
        population = HiddenPopulation(100_000, START, END, heartbleed_date=HB)
        # Compare the same weekday before and right after Heartbleed.
        before = population.additions_on(HB - datetime.timedelta(days=14))
        after = population.additions_on(HB)
        assert after > 3 * before

    def test_zero_target(self):
        population = HiddenPopulation(0, START, END)
        assert population.count_at(END) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            HiddenPopulation(-1, START, END)
        with pytest.raises(ValueError):
            HiddenPopulation(10, END, START)
        with pytest.raises(ValueError):
            HiddenPopulation(10, START, END, churn=0.1, growth=0.5)

    @given(st.integers(min_value=0, max_value=2_000_000))
    @settings(max_examples=20, deadline=None)
    def test_exactness_property(self, target):
        population = HiddenPopulation(target, START, END, heartbleed_date=HB)
        assert population.count_at(END) == target

    @given(st.integers(min_value=100, max_value=50_000))
    @settings(max_examples=10, deadline=None)
    def test_conservation_property(self, target):
        """initial + sum(additions) - sum(removals) == count_at(end)."""
        population = HiddenPopulation(target, START, END)
        total = population.initial_count
        day = START
        while day <= END:
            total += population.additions_on(day) - population.removals_on(day)
            day += datetime.timedelta(days=1)
        assert total == target


def test_weekday_factor_shape():
    monday = datetime.date(2014, 6, 2)
    saturday = datetime.date(2014, 6, 7)
    assert weekday_factor(monday) > 2 * weekday_factor(saturday)
