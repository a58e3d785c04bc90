"""The benchmark's own arithmetic: percentiles, the max_qps ladder, span
self time and the per-generation identity rule."""

import math

import pytest

from perfbench.stats import (
    allowed_generations,
    capacity,
    highest_passing,
    interquartile_mean,
    percentile,
    rung_passes,
    self_times,
    summarize,
    supported_percentile,
)


class TestPercentiles:
    def test_interpolates_between_closest_ranks(self):
        assert percentile([1, 2, 3, 4], 50) == 2.5
        assert percentile([4, 1, 3, 2], 0) == 1
        assert percentile([4, 1, 3, 2], 100) == 4
        assert percentile(list(range(11)), 90) == pytest.approx(9.0)

    def test_single_sample(self):
        assert percentile([7.0], 99) == 7.0

    def test_rejects_empty_and_out_of_range(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1.0], 101)

    @pytest.mark.parametrize(
        "n, expected", [(10_000, 99.9), (1_000, 99.0), (999, 90.0), (100, 90.0), (20, 50.0), (19, None)]
    )
    def test_supported_percentile_needs_ten_samples_beyond(self, n, expected):
        assert supported_percentile(n) == expected

    def test_interquartile_mean_drops_both_tails(self):
        assert interquartile_mean([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 100.0]) == pytest.approx(4.5)
        assert interquartile_mean([60.0, 100.0] * 9) == pytest.approx(80.0)
        assert interquartile_mean([3.0, 5.0]) == 4.0
        with pytest.raises(ValueError):
            interquartile_mean([])

    def test_summary_reports_count_and_milliseconds(self):
        summary = summarize([0.001] * 90 + [0.010] * 10)
        assert summary["n"] == 100
        assert summary["p50_ms"] == pytest.approx(1.0)
        assert summary["p99_ms"] == pytest.approx(10.0)
        assert summary["supported_pct"] == 90.0
        assert summarize([]) == {"n": 0}


class TestLadder:
    def test_rung_passes_on_p90_under_limit(self):
        assert rung_passes([0.001] * 100, limit_ms=5.0, rate=1000, backlog_end=2)
        assert not rung_passes([0.001] * 80 + [0.010] * 20, limit_ms=5.0, rate=1000, backlog_end=2)

    def test_growing_backlog_fails_even_with_p90_under_the_limit(self):
        # at 4000 q/s a 5 ms limit holds about 20 outstanding requests
        assert rung_passes([0.001] * 100, limit_ms=5.0, rate=4000, backlog_end=20)
        assert not rung_passes([0.001] * 100, limit_ms=5.0, rate=4000, backlog_end=21)

    def test_aborted_or_empty_rung_fails(self):
        assert not rung_passes([0.001] * 10, limit_ms=5.0, rate=1000, backlog_end=0, aborted=True)
        assert not rung_passes([], limit_ms=5.0, rate=1000, backlog_end=0)

    def test_binary_search_finds_highest_passing_rung(self):
        ladder = [float(rate) for rate in range(2000, 12001, 1000)]
        best, probes = highest_passing(ladder, lambda rate: rate <= 7500)
        assert best == 7000.0
        assert len(probes) <= len(ladder).bit_length()
        assert all(passed == (rate <= 7500) for rate, passed in probes)

    def test_lowest_failing_and_all_passing(self):
        ladder = [1000.0, 2000.0, 4000.0]
        assert highest_passing(ladder, lambda rate: False)[0] is None
        assert highest_passing(ladder, lambda rate: True)[0] == 4000.0

    def test_ladder_must_ascend(self):
        with pytest.raises(ValueError):
            highest_passing([2.0, 1.0], lambda rate: True)

    def test_capacity_interpolates_to_the_limit(self):
        ladder = [2000.0, 3000.0, 4000.0]
        p90 = {2000.0: 3.0, 3000.0: 4.0, 4000.0: 8.0}
        assert capacity(ladder, p90, 3000.0, limit_ms=5.0) == pytest.approx(3250.0)

    def test_capacity_saturates_and_scales_below_the_ladder(self):
        ladder = [2000.0, 3000.0]
        assert capacity(ladder, {3000.0: 4.0}, 3000.0, limit_ms=5.0) == 3000.0
        assert capacity(ladder, {2000.0: 10.0}, None, limit_ms=5.0) == pytest.approx(1000.0)
        # a probe that failed for another reason than p90 (backlog) stays at the rung
        assert capacity(ladder, {2000.0: 4.0, 3000.0: 3.5}, 2000.0, limit_ms=5.0) == 2000.0


def _span(span_id, start, end, parent=None):
    return {"id": span_id, "start": start, "end": end, "parent": parent}


class TestSelfTime:
    def test_leaf_self_time_is_its_duration(self):
        assert self_times([_span(0, 1.0, 3.5)]) == {0: 2.5}

    def test_children_are_subtracted(self):
        own = self_times([_span(0, 0.0, 10.0), _span(1, 1.0, 3.0, 0), _span(2, 5.0, 6.0, 0)])
        assert own[0] == pytest.approx(7.0)
        assert own[1] == pytest.approx(2.0)

    def test_overlapping_children_count_once(self):
        own = self_times([_span(0, 0.0, 10.0), _span(1, 1.0, 4.0, 0), _span(2, 3.0, 6.0, 0)])
        assert own[0] == pytest.approx(5.0)

    def test_child_outside_its_parent_is_clipped(self):
        own = self_times([_span(0, 2.0, 4.0), _span(1, 3.0, 9.0, 0)])
        assert own[0] == pytest.approx(1.0)

    def test_only_direct_children_are_subtracted(self):
        own = self_times([_span(0, 0.0, 10.0), _span(1, 2.0, 8.0, 0), _span(2, 3.0, 5.0, 1)])
        assert own[0] == pytest.approx(4.0)
        assert own[1] == pytest.approx(4.0)


class TestGenerations:
    RELOADS = [(10.0, 11.0), (20.0, 21.0)]

    def test_no_reload_means_the_base_generation(self):
        assert allowed_generations(1.0, 2.0, []) == {1}

    def test_before_a_reload_only_the_old_generation(self):
        assert allowed_generations(1.0, 9.0, self.RELOADS) == {1}

    def test_sent_after_the_ack_must_match_the_new_generation(self):
        assert allowed_generations(11.5, 12.0, self.RELOADS) == {2}
        assert allowed_generations(30.0, 31.0, self.RELOADS) == {3}

    def test_overlapping_a_reload_may_match_either(self):
        assert allowed_generations(10.2, 10.4, self.RELOADS) == {1, 2}
        assert allowed_generations(9.0, 10.5, self.RELOADS) == {1, 2}
        assert allowed_generations(10.5, 12.0, self.RELOADS) == {1, 2}

    def test_spanning_two_reloads(self):
        assert allowed_generations(9.0, 22.0, self.RELOADS) == {1, 2, 3}

    def test_base_generation_offset(self):
        assert allowed_generations(12.0, 13.0, self.RELOADS[:1], base=4) == {5}

    def test_unbounded_ends(self):
        assert allowed_generations(-math.inf, math.inf, self.RELOADS) == {1, 2, 3}
