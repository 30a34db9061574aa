import pytest

from perfbench.stats import backlog_grew, median, percentile


class TestPercentile:
    def test_carries_sample_count_and_samples_beyond(self):
        p = percentile(range(1000), 99.0)
        assert p.n == 1000
        assert p.beyond == 10

    def test_tail_of_a_small_sample_has_few_samples_beyond(self):
        assert percentile(range(200), 99.0).beyond == 2
        assert percentile(range(200), 90.0).beyond == 20

    def test_single_sample(self):
        p = percentile([3.5], 99.0)
        assert (p.value, p.n, p.beyond) == (3.5, 1, 0)

    def test_rejects_empty_sample_and_bad_rank(self):
        with pytest.raises(ValueError):
            percentile([], 50.0)
        with pytest.raises(ValueError):
            percentile([1.0], 101.0)

    def test_median_and_order_independence(self):
        assert median([5, 1, 3]) == 3
        assert median([4, 1, 3, 2]) == 2.5


class TestBacklog:
    def test_steady_queue_does_not_grow(self):
        samples = [(t / 100, (t * 7) % 5) for t in range(400)]
        assert not backlog_grew(samples, 0.0, 4.0, slack=16)

    def test_burst_that_drains_does_not_grow(self):
        samples = [(t / 100, 60 if 350 <= t < 360 else 1) for t in range(400)]
        assert not backlog_grew(samples, 0.0, 4.0, slack=16)

    def test_linear_growth_is_detected(self):
        samples = [(t / 100, t // 4) for t in range(400)]
        assert backlog_grew(samples, 0.0, 4.0, slack=16)

    def test_growth_within_slack_is_tolerated(self):
        samples = [(t / 100, t // 40) for t in range(400)]
        assert not backlog_grew(samples, 0.0, 4.0, slack=16)

    def test_ramp_up_from_an_empty_system_is_not_growth(self):
        samples = [(t / 100, min(t, 40)) for t in range(400)]
        assert not backlog_grew(samples, 0.0, 4.0, slack=16)

    def test_samples_after_the_phase_are_ignored(self):
        samples = [(t / 100, 0) for t in range(400)] + [(5.0, 500)]
        assert not backlog_grew(samples, 0.0, 4.0, slack=16)

    def test_no_samples_means_nothing_outstanding(self):
        assert not backlog_grew([], 0.0, 1.0, slack=0)
        with pytest.raises(ValueError):
            backlog_grew([], 1.0, 1.0, slack=0)
