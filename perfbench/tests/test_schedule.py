import numpy as np

from perfbench import schedule


def mixed(seed, n_users=500):
    return schedule.mixed_stream(
        seed, write_rate=100.0, read_rate=200.0, duration=4.0, n_users=n_users, n_items=100,
        recent_share=0.25, recent_window=1.0,
    )


class TestDeterminism:
    def test_mixed_stream_is_a_function_of_the_seed(self):
        a, b = mixed(3), mixed(3)
        for field in ("offsets", "kinds", "users", "items", "ratings"):
            assert np.array_equal(getattr(a, field), getattr(b, field))
        assert not np.array_equal(a.offsets, mixed(4).offsets)

    def test_closed_batches_are_a_function_of_the_seed(self):
        assert np.array_equal(
            schedule.saturation_stream(1, count=64, n_users=10),
            schedule.saturation_stream(1, count=64, n_users=10),
        )
        for x, y in zip(
            schedule.write_burst(1, count=8, n_users=10, n_items=5),
            schedule.write_burst(1, count=8, n_users=10, n_items=5),
        ):
            assert np.array_equal(x, y)


class TestRatingPool:
    def test_every_seed_streams_the_same_ratings_in_its_own_order(self):
        def triples(s):
            w = s.kinds == 1
            return list(zip(s.users[w], s.items[w], s.ratings[w]))

        a, b = triples(mixed(1)), triples(mixed(2))
        assert a != b and sorted(a) == sorted(b)

    def test_every_seed_bursts_the_same_ratings_in_its_own_order(self):
        a = list(zip(*schedule.write_burst(1, count=64, n_users=100, n_items=50)))
        b = list(zip(*schedule.write_burst(2, count=64, n_users=100, n_items=50)))
        assert a != b and sorted(a) == sorted(b)


class TestShape:
    def test_conditioned_arrivals_fill_the_window(self):
        rng = np.random.default_rng(0)
        offsets = schedule.conditioned_offsets(rng, 8000, 10.0)
        assert offsets.size == 8000
        assert offsets.min() >= 0 and offsets.max() < 10.0
        assert np.all(np.diff(offsets) >= 0)
        # Uniform given the count: each second holds about a tenth.
        assert np.all(np.abs(np.histogram(offsets, bins=10, range=(0, 10))[0] - 800) < 120)

    def test_read_only_stream(self):
        s = schedule.mixed_stream(
            7, write_rate=0.0, read_rate=800.0, duration=2.0, n_users=4096, n_items=10
        )
        assert (len(s), s.writes) == (1600, 0)
        assert np.all(np.diff(s.offsets) >= 0)
        again = schedule.mixed_stream(
            7, write_rate=0.0, read_rate=800.0, duration=2.0, n_users=4096, n_items=10
        )
        assert np.array_equal(s.users, again.users) and np.array_equal(s.offsets, again.offsets)

    def test_mixed_stream_is_in_due_order_with_both_kinds(self):
        s = mixed(0)
        assert np.all(np.diff(s.offsets) >= 0)
        assert s.offsets.min() >= 0 and s.offsets.max() < 4.0
        assert (s.writes, len(s) - s.writes) == (400, 800)
        assert np.all(s.items[s.kinds == 1] >= 0)
        assert np.all((s.ratings[s.kinds == 1] >= 1.0) & (s.ratings[s.kinds == 1] <= 5.0))

    def test_a_share_of_reads_come_from_recent_writers(self):
        s = mixed(0, n_users=100_000)  # so a uniform pick almost never hits a writer
        recent = 0
        reads = np.flatnonzero(s.kinds == 0)
        for i in reads:
            window = (s.kinds == 1) & (s.offsets < s.offsets[i]) & (s.offsets >= s.offsets[i] - 1.0)
            recent += s.users[i] in set(s.users[window])
        assert 0.2 < recent / reads.size < 0.3
