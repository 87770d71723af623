"""Generator tests: star topology, random digraph statistics and
determinism, and seeded target vectors."""

import math

import numpy as np
import pytest

from minreach import InputError, erdos_renyi, random_target, star


class TestStar:
    def test_four_leaves_exact_matrix(self):
        expected = [
            [-1.0, 1.0, 1.0, 1.0, 1.0],
            [0.0, -1.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, -1.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, -1.0, 0.0],
            [0.0, 0.0, 0.0, 0.0, -1.0],
        ]
        assert star(4).a.tolist() == expected

    def test_single_leaf(self):
        assert star(1).a.tolist() == [[-1.0, 1.0], [0.0, -1.0]]

    def test_row_sums(self):
        sums = star(2).a.sum(axis=1)
        assert sums.tolist() == [1.0, -1.0, -1.0]

    def test_nonzero_count(self):
        for leaves in (1, 3, 7):
            n = leaves + 1
            assert np.count_nonzero(star(leaves).a) == 2 * n - 1

    def test_rejects_no_leaves(self):
        with pytest.raises(InputError):
            star(0)


class TestErdosRenyi:
    def test_smallest_size_structure(self):
        sys_ = erdos_renyi(2, 42)
        assert sys_.n == 2
        assert sys_.a[0, 0] == 0.0
        assert sys_.a[1, 1] == 0.0
        assert np.count_nonzero(sys_.a) <= 2

    def test_zero_diagonal(self):
        for seed in (0, 1, 2):
            assert np.all(np.diag(erdos_renyi(30, seed).a) == 0.0)

    def test_edge_count_tracks_binomial(self):
        n = 50
        p = min(1.0, 2.0 * math.log(n) / n)
        cells = n * (n - 1)
        mean = cells * p
        sigma = math.sqrt(cells * p * (1.0 - p))
        for seed in range(100):
            count = int(np.count_nonzero(erdos_renyi(n, seed).a))
            assert abs(count - mean) <= 4.0 * sigma

    def test_deterministic(self):
        first = erdos_renyi(10, 7)
        second = erdos_renyi(10, 7)
        assert np.array_equal(first.a, second.a)

    def test_different_seeds_differ(self):
        assert not np.array_equal(erdos_renyi(10, 7).a, erdos_renyi(10, 8).a)

    def test_nonzero_entries_look_normal(self):
        values = erdos_renyi(100, 3).a
        edges = values[values != 0.0]
        assert edges.size > 50
        assert abs(float(edges.mean())) <= 0.2
        assert abs(float(edges.var()) - 1.0) <= 0.3

    def test_rejects_tiny_n(self):
        with pytest.raises(InputError):
            erdos_renyi(1, 0)

    def test_rejects_bad_seed(self):
        with pytest.raises(InputError):
            erdos_renyi(10, -1)
        with pytest.raises(InputError):
            erdos_renyi(10, 2**64)


class TestRandomTarget:
    def test_single_draw_finite(self):
        value = random_target(1, 5)
        assert value.shape == (1,)
        assert np.isfinite(value[0])

    def test_large_sample_statistics(self):
        for seed in range(5):
            t = random_target(1000, seed)
            assert abs(float(t.mean())) <= 0.15
            assert abs(float(t.var()) - 1.0) <= 0.2

    def test_deterministic(self):
        assert np.array_equal(random_target(64, 9), random_target(64, 9))

    def test_independent_of_system_stream(self):
        # The target stream must not shift when the system draw happens
        # first, or experiment scripts would not be reproducible piecewise.
        erdos_renyi(50, 11)
        direct = random_target(50, 11)
        assert np.array_equal(direct, random_target(50, 11))

    def test_rejects_empty(self):
        with pytest.raises(InputError):
            random_target(0, 1)


@pytest.mark.parametrize(
    "make, args",
    [
        (star, (2.5,)),
        (star, (True,)),
        (erdos_renyi, (10.7, 3)),
        (erdos_renyi, (10, 3.9)),
        (erdos_renyi, (10, "3")),
        (random_target, (4.5, 1)),
        (random_target, (4, False)),
    ],
)
def test_rejects_a_size_or_seed_that_is_not_an_integer(make, args):
    with pytest.raises(InputError):
        make(*args)


def test_accepts_integral_sizes_and_seeds():
    assert np.array_equal(star(2.0).a, star(2).a)
    assert np.array_equal(erdos_renyi(10.0, np.int64(3)).a, erdos_renyi(10, 3).a)
    assert np.array_equal(random_target(4.0, 1.0), random_target(4, 1))
