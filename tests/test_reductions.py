"""Hardness reduction tests: instance validation, the three system
constructions against independently assembled expectations, the cone
cover criterion, and the dual brute-force verifier."""

import numpy as np
import pytest

from minreach import (
    ActuatorSet,
    CapacityError,
    ConeTarget,
    DimensionError,
    HittingSetInstance,
    IncidenceMatrix,
    InputError,
    build_lemma1,
    build_lemma2,
    build_lemma3,
    cone_k_reachable,
    is_controllable,
    verify_reduction,
)

SINGLETON = HittingSetInstance(m=1, sets=((1,),))


def random_instance(rng, m_max=4, p_max=3):
    m = int(rng.integers(1, m_max + 1))
    p = int(rng.integers(1, p_max + 1))
    sets = []
    for _ in range(p):
        size = int(rng.integers(1, m + 1))
        members = rng.choice(m, size=size, replace=False) + 1
        sets.append(tuple(int(j) for j in members))
    covered = {j for members in sets for j in members}
    for j in range(1, m + 1):
        if j not in covered:
            k = int(rng.integers(0, len(sets)))
            sets[k] = tuple(sorted(set(sets[k]) | {j}))
    return HittingSetInstance(m=m, sets=tuple(sets))


def expected_v1(instance):
    phi = instance.incidence().phi
    p, m = phi.shape
    n = m + p + 1
    v1 = np.zeros((n, n))
    v1[:m, :m] = 2.0 * np.eye(m)
    v1[:m, n - 1] = 1.0
    v1[m : m + p, :m] = phi
    v1[m : m + p, m : m + p] = (m + 1.0) * np.eye(p)
    v1[n - 1, n - 1] = 1.0
    return v1


class TestHittingSetInstance:
    def test_normalizes_sets(self):
        instance = HittingSetInstance(m=3, sets=((3, 1, 3), (2,)))
        assert instance.sets == ((1, 3), (2,))
        assert instance.p == 2

    def test_rejects_empty_set(self):
        with pytest.raises(InputError):
            HittingSetInstance(m=2, sets=((1,), ()))

    def test_rejects_no_sets(self):
        with pytest.raises(InputError):
            HittingSetInstance(m=1, sets=())

    def test_rejects_out_of_range_element(self):
        with pytest.raises(InputError):
            HittingSetInstance(m=2, sets=((1, 3),))

    def test_rejects_uncovered_element(self):
        with pytest.raises(InputError):
            HittingSetInstance(m=2, sets=((1,),))

    def test_rejects_non_positive_universe(self):
        with pytest.raises(InputError):
            HittingSetInstance(m=0, sets=((1,),))

    def test_rejects_a_set_that_is_not_iterable(self):
        with pytest.raises(InputError, match=r"sets\[0\]"):
            HittingSetInstance(2, (1, 2))

    @pytest.mark.parametrize(
        "m, sets", [(1.5, ((1,),)), (2, ((1,), (1.7, 2)))], ids=["m", "member"]
    )
    def test_rejects_a_number_with_a_fraction(self, m, sets):
        with pytest.raises(InputError):
            HittingSetInstance(m, sets)

    def test_accepts_an_integral_float(self):
        assert HittingSetInstance(2.0, ((1.0, 2),)).to_dict() == {
            "m": 2,
            "sets": [[1, 2]],
        }

    def test_dict_round_trip(self):
        data = {"m": 3, "sets": [[1, 2], [3]]}
        instance = HittingSetInstance.from_dict(data)
        assert instance.to_dict() == data

    def test_from_dict_rejects_malformed(self):
        with pytest.raises(InputError):
            HittingSetInstance.from_dict([1, 2])
        with pytest.raises(InputError):
            HittingSetInstance.from_dict({"m": 2})
        with pytest.raises(InputError):
            HittingSetInstance.from_dict({"m": 2, "sets": "nope"})


class TestIncidenceMatrix:
    def test_membership_pattern(self):
        instance = HittingSetInstance(m=3, sets=((1, 2), (2, 3)))
        phi = instance.incidence().phi
        assert phi.tolist() == [[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]]

    def test_rejects_non_binary(self):
        with pytest.raises(InputError):
            IncidenceMatrix([[0.5]])

    def test_rejects_empty_row(self):
        with pytest.raises(InputError):
            IncidenceMatrix([[1.0, 0.0], [0.0, 0.0]])

    def test_shape_properties(self):
        inc = IncidenceMatrix([[1.0, 0.0], [1.0, 1.0]])
        assert inc.p == 2
        assert inc.m == 2


class TestConeTarget:
    def test_rejects_non_positive_blocks(self):
        with pytest.raises(InputError):
            ConeTarget(m=0, p=1)
        with pytest.raises(InputError):
            ConeTarget(m=1, p=0)


class TestBuildLemma1:
    def test_singleton_instance_matches_direct_assembly(self):
        sys_, chi = build_lemma1(SINGLETON)
        v1 = expected_v1(SINGLETON)
        assert v1.tolist() == [[2.0, 0.0, 1.0], [1.0, 2.0, 0.0], [0.0, 0.0, 1.0]]
        a_expected = np.linalg.solve(v1, np.diag([1.0, 2.0, 3.0]) @ v1)
        chi_expected = np.linalg.solve(v1, np.ones(3))
        assert sys_.n == 3
        assert np.allclose(sys_.a, a_expected, atol=1e-12)
        assert np.allclose(chi, chi_expected, atol=1e-12)

    def test_similarity_spectrum(self):
        rng = np.random.default_rng(173)
        for _ in range(10):
            instance = random_instance(rng)
            sys_, _ = build_lemma1(instance)
            n = instance.m + instance.p + 1
            eigs = np.sort(np.linalg.eigvals(sys_.a).real)
            assert np.allclose(eigs, np.arange(1.0, n + 1.0), atol=1e-8)

    def test_minimum_actuators_is_hitting_number_plus_one(self):
        report = verify_reduction(SINGLETON, "lemma1")
        assert report.hitting_set_size == 1
        assert report.reach_min_size == 2
        assert report.passed


class TestBuildLemma2:
    def test_trailing_coordinate_decoupled(self):
        sys_, chi = build_lemma2(SINGLETON)
        assert sys_.n == 4
        v2 = np.zeros((4, 4))
        v2[:3, :3] = expected_v1(SINGLETON)
        v2[3, 3] = 1.0
        assert abs(float((v2 @ chi)[-1])) <= 1e-12
        eigs = np.sort(np.linalg.eigvals(sys_.a).real)
        assert np.allclose(eigs, [1.0, 2.0, 3.0, 4.0], atol=1e-8)

    def test_optimum_is_uncontrollable(self):
        report = verify_reduction(SINGLETON, "lemma2")
        assert report.reach_min_size == 2
        assert report.controllable_at_optimum is False
        assert report.passed


class TestBuildLemma3:
    def test_block_structure(self):
        instance = HittingSetInstance(m=2, sets=((1, 2),))
        sys_, cone = build_lemma3(instance)
        assert sys_.n == 3
        expected = np.zeros((3, 3))
        expected[2, 0] = 1.0
        expected[2, 1] = 1.0
        assert np.array_equal(sys_.a, expected)
        assert (cone.m, cone.p) == (2, 1)

    def test_square_vanishes(self):
        rng = np.random.default_rng(179)
        for _ in range(10):
            sys_, _ = build_lemma3(random_instance(rng))
            assert np.array_equal(sys_.a @ sys_.a, np.zeros((sys_.n, sys_.n)))


class TestConeReachable:
    def test_tail_block_always_suffices(self):
        rng = np.random.default_rng(181)
        for _ in range(10):
            instance = random_instance(rng)
            m, p = instance.m, instance.p
            tail = ActuatorSet(m + p, tuple(range(m + 1, m + p + 1)))
            assert cone_k_reachable(instance, tail)

    def test_empty_set_never_suffices(self):
        rng = np.random.default_rng(191)
        for _ in range(10):
            instance = random_instance(rng)
            assert not cone_k_reachable(
                instance, ActuatorSet.empty(instance.m + instance.p)
            )

    def test_uncovered_row_blocks(self):
        instance = HittingSetInstance(m=2, sets=((1,), (2,)))
        assert not cone_k_reachable(instance, ActuatorSet(4, (1,)))
        assert cone_k_reachable(instance, ActuatorSet(4, (1, 2)))

    def test_singleton_either_index_works(self):
        sets_of_one = HittingSetInstance(m=1, sets=((1,),))
        assert cone_k_reachable(sets_of_one, ActuatorSet(2, (1,)))
        assert cone_k_reachable(sets_of_one, ActuatorSet(2, (2,)))

    def test_monotone_in_the_actuator_set(self):
        rng = np.random.default_rng(193)
        for _ in range(20):
            instance = random_instance(rng)
            n = instance.m + instance.p
            size = int(rng.integers(0, n + 1))
            picks = rng.choice(n, size=size, replace=False) + 1
            small = ActuatorSet(n, tuple(int(i) for i in picks))
            big = small
            for i in range(1, n + 1):
                if i not in small and rng.random() < 0.5:
                    big = big.with_index(i)
            if cone_k_reachable(instance, small):
                assert cone_k_reachable(instance, big)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            cone_k_reachable(SINGLETON, ActuatorSet(5, (1,)))


class TestVerifyReduction:
    def test_lemma3_shared_element(self):
        instance = HittingSetInstance(m=3, sets=((1, 2), (2, 3)))
        report = verify_reduction(instance, "lemma3")
        assert report.hitting_set_size == 1
        assert report.reach_min_size == 1
        assert report.expected_size == 1
        assert report.passed

    def test_lemma3_disjoint_singletons(self):
        instance = HittingSetInstance(m=3, sets=((1,), (2,), (3,)))
        report = verify_reduction(instance, "lemma3")
        assert report.hitting_set_size == 3
        assert report.reach_min_size == 3
        assert report.passed

    def test_all_variants_on_random_instances(self):
        rng = np.random.default_rng(197)
        for _ in range(8):
            instance = random_instance(rng)
            for variant in ("lemma1", "lemma2", "lemma3"):
                report = verify_reduction(instance, variant)
                assert report.passed, (variant, instance.to_dict(), report)

    def test_rejects_unknown_variant(self):
        with pytest.raises(InputError):
            verify_reduction(SINGLETON, "lemma4")

    def test_capacity_cap(self):
        big = HittingSetInstance(
            m=12, sets=tuple((j,) for j in range(1, 13))
        )
        with pytest.raises(CapacityError):
            verify_reduction(big, "lemma1")

    def test_lemma1_optimum_is_controllable(self):
        rng = np.random.default_rng(199)
        for _ in range(5):
            instance = random_instance(rng, m_max=3, p_max=2)
            sys_, chi = build_lemma1(instance)
            report = verify_reduction(instance, "lemma1")
            assert report.controllable_at_optimum is True
            assert report.passed
