"""Numerical kernel tests: matrix exponential, basis extension, and
projections, each against directly computed expected values."""

import numpy as np
import pytest

from minreach import (
    DimensionError,
    InputError,
    OrthoBasis,
    RANK_TOL,
    mat_exp,
)

E1 = np.array([1.0, 0.0])
E2 = np.array([0.0, 1.0])


def random_orthobasis(rng, dim, rank):
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    return OrthoBasis(dim, q[:, :rank])


class TestMatExp:
    def test_zero_time_is_identity(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((4, 4))
        assert np.allclose(mat_exp(a, 0.0), np.eye(4), atol=1e-12)

    def test_diagonal_is_entrywise(self):
        out = mat_exp(np.diag([1.0, 2.0]), 1.0)
        assert np.allclose(out, np.diag([np.e, np.e**2]), rtol=1e-12)

    @pytest.mark.parametrize("tau", [0.5, 1.0, -2.0, 3.25])
    def test_nilpotent_series_terminates(self, tau):
        out = mat_exp([[0.0, 1.0], [0.0, 0.0]], tau)
        assert np.allclose(out, [[1.0, tau], [0.0, 1.0]], atol=1e-12)

    def test_semigroup(self):
        rng = np.random.default_rng(11)
        for _ in range(120):
            n = int(rng.integers(1, 6))
            a = rng.standard_normal((n, n))
            s, t = rng.uniform(-2.0, 2.0, size=2)
            left = mat_exp(a, s) @ mat_exp(a, t)
            right = mat_exp(a, s + t)
            scale = max(np.linalg.norm(right), 1.0)
            assert np.linalg.norm(left - right) <= 1e-9 * scale

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            mat_exp([[1.0, 2.0, 3.0]], 1.0)

    def test_non_finite_rejected(self):
        with pytest.raises(InputError):
            mat_exp([[np.nan, 0.0], [0.0, 1.0]], 1.0)
        with pytest.raises(InputError):
            mat_exp(np.eye(2), np.inf)


class TestBasisExtend:
    def test_absorbs_member(self):
        basis = OrthoBasis(2, np.column_stack([E1]))
        out, absorbed = basis.extend(E1)
        assert absorbed
        assert out is basis

    def test_appends_orthogonal(self):
        basis = OrthoBasis(2, np.column_stack([E1]))
        out, absorbed = basis.extend(E2)
        assert not absorbed
        assert out.rank == 2
        assert basis.rank == 1

    def test_absorbs_near_member(self):
        basis = OrthoBasis(2, np.column_stack([E1]))
        out, absorbed = basis.extend(E1 + 1e-14 * E2)
        assert absorbed
        assert out.rank == 1

    def test_keeps_clearly_new_direction(self):
        basis = OrthoBasis(2, np.column_stack([E1]))
        _, absorbed = basis.extend(E1 + 1e-6 * E2)
        assert not absorbed

    def test_zero_column_absorbed(self):
        basis = OrthoBasis.empty(3)
        out, absorbed = basis.extend(np.zeros(3))
        assert absorbed
        assert out.rank == 0

    def test_scaling_never_changes_the_outcome(self):
        rng = np.random.default_rng(3)
        basis = random_orthobasis(rng, 5, 3)
        for _ in range(50):
            col = rng.standard_normal(5)
            _, base_flag = basis.extend(col)
            for c in (1e-6, 1e6):
                _, flag = basis.extend(c * col)
                assert flag == base_flag

    def test_dimension_mismatch(self):
        basis = OrthoBasis.empty(3)
        with pytest.raises(DimensionError):
            basis.extend(np.zeros(4))

    def test_rank_never_exceeds_ambient(self):
        rng = np.random.default_rng(5)
        basis = OrthoBasis.empty(3)
        for _ in range(10):
            basis, _ = basis.extend(rng.standard_normal(3))
        assert basis.rank == 3


class TestProjectNormSq:
    def test_empty_basis_gives_zero(self):
        assert OrthoBasis.empty(2).project_norm_sq([3.0, 4.0]) == 0.0

    def test_component_extraction(self):
        basis = OrthoBasis(2, np.column_stack([E1]))
        assert basis.project_norm_sq([3.0, 4.0]) == pytest.approx(9.0, abs=1e-12)

    def test_matches_normal_equations_solve(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            dim = int(rng.integers(2, 8))
            rank = int(rng.integers(1, dim + 1))
            basis = random_orthobasis(rng, dim, rank)
            v = rng.standard_normal(dim)
            q = basis.columns
            coeffs = np.linalg.solve(q.T @ q, q.T @ v)
            proj = q @ coeffs
            assert basis.project_norm_sq(v) == pytest.approx(
                float(proj @ proj), abs=1e-9
            )

    def test_clamped_to_vector_norm(self):
        rng = np.random.default_rng(17)
        basis = random_orthobasis(rng, 6, 6)
        v = rng.standard_normal(6)
        assert basis.project_norm_sq(v) <= float(v @ v)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            OrthoBasis.empty(2).project_norm_sq([1.0, 2.0, 3.0])


class TestProjectionProperties:
    def test_pythagoras(self):
        rng = np.random.default_rng(19)
        for _ in range(120):
            dim = int(rng.integers(1, 9))
            rank = int(rng.integers(0, dim + 1))
            basis = random_orthobasis(rng, dim, rank)
            v = rng.standard_normal(dim)
            nv2 = float(v @ v)
            r = v - basis.project(v)
            total = basis.project_norm_sq(v) + float(r @ r)
            assert abs(total - nv2) <= 1e-9 * max(nv2, 1.0)

    def test_idempotence(self):
        rng = np.random.default_rng(23)
        for _ in range(120):
            dim = int(rng.integers(1, 9))
            rank = int(rng.integers(0, dim + 1))
            basis = random_orthobasis(rng, dim, rank)
            v = rng.standard_normal(dim)
            once = basis.project_norm_sq(v)
            twice = basis.project_norm_sq(basis.project(v))
            assert abs(twice - once) <= 1e-12

    def test_monotone_extension(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            dim = int(rng.integers(2, 8))
            basis = OrthoBasis.empty(dim)
            v = rng.standard_normal(dim)
            prev = basis.project_norm_sq(v)
            for _ in range(dim + 2):
                basis, _ = basis.extend(rng.standard_normal(dim))
                cur = basis.project_norm_sq(v)
                assert cur >= prev - 1e-12
                prev = cur


class TestOrthoBasisType:
    def test_rejects_non_orthonormal_columns(self):
        with pytest.raises(InputError):
            OrthoBasis(2, [[1.0, 1.0], [0.0, 1.0]])

    def test_rejects_wrong_row_count(self):
        with pytest.raises(DimensionError):
            OrthoBasis(3, np.column_stack([E1]))

    def test_rejects_too_many_columns(self):
        with pytest.raises(DimensionError):
            OrthoBasis(1, [[1.0, 0.0]])

    def test_orthonormality_invariant_after_extensions(self):
        rng = np.random.default_rng(31)
        basis = OrthoBasis.empty(5)
        for _ in range(8):
            basis, _ = basis.extend(rng.standard_normal(5))
        gram = basis.columns.T @ basis.columns
        assert np.allclose(gram, np.eye(basis.rank), atol=RANK_TOL)

    def test_columns_are_read_only(self):
        basis = OrthoBasis(2, np.column_stack([E1]))
        with pytest.raises(ValueError):
            basis.columns[0, 0] = 5.0

    def test_contains(self):
        basis = OrthoBasis(2, np.column_stack([E1]))
        assert basis.contains([2.0, 0.0], tol_sq=1e-12)
        assert not basis.contains([0.0, 1.0], tol_sq=1e-12)

