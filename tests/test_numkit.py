"""Numerical kernel tests: matrix exponential, basis extension, and
projections, each against directly computed expected values."""

import ast
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import minreach
from minreach import (
    DimensionError,
    InputError,
    OrthoBasis,
    RANK_TOL,
    mat_exp,
)
from minreach.numkit import _SpanBuilder
from minreach.numkit import as_finite, as_matrix, as_positive, as_vector

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

    @pytest.mark.parametrize("t", ["1", "x", b"1", True, None])
    def test_a_time_that_is_not_a_number_is_refused(self, t):
        with pytest.raises(InputError, match=r"^t: expected a number, got "):
            mat_exp(np.eye(2), t)

    def test_importing_the_cli_leaves_scipy_linalg_unimported(self):
        # scipy.linalg takes most of the package's import time, and only
        # mat_exp uses it. A fresh process, so no other test has imported it.
        env = dict(os.environ, PYTHONPATH=str(Path(minreach.__file__).parents[1]))
        check = "import sys, minreach.cli; print('scipy.linalg' in sys.modules)"
        proc = subprocess.run(
            [sys.executable, "-c", check], capture_output=True, text=True, env=env
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")


class TestNumberValidators:
    @pytest.mark.parametrize(
        "check, value",
        [
            (as_matrix, [["0", "1"], ["1", "0"]]),
            (as_matrix, [[1.0, "2"]]),
            (as_matrix, np.array([[b"1"]])),
            (as_vector, ["1", "0"]),
            (as_vector, np.array(["0.5"])),
            (as_vector, [Fraction(1, 2), "3"]),
        ],
    )
    def test_strings_are_refused_not_parsed(self, check, value):
        with pytest.raises(InputError, match=r"^x: expected numbers, got a string$"):
            check(value, "x")

    @pytest.mark.parametrize("value", ["0.5", np.str_("2"), b"1", True, np.True_])
    def test_as_positive_refuses_a_string_or_a_boolean(self, value):
        with pytest.raises(InputError, match=r"^x: expected a number, got "):
            as_positive(value, "x")

    @pytest.mark.parametrize("value", ["0.5", np.str_("2"), b"1", True, np.True_])
    def test_as_finite_refuses_a_string_or_a_boolean(self, value):
        with pytest.raises(InputError, match=r"^x: expected a number, got "):
            as_finite(value, "x")

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 1e400, [1.0]])
    def test_as_finite_refuses_what_is_not_a_finite_real(self, value):
        with pytest.raises(InputError, match=r"^x: "):
            as_finite(value, "x")

    @pytest.mark.parametrize(
        "value, expected",
        [
            (-2.5, -2.5),
            (0, 0.0),
            (np.float32(0.5), 0.5),
            (np.int64(3), 3.0),
            (Fraction(1, 4), 0.25),
        ],
    )
    def test_as_finite_takes_a_finite_real(self, value, expected):
        got = as_finite(value, "x")
        assert type(got) is float and got == expected

    def test_boolean_arrays_are_read_as_zero_one(self):
        assert as_matrix(np.eye(2, dtype=bool)).tolist() == [[1.0, 0.0], [0.0, 1.0]]
        assert as_vector(np.array([True, False])).tolist() == [1.0, 0.0]


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


class TestSpanBuilderBuffer:
    def test_grows_by_doubling_and_keeps_held_columns(self):
        rng = np.random.default_rng(8)
        builder = _SpanBuilder(20)
        held, widths = [], []
        for _ in range(20):
            held.append((builder.add(rng.standard_normal(20)), None))
            held[-1] = (held[-1][0], held[-1][0].copy())
            widths.append(builder._q.shape[1])
        assert widths == [8] * 7 + [16] * 8 + [20] * 5
        for k, (view, values) in enumerate(held):
            assert np.array_equal(view, values)
            assert np.array_equal(builder.column(k), values)

    @pytest.mark.parametrize("rank, width", [(0, 8), (3, 11), (12, 20), (20, 20)])
    def test_copies_keep_spare_columns(self, rank, width):
        q, _ = np.linalg.qr(np.random.default_rng(rank).standard_normal((20, 20)))
        builder = _SpanBuilder.holding(q[:, :rank])
        other = builder.copy()
        for b in (builder, other):
            assert (b.rank, b._q.shape[1]) == (rank, width)
            assert np.array_equal(b._q[:, :rank], q[:, :rank])


class TestSpanBuilderViews:
    def test_span_views_the_accepted_columns(self):
        q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((10, 6)))
        builder = _SpanBuilder.holding(q)
        assert np.array_equal(builder.span(), q)
        assert np.array_equal(builder.span(4), q[:, 4:])
        assert builder.span(6).shape == (10, 0)
        assert np.shares_memory(builder.span(), builder.column(0))

    def test_truncate_rolls_back_and_add_writes_over(self):
        rng = np.random.default_rng(4)
        builder = _SpanBuilder(10)
        for _ in range(3):
            builder.add(rng.standard_normal(10))
        first = builder.span(0).copy()
        col = rng.standard_normal(10)
        builder.add(col)
        builder.truncate(2)
        assert builder.rank == 2
        assert np.array_equal(builder.span(), first[:, :2])
        again = _SpanBuilder.holding(first[:, :2])
        assert np.array_equal(builder.add(col), again.add(col))

    def test_add_images_adds_in_column_order_until_the_span_is_full(self, span_adds):
        # Five images in a 3-dimensional space: the first three fill it, and
        # the last two are not offered.
        rng = np.random.default_rng(5)
        w = rng.standard_normal((3, 6))
        cols, _ = np.linalg.qr(rng.standard_normal((6, 5)))
        builder = _SpanBuilder(3)
        builder.add_images(w, cols)
        assert builder.rank == 3 and span_adds == [(3, True)] * 3
        want = _SpanBuilder(3)
        for col in (w @ cols).T[:3]:
            want.add(col)
        assert builder.span().tobytes() == want.span().tobytes()


def test_only_numkit_knows_span_storage_and_the_rank_tolerance():
    """The span layout (``_q``, ``_r``) is read or written only in numkit,
    and the selector takes its absorption rule from numkit, not RANK_TOL."""
    package = Path(__file__).resolve().parents[1] / "src" / "minreach"
    fields = {ast.Name: "id", ast.alias: "name", ast.Attribute: "attr"}
    layout, rank_tol = set(), set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in ("_q", "_r"):
                layout.add(path.name)
            field = fields.get(type(node))
            if field and getattr(node, field) == "RANK_TOL":
                rank_tol.add(path.name)
    assert layout == {"numkit.py"}
    assert "numkit.py" in rank_tol and "selector.py" not in rank_tol


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

    @pytest.mark.parametrize("dim", [2.5, True, "2"])
    def test_rejects_a_dimension_that_is_not_an_integer(self, dim):
        with pytest.raises(InputError):
            OrthoBasis(dim)

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
