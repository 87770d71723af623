"""Dense numerical kernel: validation helpers, matrix exponential, and
incremental orthonormal bases.

All public routines work on float64 numpy arrays. The orthonormal basis
kernel is the single place rank decisions are made; every subspace in the
package is accumulated through it.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionError, InputError

#: Absorption tolerance for basis extension. A candidate column whose
#: twice-orthogonalized residual has norm at most RANK_TOL * (1 + ||col||)
#: is treated as already contained in the span.
RANK_TOL = 1e-10

#: Spare columns a _SpanBuilder's buffer starts with and keeps on a copy.
_SPARE = 8


def _norm(x: np.ndarray) -> float:
    """``float(np.linalg.norm(x))`` for a 1-D float64 array, bit for bit,
    without its dispatch overhead: the square root of ``x.dot(x)`` taken
    over ``x.ravel(order="K")``, which copies only a strided `x`."""
    x = x.ravel(order="K")
    return math.sqrt(x.dot(x))


def _absorb_tol(norm: float) -> float:
    """The residual norm at or below which a column of norm `norm` is
    absorbed into a span: ``RANK_TOL * (1 + norm)``."""
    return RANK_TOL * (1.0 + norm)


def _proj_sq(q: np.ndarray, v: np.ndarray) -> float:
    """Squared norm of `v` projected on the orthonormal columns `q`."""
    c = q.T @ v
    return float(c @ c)


def _as_floats(a, name: str) -> np.ndarray:
    """A fresh float64 copy of `a`. A string or bytes entry is refused, not
    parsed: numpy would read ``"1"`` as 1.0. The check reads the dtype, and
    the elements only of an object array. A boolean array is still read as
    zero-one."""
    try:
        raw = np.asarray(a)
        if raw.dtype.kind in "SU" or (
            raw.dtype.kind == "O" and any(isinstance(x, (str, bytes)) for x in raw.flat)
        ):
            raise InputError(f"{name}: expected numbers, got a string")
        return raw.astype(float)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{name}: cannot interpret as a float array ({exc})") from exc


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and convert `a` to a finite float64 2-D array.

    Parameters
    ----------
    a : array_like
        Anything numpy can coerce to a 2-D array of floats.
    name : str
        Label used in error messages.

    Returns
    -------
    numpy.ndarray
        A fresh float64 copy with ``ndim == 2``.

    Raises
    ------
    InputError
        If coercion fails, `a` holds strings, or any entry is not finite.
    DimensionError
        If the result is not 2-D.
    """
    out = _as_floats(a, name)
    if out.ndim != 2:
        raise DimensionError(f"{name}: expected a 2-D array, got ndim={out.ndim}")
    if not np.all(np.isfinite(out)):
        raise InputError(f"{name}: entries must be finite")
    return out


def as_square(a, name: str = "matrix") -> np.ndarray:
    """Like :func:`as_matrix` but additionally requires a square shape."""
    out = as_matrix(a, name)
    if out.shape[0] != out.shape[1]:
        raise DimensionError(f"{name}: expected a square matrix, got shape {out.shape}")
    return out


def as_vector(v, name: str = "vector") -> np.ndarray:
    """Validate and convert `v` to a finite float64 1-D array; strings are
    refused as in :func:`as_matrix`."""
    out = _as_floats(v, name)
    if out.ndim != 1:
        raise DimensionError(f"{name}: expected a 1-D array, got ndim={out.ndim}")
    if not np.all(np.isfinite(out)):
        raise InputError(f"{name}: entries must be finite")
    return out


def as_int(x, name: str) -> int:
    """``int(x)`` when that equals `x`, so ``2.0`` gives 2; InputError
    otherwise, also where int() raises. A number with a fraction, such as
    ``1.9``, a string or a boolean is refused, not truncated, parsed or
    taken as 0 or 1."""
    if isinstance(x, (bool, np.bool_)):
        raise InputError(f"{name}: expected an integer, got {x!r}")
    try:
        value = int(x)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"{name}: expected an integer, got {x!r}") from exc
    if value != x:
        raise InputError(f"{name}: expected an integer, got {x!r}")
    return value


def _as_number(x, name: str) -> float:
    """``float(x)``; InputError where float() raises and for a string, bytes
    or a boolean, which are refused, not parsed or taken as 0 or 1."""
    if isinstance(x, (str, bytes, bool, np.bool_)):
        raise InputError(f"{name}: expected a number, got {x!r}")
    try:
        return float(x)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"{name}: expected a number, got {x!r}") from exc


def as_finite(x, name: str) -> float:
    """``float(x)`` when that is finite; InputError otherwise, also where
    float() raises. A string or a boolean is refused, as by
    :func:`as_positive`."""
    value = _as_number(x, name)
    if not math.isfinite(value):
        raise InputError(f"{name}: must be finite, got {value}")
    return value


def as_positive(x, name: str) -> float:
    """``float(x)`` when that is positive and finite; InputError otherwise,
    also where float() raises. A string or a boolean is refused, not
    parsed or taken as 1.0."""
    value = _as_number(x, name)
    if not (math.isfinite(value) and value > 0.0):
        raise InputError(f"{name}: must be positive and finite, got {value}")
    return value


def mat_exp(a, t: float) -> np.ndarray:
    """Matrix exponential ``exp(a * t)`` of a square matrix.

    Parameters
    ----------
    a : array_like
        Square matrix.
    t : float
        Scalar time factor; may be zero or negative.

    Returns
    -------
    numpy.ndarray
        ``exp(a * t)``, computed by scaling-and-squaring with Pade
        approximation.
    """
    # Imported here: scipy.linalg takes most of the package's import time,
    # and only a transfer from a non-zero x0 needs it.
    import scipy.linalg

    a = as_square(a, "a")
    t = as_finite(t, "t")
    if a.shape[0] == 0:
        return np.zeros((0, 0))
    return scipy.linalg.expm(a * t)


class _SpanBuilder:
    """Mutable orthonormal span accumulator over R^dim.

    Columns are added one at a time. Each candidate is orthogonalized
    against the current basis, re-orthogonalized once, and either
    appended (unit-normalized) or absorbed when its residual norm falls
    at or below ``_absorb_tol(||col||)``. Exact-zero columns are absorbed
    without arithmetic. `truncate` rolls the span back to a smaller rank.

    The columns live in a ``(dim, capacity)`` buffer sized to the rank,
    not to dim: it starts at ``min(dim, _SPARE)`` columns, `holding` and
    `copy` leave ``_SPARE`` columns to spare, and `add` doubles it (up to
    dim) before a write would fill it. So capacity > rank, or capacity ==
    dim, always. The ``+1`` matters for the bits: numpy sends a slice
    ``q[:, :r]`` that fills its whole array down another BLAS path, whose
    results can differ in the last bits from the ``(dim, dim)`` layout's.
    """

    __slots__ = ("dim", "_q", "_r")

    def __init__(self, dim: int):
        self.dim = int(dim)
        self._q = np.empty((self.dim, min(self.dim, _SPARE)))
        self._r = 0

    @property
    def rank(self) -> int:
        return self._r

    @classmethod
    def holding(cls, cols: np.ndarray) -> "_SpanBuilder":
        """A builder whose span is the orthonormal columns `cols`."""
        dim, r = cols.shape
        builder = cls.__new__(cls)
        builder.dim = dim
        builder._q = np.empty((dim, min(dim, r + _SPARE)))
        builder._q[:, :r] = cols
        builder._r = r
        return builder

    def copy(self) -> "_SpanBuilder":
        return self.holding(self.span())

    def span(self, start: int = 0) -> np.ndarray:
        """View of accepted columns `start` to ``rank - 1``."""
        return self._q[:, start : self._r]

    def truncate(self, rank: int) -> None:
        """Roll the span back to its first `rank` columns; a later `add`
        writes over the rest."""
        self._r = rank

    def column(self, k: int) -> np.ndarray:
        """View of accepted column k. A column moves when the buffer
        grows, but an outgrown buffer is never written again, so a held
        view keeps its values."""
        return self._q[:, k]

    def add(self, col: np.ndarray, tol: float | None = None) -> np.ndarray | None:
        """Try to extend the span with `col`.

        Returns the newly accepted unit direction, or None when the
        column is absorbed into the existing span: when its residual norm
        is at most `tol`, by default ``_absorb_tol(||col||)``.
        """
        norm0 = _norm(col)
        if norm0 == 0.0:
            return None
        r = self._r
        if r:
            q = self._q[:, :r]
            w = col - q @ (q.T @ col)
            # One re-orthogonalization pass: a single projection can leave an
            # O(eps * ||col|| / ||w||) tangential component when ||w|| << ||col||.
            w -= q @ (q.T @ w)
            norm_w = _norm(w)
        else:
            # Projecting onto the zero subspace subtracts exact zeros.
            w, norm_w = col, norm0
        if norm_w <= (_absorb_tol(norm0) if tol is None else tol):
            return None
        buf = self._q
        if r + 1 == buf.shape[1] < self.dim:
            self._q = np.empty((self.dim, min(self.dim, 2 * buf.shape[1])))
            self._q[:, :r] = buf[:, :r]
        out = self._q[:, r]
        np.divide(w, norm_w, out=out)
        self._r = r + 1
        return out

    def add_images(self, w: np.ndarray, cols: np.ndarray) -> None:
        """Add the images ``w @ cols`` of the columns `cols`, in column
        order, until the span is the whole space."""
        for col in (w @ cols).T:
            if self._r == self.dim:
                return
            self.add(col)

    def project_norm_sq(self, v: np.ndarray) -> float:
        """Squared norm of the orthogonal projection of `v` onto the span."""
        return _proj_sq(self.span(), v) if self._r else 0.0

    def freeze(self) -> "OrthoBasis":
        return OrthoBasis._trusted(self.dim, self.span().copy())


class OrthoBasis:
    """Immutable orthonormal basis of a subspace of R^ambient_dim.

    Parameters
    ----------
    ambient_dim : int
        Dimension of the enclosing space.
    columns : array_like, optional
        Orthonormal columns, shape ``(ambient_dim, rank)``. Omit for the
        zero subspace. Pairwise inner products must match the identity
        pattern within ``RANK_TOL``.
    """

    __slots__ = ("_dim", "_cols")

    def __init__(self, ambient_dim: int, columns=None):
        dim = as_int(ambient_dim, "ambient_dim")
        if dim < 0:
            raise InputError("ambient_dim: must be non-negative")
        if columns is None:
            cols = np.empty((dim, 0))
        else:
            cols = as_matrix(columns, "columns")
            if cols.shape[0] != dim:
                raise DimensionError(
                    f"columns: expected {dim} rows, got {cols.shape[0]}"
                )
            if cols.shape[1] > dim:
                raise DimensionError("columns: more columns than ambient dimension")
            gram = cols.T @ cols
            if not np.allclose(gram, np.eye(cols.shape[1]), atol=RANK_TOL, rtol=0.0):
                raise InputError("columns: not orthonormal within tolerance")
        self._dim = dim
        cols.setflags(write=False)
        self._cols = cols

    @classmethod
    def _trusted(cls, ambient_dim: int, columns: np.ndarray) -> "OrthoBasis":
        # Internal constructor for columns produced by _SpanBuilder; skips
        # the orthonormality check.
        obj = cls.__new__(cls)
        obj._dim = int(ambient_dim)
        columns.setflags(write=False)
        obj._cols = columns
        return obj

    @classmethod
    def empty(cls, ambient_dim: int) -> "OrthoBasis":
        """Basis of the zero subspace of R^ambient_dim."""
        return cls(ambient_dim)

    @property
    def ambient_dim(self) -> int:
        return self._dim

    @property
    def rank(self) -> int:
        return self._cols.shape[1]

    @property
    def columns(self) -> np.ndarray:
        """Read-only ``(ambient_dim, rank)`` array of basis columns."""
        return self._cols

    def __repr__(self) -> str:
        return f"OrthoBasis(ambient_dim={self._dim}, rank={self.rank})"

    def extend(self, col) -> tuple["OrthoBasis", bool]:
        """Return ``(basis, absorbed)`` after offering `col` to the span.

        When `col` lies in the span within tolerance the original basis
        object is returned unchanged with ``absorbed=True``; otherwise a
        new basis with one extra column is returned with ``absorbed=False``.
        """
        col = as_vector(col, "col")
        if col.shape[0] != self._dim:
            raise DimensionError(
                f"col: expected length {self._dim}, got {col.shape[0]}"
            )
        builder = _SpanBuilder.holding(self._cols)
        accepted = builder.add(col)
        if accepted is None:
            return self, True
        return builder.freeze(), False

    def project(self, v) -> np.ndarray:
        """Orthogonal projection of `v` onto the subspace."""
        v = as_vector(v, "v")
        if v.shape[0] != self._dim:
            raise DimensionError(f"v: expected length {self._dim}, got {v.shape[0]}")
        return self._cols @ (self._cols.T @ v)

    def project_norm_sq(self, v) -> float:
        """Squared norm of the projection of `v`, clamped to [0, ||v||^2]."""
        v = as_vector(v, "v")
        if v.shape[0] != self._dim:
            raise DimensionError(f"v: expected length {self._dim}, got {v.shape[0]}")
        return min(max(_proj_sq(self._cols, v), 0.0), float(v @ v))
