"""Dense numerical kernel: validation helpers, matrix exponential, and
incremental orthonormal bases.

All public routines work on float64 numpy arrays. The orthonormal basis
kernel is the single place rank decisions are made; every subspace in the
package is accumulated through it.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg

from .errors import DimensionError, InputError

#: Absorption tolerance for basis extension. A candidate column whose
#: twice-orthogonalized residual has norm at most RANK_TOL * (1 + ||col||)
#: is treated as already contained in the span.
RANK_TOL = 1e-10


def _norm(x: np.ndarray) -> float:
    """``float(np.linalg.norm(x))`` for a 1-D float64 array, bit for bit,
    without its dispatch overhead: the square root of ``x.dot(x)`` taken
    over ``x.ravel(order="K")``, which copies only a strided `x`."""
    x = x.ravel(order="K")
    return math.sqrt(x.dot(x))


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
        If coercion fails or any entry is not finite.
    DimensionError
        If the result is not 2-D.
    """
    try:
        out = np.array(a, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{name}: cannot interpret as a float array ({exc})") from exc
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
    """Validate and convert `v` to a finite float64 1-D array."""
    try:
        out = np.array(v, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{name}: cannot interpret as a float array ({exc})") from exc
    if out.ndim != 1:
        raise DimensionError(f"{name}: expected a 1-D array, got ndim={out.ndim}")
    if not np.all(np.isfinite(out)):
        raise InputError(f"{name}: entries must be finite")
    return out


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
    a = as_square(a, "a")
    t = float(t)
    if not np.isfinite(t):
        raise InputError("t: must be finite")
    if a.shape[0] == 0:
        return np.zeros((0, 0))
    return scipy.linalg.expm(a * t)


class _SpanBuilder:
    """Mutable orthonormal span accumulator over R^dim.

    Columns are added one at a time. Each candidate is orthogonalized
    against the current basis, re-orthogonalized once, and either
    appended (unit-normalized) or absorbed when its residual norm falls
    at or below ``RANK_TOL * (1 + ||col||)``. Exact-zero columns are
    absorbed without arithmetic.
    """

    __slots__ = ("dim", "_q", "_r")

    def __init__(self, dim: int):
        self.dim = int(dim)
        self._q = np.empty((self.dim, self.dim))
        self._r = 0

    @classmethod
    def _on(cls, q: np.ndarray) -> "_SpanBuilder":
        """Empty builder whose basis is stored in the square array `q`."""
        builder = cls.__new__(cls)
        builder.dim = q.shape[0]
        builder._q = q
        builder._r = 0
        return builder

    @property
    def rank(self) -> int:
        return self._r

    def copy(self) -> "_SpanBuilder":
        other = _SpanBuilder.__new__(_SpanBuilder)
        other.dim = self.dim
        other._q = np.empty((self.dim, self.dim))
        other._q[:, : self._r] = self._q[:, : self._r]
        other._r = self._r
        return other

    def column(self, k: int) -> np.ndarray:
        """Read-only view of accepted column k. Columns never move once
        accepted, so held views stay valid across later additions."""
        return self._q[:, k]

    def add(self, col: np.ndarray, tol: float | None = None) -> np.ndarray | None:
        """Try to extend the span with `col`.

        Returns the newly accepted unit direction, or None when the
        column is absorbed into the existing span: when its residual norm
        is at most `tol`, by default ``RANK_TOL * (1 + ||col||)``.
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
        if norm_w <= (RANK_TOL * (1.0 + norm0) if tol is None else tol):
            return None
        out = self._q[:, r]
        np.divide(w, norm_w, out=out)
        self._r = r + 1
        return out

    def project_norm_sq(self, v: np.ndarray) -> float:
        """Squared norm of the orthogonal projection of `v` onto the span."""
        if self._r == 0:
            return 0.0
        coeffs = self._q[:, : self._r].T @ v
        return float(coeffs @ coeffs)

    def freeze(self) -> "OrthoBasis":
        return OrthoBasis._trusted(self.dim, self._q[:, : self._r].copy())


def _dots(x: np.ndarray) -> np.ndarray:
    """``x[k].dot(x[k])`` for every row k, each one the same BLAS dot."""
    return (x[:, None, :] @ x[:, :, None])[:, 0, 0]


class _SpanStack:
    """Span builders over R^dim whose bases share one ``(m, dim, dim)`` array.

    ``builders[k]`` is an ordinary _SpanBuilder on item k of the array, so
    a caller may extend one builder alone. :meth:`add` extends the builders
    a mask selects by one column each. When it selects every builder and
    all of them have the same rank, it does so with one batched numpy call
    per step of _SpanBuilder.add: item by item, such a call makes the BLAS
    call the single builder makes, on operands with the same layout, so the
    results are the same to the bit. Otherwise it calls each selected
    builder's add.
    """

    __slots__ = ("q", "builders")

    def __init__(self, m: int, dim: int):
        self.q = np.empty((m, dim, dim))
        self.builders = [_SpanBuilder._on(self.q[k]) for k in range(m)]

    def add(self, cols: np.ndarray, take=None) -> list[np.ndarray | None]:
        """Add ``cols[k]`` to ``builders[k]`` for every k that `take`
        selects (every k when `take` is None); ``cols[k]`` of the others is
        never read.

        BLAS results depend on a vector's stride, so ``cols[k]`` must be
        laid out like the column a caller would pass to one builder.
        Returns what each ``builders[k].add(cols[k])`` returns, None for
        the builders not selected.
        """
        builders = self.builders
        if take is None:
            take = [True] * len(builders)
        r = builders[0]._r
        if len(builders) == 1 or not all(take) or any(b._r != r for b in builders):
            return [b.add(col) if t else None for b, col, t in zip(builders, cols, take)]
        # _norm's ravel copies strided rows; its dot runs on the copies.
        norm0 = np.sqrt(_dots(np.ascontiguousarray(cols)))
        if r:
            q = self.q[:, :, :r]
            qt = q.transpose(0, 2, 1)
            x = cols[:, :, None]
            w = x - q @ (qt @ x)
            w -= q @ (qt @ w)
            w = w[:, :, 0]
            norm_w = np.sqrt(_dots(w))
        else:
            w, norm_w = cols, norm0
        accept = (norm0 != 0.0) & ~(norm_w <= RANK_TOL * (1.0 + norm0))
        if r == self.q.shape[1]:
            if accept.any():
                # No room for the column: fail as the single builder fails.
                return [b.add(col) for b, col in zip(builders, cols)]
            return [None] * len(builders)
        if accept.all():
            np.divide(w, norm_w[:, None], out=self.q[:, :, r])
        else:
            self.q[accept, :, r] = w[accept] / norm_w[accept, None]
        out: list[np.ndarray | None] = []
        for builder, taken in zip(builders, accept.tolist()):
            if taken:
                builder._r = r + 1
                out.append(builder._q[:, r])
            else:
                out.append(None)
        return out


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
        dim = int(ambient_dim)
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
        builder = self._to_builder()
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
        coeffs = self._cols.T @ v
        raw = float(coeffs @ coeffs)
        return min(max(raw, 0.0), float(v @ v))

    def contains(self, v, tol_sq: float) -> bool:
        """True when ``||v||^2 - ||proj(v)||^2 <= tol_sq``."""
        v = as_vector(v, "v")
        if v.shape[0] != self._dim:
            raise DimensionError(f"v: expected length {self._dim}, got {v.shape[0]}")
        nv2 = float(v @ v)
        return nv2 - self.project_norm_sq(v) <= tol_sq

    def _to_builder(self) -> _SpanBuilder:
        builder = _SpanBuilder(self._dim)
        builder._q[:, : self.rank] = self._cols
        builder._r = self.rank
        return builder

