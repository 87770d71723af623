"""Executable hardness reductions from minimum hitting set to minimal
actuator selection, with a verifier that checks the claimed equivalences
by dual brute force on small instances.

Three constructions are provided. The first two embed a hitting-set
instance into a state-transfer problem whose minimum actuator count is
exactly one more than the minimum hitting set; they differ in that the
second leaves every optimal actuator set uncontrollable. The third embeds
the instance into a cone-reachability problem over a two-block nilpotent
system whose minimum actuator count equals the hitting-set optimum.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, DimensionError, InputError
from .numkit import as_int
from .reachcore import (
    EXACT_TOL,
    N_BRUTE,
    ActuatorSet,
    LtiSystem,
    is_controllable,
)
from .selector import brute_force_opt, min_hitting_set


@dataclass(frozen=True)
class HittingSetInstance:
    """A minimum-hitting-set instance over the universe ``1..m``.

    Parameters
    ----------
    m : int
        Universe size.
    sets : iterable of iterables of int
        The subsets to hit; each non-empty, elements 1-based, and every
        element of the universe must appear in at least one set.
    """

    m: int
    sets: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        m = as_int(self.m, "m")
        if m < 1:
            raise InputError("m: must be at least 1")
        object.__setattr__(self, "m", m)
        norm = []
        seen: set[int] = set()
        for k, raw in enumerate(self.sets):
            try:
                raw = tuple(raw)
            except TypeError as exc:
                raise InputError(
                    f"sets[{k}]: expected a set of integers, got {raw!r}"
                ) from exc
            members = tuple(sorted({as_int(j, f"sets[{k}]") for j in raw}))
            if not members:
                raise InputError(f"sets[{k}]: must be non-empty")
            for j in members:
                if not 1 <= j <= m:
                    raise InputError(f"sets[{k}]: element {j} outside 1..{m}")
            seen.update(members)
            norm.append(members)
        if not norm:
            raise InputError("sets: must be non-empty")
        if seen != set(range(1, m + 1)):
            missing = sorted(set(range(1, m + 1)) - seen)
            raise InputError(f"every element must appear in some set; missing {missing}")
        object.__setattr__(self, "sets", tuple(norm))

    @property
    def p(self) -> int:
        """Number of sets."""
        return len(self.sets)

    def incidence(self) -> "IncidenceMatrix":
        phi = np.zeros((self.p, self.m))
        for i, members in enumerate(self.sets):
            for j in members:
                phi[i, j - 1] = 1.0
        return IncidenceMatrix(phi)

    @classmethod
    def from_dict(cls, data: dict) -> "HittingSetInstance":
        """Build from the JSON shape {"m": int, "sets": [[int, ...], ...]}."""
        if not isinstance(data, dict):
            raise InputError("instance: expected a JSON object")
        try:
            m = data["m"]
            sets = data["sets"]
        except (KeyError, TypeError) as exc:
            raise InputError(f"instance: missing field {exc}") from exc
        if not (isinstance(sets, list) and all(isinstance(s, list) for s in sets)):
            raise InputError("instance: 'sets' must be a list of lists")
        return cls(m=m, sets=tuple(tuple(s) for s in sets))

    def to_dict(self) -> dict:
        return {"m": self.m, "sets": [list(s) for s in self.sets]}


@dataclass(frozen=True, eq=False)
class IncidenceMatrix:
    """Zero-one set-membership matrix: entry (i, j) is 1 exactly when
    set i contains element j. Every row has at least one 1."""

    phi: np.ndarray

    def __post_init__(self):
        phi = np.array(self.phi, dtype=float)
        if phi.ndim != 2 or phi.shape[0] < 1 or phi.shape[1] < 1:
            raise DimensionError("phi: expected a non-empty 2-D array")
        if not np.all((phi == 0.0) | (phi == 1.0)):
            raise InputError("phi: entries must be 0 or 1")
        if not np.all(phi.sum(axis=1) >= 1.0):
            raise InputError("phi: every row needs at least one 1")
        phi.setflags(write=False)
        object.__setattr__(self, "phi", phi)

    @property
    def p(self) -> int:
        return self.phi.shape[0]

    @property
    def m(self) -> int:
        return self.phi.shape[1]


@dataclass(frozen=True)
class ConeTarget:
    """The open cone {x : x_1..m = 0, x_(m+1)..(m+p) > 0} in R^(m+p)."""

    m: int
    p: int

    def __post_init__(self):
        if int(self.m) < 1 or int(self.p) < 1:
            raise InputError("m and p must be at least 1")
        object.__setattr__(self, "m", int(self.m))
        object.__setattr__(self, "p", int(self.p))


@dataclass(frozen=True)
class ReductionReport:
    """Outcome of one reduction check.

    ``hitting_set_size`` is the exact hitting-set optimum h;
    ``reach_min_size`` the minimum actuator count of the built problem
    (None when nothing within k_max succeeds); ``expected_size`` is h+1
    for the transfer variants and h for the cone variant. For the
    transfer variants ``controllable_at_optimum`` records whether the
    found optimal set renders the system controllable, which the
    constructions predict to be true for lemma1 and false for lemma2;
    it is folded into ``passed``.
    """

    variant: str
    hitting_set_size: int
    reach_min_size: int | None
    expected_size: int
    controllable_at_optimum: bool | None
    passed: bool


def _check_dominant(v: np.ndarray) -> None:
    # The similarity matrices are strictly diagonally dominant by
    # construction; a violation means the assembly above is wrong.
    diag = np.abs(np.diag(v))
    off = np.abs(v).sum(axis=1) - diag
    if not np.all(diag > off):
        raise AssertionError("similarity matrix lost strict diagonal dominance")


def _v1_matrix(phi: np.ndarray) -> np.ndarray:
    p, m = phi.shape
    n = m + p + 1
    v1 = np.zeros((n, n))
    v1[:m, :m] = 2.0 * np.eye(m)
    v1[:m, n - 1] = 1.0
    v1[m : m + p, :m] = phi
    v1[m : m + p, m : m + p] = (m + 1.0) * np.eye(p)
    v1[n - 1, n - 1] = 1.0
    _check_dominant(v1)
    return v1


def build_lemma1(instance: HittingSetInstance) -> tuple[LtiSystem, np.ndarray]:
    """Transfer instance whose minimum actuator count is the hitting-set
    optimum plus one.

    The state matrix is similar to diag(1..n) under a strictly diagonally
    dominant change of basis assembled from the incidence matrix; the
    target is the preimage of the all-ones vector. Feasibility of the
    transfer from the origin coincides with controllability of the chosen
    actuator set for this construction.
    """
    phi = instance.incidence().phi
    n = instance.m + instance.p + 1
    v1 = _v1_matrix(phi)
    a = np.linalg.solve(v1, np.diag(np.arange(1.0, n + 1.0)) @ v1)
    chi = np.linalg.solve(v1, np.ones(n))
    return LtiSystem(a), chi


def build_lemma2(instance: HittingSetInstance) -> tuple[LtiSystem, np.ndarray]:
    """Transfer instance with the same optimum as :func:`build_lemma1`
    whose optimal actuator sets all leave the system uncontrollable.

    Extends the lemma1 basis with one decoupled trailing coordinate and
    zeroes the target there, so the extra state is never needed for the
    transfer yet is required for controllability.
    """
    phi = instance.incidence().phi
    n = instance.m + instance.p + 2
    v2 = np.zeros((n, n))
    v2[: n - 1, : n - 1] = _v1_matrix(phi)
    v2[n - 1, n - 1] = 1.0
    _check_dominant(v2)
    a = np.linalg.solve(v2, np.diag(np.arange(1.0, n + 1.0)) @ v2)
    rhs = np.ones(n)
    rhs[n - 1] = 0.0
    chi = np.linalg.solve(v2, rhs)
    return LtiSystem(a), chi


def build_lemma3(instance: HittingSetInstance) -> tuple[LtiSystem, ConeTarget]:
    """Cone-reachability instance whose minimum actuator count equals the
    hitting-set optimum.

    The state matrix is the two-block nilpotent [[0, 0], [phi, 0]]
    (its square vanishes), and the target is the cone of states that are
    zero on the first m coordinates and positive on the last p.
    """
    phi = instance.incidence().phi
    m, p = instance.m, instance.p
    n = m + p
    a = np.zeros((n, n))
    a[m:, :m] = phi
    return LtiSystem(a), ConeTarget(m=m, p=p)


def cone_k_reachable(instance: HittingSetInstance, delta: ActuatorSet) -> bool:
    """Whether `delta` makes the lemma3 cone reachable.

    Because the lemma3 state matrix squares to zero, the reachable span
    is generated by the actuated unit vectors and their one-step images,
    and the cone is reachable exactly when every set row is covered: row
    i counts as covered when actuator m+i is selected or some selected
    actuator j <= m belongs to set i.
    """
    m, p = instance.m, instance.p
    if delta.n != m + p:
        raise DimensionError(
            f"actuator set is over dimension {delta.n}, lemma3 system has n={m + p}"
        )
    selected = set(delta.indices)
    for i, members in enumerate(instance.sets, start=1):
        if m + i in selected:
            continue
        if any(j in selected for j in members):
            continue
        return False
    return True


def _min_cone_cardinality(
    instance: HittingSetInstance, k_max: int
) -> int | None:
    n = instance.m + instance.p
    for k in range(min(k_max, n) + 1):
        for combo in itertools.combinations(range(1, n + 1), k):
            if cone_k_reachable(instance, ActuatorSet(n, combo)):
                return k
    return None


def verify_reduction(
    instance: HittingSetInstance, variant: str, k_max: int | None = None
) -> ReductionReport:
    """Check one reduction's size identity by dual brute force.

    Computes the exact hitting-set optimum h, then the minimum actuator
    count of the built problem: for the transfer variants by exhaustive
    search at exact tolerance (expected h+1, with the found optimum
    controllable for lemma1 and uncontrollable for lemma2), for the cone
    variant by the structural cover criterion (expected h). The report
    carries both numbers and the combined pass flag.
    """
    if variant not in ("lemma1", "lemma2", "lemma3"):
        raise InputError(f"variant: expected lemma1, lemma2 or lemma3, got {variant!r}")
    if instance.m + instance.p + 2 > N_BRUTE:
        raise CapacityError(
            f"instance needs n up to {instance.m + instance.p + 2}, "
            f"beyond the exhaustive cap {N_BRUTE}"
        )
    h = len(min_hitting_set(instance))

    if variant == "lemma3":
        n = instance.m + instance.p
        found = _min_cone_cardinality(
            instance, n if k_max is None else as_int(k_max, "k_max")
        )
        return ReductionReport(
            variant=variant,
            hitting_set_size=h,
            reach_min_size=found,
            expected_size=h,
            controllable_at_optimum=None,
            passed=found == h,
        )

    build = build_lemma1 if variant == "lemma1" else build_lemma2
    sys, chi = build(instance)
    opt = brute_force_opt(sys, chi, EXACT_TOL * float(chi @ chi), k_max)
    found = None if opt is None else opt.cardinality
    controllable = None if opt is None else is_controllable(sys, opt)
    expected_controllable = variant == "lemma1"
    passed = found == h + 1 and controllable == expected_controllable
    return ReductionReport(
        variant=variant,
        hitting_set_size=h,
        reach_min_size=found,
        expected_size=h + 1,
        controllable_at_optimum=controllable,
        passed=passed,
    )
