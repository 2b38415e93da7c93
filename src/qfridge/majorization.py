"""Majorization predicates, T-transforms, and the constrained energy minimizer.

The central problem solved here: minimize <x, H> over population vectors x
majorized by a given input vector, subject to a fixed total population in the
ground subspace of the target qubit.  For the one- and two-qubit machines the
minimizer is an explicit chain of at most four T-transforms on the input
vector; :func:`vertex_oracle_min` provides an exhaustive permutation-edge
search of the same polytope as an independent check.

Basis convention throughout: product basis |a b c> with the target bit most
significant (index 4a + 2b + c for three qubits), so the target's ground
subspace is literally the first half of every vector.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

# InfeasibleTargetError lives in thermal so the closed forms raise it without
# loading this module; it stays importable from here, where the solver raises it.
from .thermal import DomainError, InfeasibleTargetError

NORMALIZATION_ATOL = 1e-12

# Slack used when comparing float populations whose exact ordering is analytic.
_ORDER_SLACK = 1e-9


def _as_popvector(vec: Sequence[float], name: str = "population vector") -> np.ndarray:
    arr = np.asarray(vec, dtype=float)
    if arr.ndim != 1:
        raise DomainError(f"{name} must be one-dimensional")
    if np.any(arr < -NORMALIZATION_ATOL):
        raise DomainError(f"{name} has negative entries")
    if abs(arr.sum() - 1.0) > 1e-9:
        raise DomainError(f"{name} does not sum to 1 (sum={arr.sum()!r})")
    return arr


def majorizes(y: Sequence[float], x: Sequence[float]) -> bool:
    """True iff x is majorized by y (x can be reached from y unitarily).

    Checks that the partial sums of descending-sorted x never exceed those of
    descending-sorted y, with equality at the full sum, each within 1e-12.
    """
    tol = 1e-12
    y_arr = _as_popvector(y, "y")
    x_arr = _as_popvector(x, "x")
    if y_arr.size != x_arr.size:
        raise DomainError(f"length mismatch: {y_arr.size} vs {x_arr.size}")
    cum_x = np.cumsum(np.sort(x_arr)[::-1])
    cum_y = np.cumsum(np.sort(y_arr)[::-1])
    if abs(cum_x[-1] - cum_y[-1]) > tol:
        return False
    return bool(np.all(cum_x <= cum_y + tol))


@dataclass(frozen=True)
class TTransform:
    """Two-entry doubly stochastic mix: t = 1 is the identity, t = 0 a swap."""

    i: int
    j: int
    t: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.t <= 1.0:
            raise DomainError(f"mixing weight must lie in [0, 1], got {self.t}")
        if self.i == self.j:
            raise DomainError("T-transform indices must differ")

    def apply(self, vec: Sequence[float]) -> np.ndarray:
        out = np.array(vec, dtype=float)
        vi, vj = out[self.i], out[self.j]
        out[self.i] = self.t * vi + (1.0 - self.t) * vj
        out[self.j] = (1.0 - self.t) * vi + self.t * vj
        return out


def apply_transforms(
    vec: Sequence[float], transforms: Sequence[TTransform]
) -> np.ndarray:
    out = np.array(vec, dtype=float)
    for tr in transforms:
        out = tr.apply(out)
    return out


@dataclass(frozen=True)
class ConstrainedMinResult:
    """Minimizer of <x, H> under majorization and a ground-subspace constraint."""

    minimizer: np.ndarray
    objective: float
    transform_sequence: tuple[TTransform, ...]


def _check_order(pairs: list[tuple[float, float]], context: str) -> None:
    scale = max(1.0, max(abs(a) for a, _ in pairs))
    for hi, lo in pairs:
        if hi < lo - _ORDER_SLACK * scale:
            raise DomainError(
                f"input vector does not have the entry ordering required for {context}"
            )


def solve_one_qubit(
    rho_in: Sequence[float], h: Sequence[float], r_target: float
) -> ConstrainedMinResult:
    """Work-optimal cooling of the target against a single machine qubit.

    The minimizer keeps the extreme entries of ``rho_in`` and T-transforms the
    middle pair |01>, |10> with mixing weight 1 - t = (r_target - r)/(r_B - r).
    """
    rho = _as_popvector(rho_in, "rho_in")
    h_arr = np.asarray(h, dtype=float)
    if rho.size != 4 or h_arr.size != 4:
        raise DomainError("one-qubit solver expects 4-dimensional inputs")
    # Required ordering for a thermal tau (x) tau_B input with e_b >= e:
    # rho0 largest, rho3 smallest, and the |10> level at least as populated
    # as |01> (that surplus is what the swap moves into the ground subspace).
    _check_order(
        [(rho[0], rho[2]), (rho[2], rho[1]), (rho[1], rho[3])], "solve_one_qubit"
    )

    r = float(rho[0] + rho[1])
    r_b = float(rho[0] + rho[2])
    if not r - 1e-12 <= r_target <= r_b + 1e-12:
        raise InfeasibleTargetError(
            f"r_target={r_target} outside the reachable range [{r}, {r_b}]"
        )
    span = r_b - r
    mu = 0.0 if span <= 0.0 else min(max((r_target - r) / span, 0.0), 1.0)
    transforms = (TTransform(1, 2, 1.0 - mu),)
    minimizer = apply_transforms(rho, transforms)
    return ConstrainedMinResult(
        minimizer=minimizer,
        objective=float(minimizer @ h_arr),
        transform_sequence=transforms,
    )


def _two_qubit_gaps(h_arr: np.ndarray) -> tuple[float, float, float]:
    e, e_b, e_c = float(h_arr[4]), float(h_arr[2]), float(h_arr[1])
    expected = np.array(
        [0.0, e_c, e_b, e_b + e_c, e, e + e_c, e + e_b, e + e_b + e_c]
    )
    if not np.allclose(h_arr, expected, rtol=0.0, atol=1e-9 * max(1.0, e_b)):
        raise DomainError("energy vector is not of the three-qubit product form")
    if abs(e_b - e - e_c) > 1e-9 * max(1.0, e_b):
        raise DomainError("energy vector does not satisfy the resonance e_b = e + e_c")
    return e, e_b, e_c


def solve_two_qubit(
    rho_in: Sequence[float], h: Sequence[float], r_target: float
) -> ConstrainedMinResult:
    """Work-optimal single-cycle cooling against a resonant two-qubit machine.

    The branch is read off the gaps in ``h``.  e_c <= e: one pass of partial
    target<->B swaps (levels (2,4) and (3,5)).  e_c > e: partial target<->C
    swaps (levels (1,4) and (3,6)) up to the full swap, then partial
    target<->B swaps.  Unequal mixing weights on the two doublets span a
    family of equally optimal minimizers; the canonical t_1 = t_2 member is
    returned (the family is reachable through :func:`vertex_oracle_min`).
    """
    rho = _as_popvector(rho_in, "rho_in")
    h_arr = np.asarray(h, dtype=float)
    if rho.size != 8 or h_arr.size != 8:
        raise DomainError("two-qubit solver expects 8-dimensional inputs")
    e, e_b, e_c = _two_qubit_gaps(h_arr)

    r = float(rho[:4].sum())
    r_b = float(rho[[0, 1, 4, 5]].sum())
    r_c = float(rho[[0, 2, 4, 6]].sum())
    if not r - 1e-12 <= r_target <= r_b + 1e-12:
        raise InfeasibleTargetError(
            f"r_target={r_target} outside the reachable range [{r}, {r_b}]"
        )

    if e_c <= e:
        _check_order(
            [(rho[0], rho[1]), (rho[1], rho[4]), (rho[4], rho[2]), (rho[4], rho[5]),
             (rho[2], rho[3]), (rho[5], rho[3]), (rho[3], rho[6]), (rho[6], rho[7])],
            "solve_two_qubit (e_c <= e)",
        )
        span = r_b - r
        mu = 0.0 if span <= 0.0 else min(max((r_target - r) / span, 0.0), 1.0)
        t = 1.0 - mu
        transforms = (TTransform(2, 4, t), TTransform(3, 5, t))
    else:
        _check_order(
            [(rho[0], rho[4]), (rho[4], rho[1]), (rho[1], rho[2]), (rho[1], rho[5]),
             (rho[2], rho[6]), (rho[5], rho[6]), (rho[6], rho[3]), (rho[3], rho[7])],
            "solve_two_qubit (e_c > e)",
        )
        if r_target <= r_c:
            span = r_c - r
            w = 0.0 if span <= 0.0 else min(max((r_target - r) / span, 0.0), 1.0)
            t = 1.0 - w
            transforms = (TTransform(1, 4, t), TTransform(3, 6, t))
        else:
            span = r_b - r_c
            w = 0.0 if span <= 0.0 else min(max((r_target - r_c) / span, 0.0), 1.0)
            t = 1.0 - w
            transforms = (
                TTransform(1, 4, 0.0),
                TTransform(3, 6, 0.0),
                TTransform(2, 4, t),
                TTransform(3, 5, t),
            )

    minimizer = apply_transforms(rho, transforms)
    return ConstrainedMinResult(
        minimizer=minimizer,
        objective=float(minimizer @ h_arr),
        transform_sequence=transforms,
    )


@lru_cache(maxsize=4)
def _slab_indices(n: int) -> np.ndarray:
    # The (n-1)! permutations of range(n) that begin with 0, in lexicographic
    # order (itertools' contract): each run of (n-k)! rows shares its first k
    # entries.  Stored as intp so fancy indexing does not convert it on every
    # call; read-only because the cache shares it.
    perms = np.fromiter(
        itertools.chain.from_iterable(
            (0, *rest) for rest in itertools.permutations(range(1, n))
        ),
        dtype=np.intp,
        count=n * math.factorial(n - 1),
    ).reshape(-1, n)
    perms.flags.writeable = False
    return perms


def _lower_envelope_at(f: np.ndarray, obj: np.ndarray, x: float) -> float:
    """Exact minimum over all segments between vertices (f_i, obj_i) at abscissa x.

    Equivalent to intersecting every pairwise segment with the constraint
    hyperplane and keeping the best objective: the minimum at fixed abscissa
    over convex combinations of two points is the lower convex envelope.
    Abscissae are population sums, so permutations of identical summands can
    land a few ulp apart; values within 1e-12 are coalesced (keeping the
    cluster's best objective) before the envelope is built.
    """
    order = np.lexsort((obj, f))
    f_sorted, obj_sorted = f[order], obj[order]
    starts = np.concatenate(([True], np.diff(f_sorted) > 1e-12))
    start_idx = np.nonzero(starts)[0]
    f_sorted = f_sorted[starts]
    obj_sorted = np.minimum.reduceat(obj_sorted, start_idx)

    hull: list[tuple[float, float]] = []
    for px, py in zip(f_sorted.tolist(), obj_sorted.tolist()):
        while len(hull) >= 2:
            (ax, ay), (bx, by) = hull[-2], hull[-1]
            if (bx - ax) * (py - ay) - (by - ay) * (px - ax) <= 0.0:
                hull.pop()
            else:
                break
        hull.append((px, py))

    xs = np.array([p[0] for p in hull])
    ys = np.array([p[1] for p in hull])
    x = min(max(x, xs[0]), xs[-1])
    pos = int(np.searchsorted(xs, x))
    if pos < xs.size and xs[pos] == x:
        return float(ys[pos])
    lam = (xs[pos] - x) / (xs[pos] - xs[pos - 1])
    return float(lam * ys[pos - 1] + (1.0 - lam) * ys[pos])


def vertex_oracle_min(
    rho_in: Sequence[float], h: Sequence[float], k: int, r_target: float
) -> float:
    """Exhaustive-permutation oracle for the constrained minimization.

    Enumerates all n! permutations of ``rho_in`` (the vertices of the set of
    vectors majorized by it) and minimizes <x, H> on the ground-sum hyperplane
    over every pairwise segment between them.  The constraint is linear, so
    each segment contributes at most one candidate, computed in closed form.
    Dimension is capped at 8.
    """
    rho = _as_popvector(rho_in, "rho_in")
    h_arr = np.asarray(h, dtype=float)
    n = rho.size
    if n > 8:
        raise DomainError("oracle supports dimension <= 8 only")
    if h_arr.size != n:
        raise DomainError("rho_in and h must have equal length")
    if not 0 < k < n:
        raise DomainError(f"k={k} must satisfy 0 < k < {n}")

    sorted_rho = np.sort(rho)
    f_min = float(sorted_rho[:k].sum())
    f_max = float(sorted_rho[-k:].sum())
    if not f_min - 1e-9 <= r_target <= f_max + 1e-9:
        raise InfeasibleTargetError(
            f"ground sum {r_target} outside the reachable range [{f_min}, {f_max}]"
        )

    # Vertices that share their first k entries share their ground sum, and
    # at a shared abscissa only the lowest objective can touch the envelope,
    # so each lexicographic block of (n-k)! vertices is reduced to its best.
    # The vertices are gathered one slab of (n-1)! at a time: row i of
    # `fronts` is rho[i] followed by the other entries in order, and indexing
    # it with the table gives the slab of vertices that begin with rho[i].
    # The slabs in turn are the lexicographic enumeration, and all n!
    # vertices are never held at once.
    others = np.broadcast_to(rho, (n, n))[~np.eye(n, dtype=bool)].reshape(n, n - 1)
    fronts = np.column_stack((rho, others))
    table = _slab_indices(n)
    block = math.factorial(n - k)
    objs, fs = [], []
    for front in fronts:
        slab = front[table]
        objs.append((slab @ h_arr).reshape(-1, block).min(axis=1))
        fs.append(slab[::block, :k].sum(axis=1))
        del slab  # before the next slab is gathered
    return _lower_envelope_at(np.concatenate(fs), np.concatenate(objs), r_target)
