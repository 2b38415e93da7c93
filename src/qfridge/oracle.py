"""Independent dense density-matrix verification engine.

Everything here works on explicit complex matrices of dimension 2, 4, or 8
(product basis |a b c> with the target bit most significant) and never calls
into the closed-form protocol evaluators, so formula/oracle agreement is a
genuine two-route check.  Contents: thermal-state construction, unitary
application with invariant assertions, step-by-step protocol simulators,
seeded Haar Pareto sweeps, degenerate-subspace sweeps, and the
thermalization-gradient finite-difference check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .thermal import (
    DomainError,
    MachineSpec,
    boltzmann_population,
    hamiltonian_diagonal,
    thermal_populations,
)

DEFAULT_SEED = 879190747  # fixed 64-bit-safe default, recorded in every report

UNITARITY_ATOL = 1e-10
TRACE_ATOL = 1e-12
ENERGY_ATOL = 1e-10

# Unitaries per haar_unitaries call in haar_pareto_sweep.  A batch draws all
# its real parts before its imaginary parts, so this size fixes which
# unitaries a seed draws.
HAAR_BATCH = 10_000
# Matrices factored per QR call in haar_unitaries: bounds the temporaries
# only, since LAPACK factors each matrix on its own.
_QR_CHUNK = 512


@dataclass(frozen=True)
class DenseState:
    """Hermitian PSD trace-one matrix over the product basis |a b c>."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        mat = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", mat)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise DomainError("state matrix must be square")
        if mat.shape[0] not in (2, 4, 8):
            raise DomainError("oracle states are capped at dimension 8")
        trace = np.trace(mat)
        if abs(trace.real - 1.0) > TRACE_ATOL or abs(trace.imag) > TRACE_ATOL:
            raise DomainError("state matrix must have unit trace")
        if np.linalg.eigvalsh((mat + mat.conj().T) / 2.0).min() < -1e-12:
            raise DomainError("state matrix must be positive semidefinite")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_qubits(self) -> int:
        return self.dim.bit_length() - 1

    def diagonal(self) -> np.ndarray:
        return self.matrix.diagonal().real.copy()

    def target_ground_population(self) -> float:
        return float(self.diagonal()[: self.dim // 2].sum())


@dataclass(frozen=True)
class UnitaryOp:
    """A unitary with a tag recording whether it must conserve energy."""

    matrix: np.ndarray
    tag: str = "general"

    def __post_init__(self) -> None:
        mat = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", mat)
        if self.tag not in ("energy_conserving", "general"):
            raise DomainError(f"unknown unitary tag {self.tag!r}")
        dim = mat.shape[0]
        if np.abs(mat @ mat.conj().T - np.eye(dim)).max() > UNITARITY_ATOL:
            raise DomainError("matrix is not unitary within 1e-10")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def swap_unitary(dim: int, i: int, j: int, tag: str = "general") -> UnitaryOp:
    """Permutation unitary exchanging basis levels i and j."""
    mat = np.eye(dim, dtype=complex)
    mat[[i, j]] = mat[[j, i]]
    return UnitaryOp(mat, tag)


def partial_swap_unitary(dim: int, i: int, j: int, weight: float) -> UnitaryOp:
    """Two-level rotation moving population fraction ``weight`` between i and j."""
    if not 0.0 <= weight <= 1.0:
        raise DomainError(f"swap weight must lie in [0, 1], got {weight}")
    mat = np.eye(dim, dtype=complex)
    c, s = math.sqrt(1.0 - weight), math.sqrt(weight)
    mat[i, i] = mat[j, j] = c
    mat[i, j] = s
    mat[j, i] = -s
    return UnitaryOp(mat)


def qubit_swap_unitary(n_qubits: int, qa: int, qb: int) -> UnitaryOp:
    """Swap of two whole qubits: a quarter turn on every (...0a..1b.., ...1a..0b..) pair."""
    dim = 2**n_qubits
    mat = np.eye(dim, dtype=complex)
    bit_a, bit_b = n_qubits - 1 - qa, n_qubits - 1 - qb
    for idx in range(dim):
        if (idx >> bit_a) & 1 == 0 and (idx >> bit_b) & 1 == 1:
            jdx = idx | (1 << bit_a)
            jdx &= ~(1 << bit_b)
            mat[idx, idx] = mat[jdx, jdx] = 0.0
            mat[idx, jdx] = 1.0
            mat[jdx, idx] = -1.0
    return UnitaryOp(mat)


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two matrices: np.kron's entries without its overhead."""
    rows, cols = a.shape[0] * b.shape[0], a.shape[1] * b.shape[1]
    return np.multiply.outer(a, b).transpose(0, 2, 1, 3).reshape(rows, cols)


def build_thermal_state(spec: MachineSpec, per_qubit_temps: Sequence[float]) -> DenseState:
    """Diagonal tensor product of single-qubit Gibbs states, target first."""
    if 2 ** spec.n_qubits > 8:
        raise DomainError("oracle states are capped at dimension 8")
    return DenseState(np.diag(thermal_populations(spec.gaps, per_qubit_temps)))


def assert_energy_conserving(u: UnitaryOp, h: Sequence[float]) -> None:
    h_arr = np.asarray(h, dtype=float)
    comm = u.matrix @ np.diag(h_arr) - np.diag(h_arr) @ u.matrix
    if np.abs(comm).max() > ENERGY_ATOL * max(1.0, float(np.abs(h_arr).max())):
        raise DomainError("unitary tagged energy_conserving does not commute with H")


def apply_and_measure(
    state: DenseState, u: UnitaryOp, h: Sequence[float]
) -> tuple[float, float, DenseState]:
    """Apply U, assert the oracle invariants, and read off the observables.

    Returns the target ground population of U rho U^dagger, the change in
    <H>, and U rho U^dagger itself, formed once, for the next step to
    continue from.  Unitarity is asserted on every application and the
    evolved state passes the ``DenseState`` unit-trace and PSD checks;
    energy-conserving tagged unitaries are additionally checked to commute
    with H and to change <H> by less than 1e-10.
    """
    if u.dim != state.dim:
        raise DomainError(f"dimension mismatch: state {state.dim}, unitary {u.dim}")
    h_arr = np.asarray(h, dtype=float)
    if h_arr.size != state.dim:
        raise DomainError("energy vector length must match the state dimension")
    if np.abs(u.matrix @ u.matrix.conj().T - np.eye(u.dim)).max() > UNITARITY_ATOL:
        raise DomainError("unitary drifted away from unitarity")
    final = DenseState(u.matrix @ state.matrix @ u.matrix.conj().T)
    delta_energy = float((final.diagonal() - state.diagonal()) @ h_arr)
    if u.tag == "energy_conserving":
        assert_energy_conserving(u, h_arr)
        if abs(delta_energy) > ENERGY_ATOL:
            raise DomainError("energy-conserving unitary changed <H>")
    return final.target_ground_population(), delta_energy, final


def _partial_trace(mat: np.ndarray, n_qubits: int, qubit: int) -> np.ndarray:
    tensor = mat.reshape((2,) * (2 * n_qubits))
    traced = np.trace(tensor, axis1=qubit, axis2=n_qubits + qubit)
    half = 2 ** (n_qubits - 1)
    return traced.reshape(half, half)


def replace_qubit_marginal(
    state: DenseState, qubit: int, ground_population: float
) -> DenseState:
    """Trace one qubit out and re-insert it in a fresh diagonal state."""
    n = state.n_qubits
    if not 0 <= qubit < n:
        raise DomainError(f"qubit index {qubit} out of range for {n} qubits")
    rest = _partial_trace(state.matrix, n, qubit)
    tau = np.diag([ground_population, 1.0 - ground_population]).astype(complex)
    full = _kron(rest, tau).reshape((2,) * (2 * n))
    # kron left the fresh qubit in the least significant slot; move it home.
    remaining = [q for q in range(n) if q != qubit]
    src_axis = {q: a for a, q in enumerate(remaining)}
    src_axis[qubit] = n - 1
    perm = [src_axis[q] for q in range(n)]
    full = np.transpose(full, perm + [n + p for p in perm])
    return DenseState(full.reshape(state.dim, state.dim))


def rethermalize(state: DenseState, qubit: int, gap: float, temp: float) -> DenseState:
    """Replace one qubit's marginal with a fresh Gibbs state at ``temp``."""
    return replace_qubit_marginal(state, qubit, boltzmann_population(gap, temp))


# ---------------------------------------------------------------------------
# Step-by-step protocol simulators (dense route only).
# ---------------------------------------------------------------------------


def simulate_one_qubit_partial_swap(
    e: float, e_b: float, t_room: float, mu: float
) -> tuple[float, float]:
    """Partial |01><10| swap on a 4-dimensional thermal product state."""
    spec = MachineSpec.one_qubit(e_b, t_room, e=e)
    state = build_thermal_state(spec, (t_room, t_room))
    h = hamiltonian_diagonal(spec.gaps)
    u = partial_swap_unitary(4, 1, 2, mu)
    r_final, delta_energy, _ = apply_and_measure(state, u, h)
    return r_final, delta_energy


def simulate_incoherent_single(spec: MachineSpec) -> tuple[float, float, float]:
    """Heat C, apply the |010><101| swap; returns (r, heat, work)."""
    t_hot = spec.require_hot_bath()
    h = hamiltonian_diagonal(spec.gaps)
    state = build_thermal_state(spec, (spec.t_room, spec.t_room, t_hot))
    heat = spec.e_c * (
        boltzmann_population(spec.e_c, spec.t_room) - boltzmann_population(spec.e_c, t_hot)
    )
    u = swap_unitary(8, 2, 5, tag="energy_conserving")
    r_final, _, _ = apply_and_measure(state, u, h)
    work = heat * (1.0 - spec.t_room / t_hot)
    return r_final, heat, work


def simulate_coherent_single(spec: MachineSpec, mu: float) -> tuple[float, float]:
    """Apply the mu-parametrized work-optimal single-cycle unitary; (r, work)."""
    if not 0.0 <= mu <= 1.0:
        raise DomainError(f"mu must lie in [0, 1], got {mu}")
    h = hamiltonian_diagonal(spec.gaps)
    state = build_thermal_state(spec, (spec.t_room,) * 3)
    if spec.e_c <= spec.e:
        unit = (
            partial_swap_unitary(8, 2, 4, mu).matrix
            @ partial_swap_unitary(8, 3, 5, mu).matrix
        )
    else:
        w_ac = min(2.0 * mu, 1.0)
        w_ab = max(2.0 * mu - 1.0, 0.0)
        unit = (
            partial_swap_unitary(8, 2, 4, w_ab).matrix
            @ partial_swap_unitary(8, 3, 5, w_ab).matrix
            @ partial_swap_unitary(8, 1, 4, w_ac).matrix
            @ partial_swap_unitary(8, 3, 6, w_ac).matrix
        )
    r_final, work, _ = apply_and_measure(state, UnitaryOp(unit), h)
    return r_final, work


def _c_ground_population(state: DenseState) -> float:
    diag = state.diagonal()
    return float(diag[[0, 2, 4, 6]].sum())


def simulate_repeated_incoherent(
    spec: MachineSpec, n: int, r0: float | None = None
) -> tuple[list[float], list[float]]:
    """n reset-and-swap incoherent cycles; returns (r after k, heat after k).

    ``r0`` overrides the target's starting population (default: thermal at
    t_room), which lets ladder stages be chained.
    """
    t_hot = spec.require_hot_bath()
    h = hamiltonian_diagonal(spec.gaps)
    r_ch = boltzmann_population(spec.e_c, t_hot)
    state = build_thermal_state(spec, (spec.t_room,) * 3)
    if r0 is not None:
        state = replace_qubit_marginal(state, 0, r0)
    swap = swap_unitary(8, 2, 5, tag="energy_conserving")

    heat = spec.e_c * (boltzmann_population(spec.e_c, spec.t_room) - r_ch)
    rs = [state.target_ground_population()]
    heats = [heat]
    for step in range(n):
        if step > 0:
            state = rethermalize(state, 1, spec.e_b, spec.t_room)
            heat += spec.e_c * (_c_ground_population(state) - r_ch)
        state = rethermalize(state, 2, spec.e_c, t_hot)
        r_new, _, state = apply_and_measure(state, swap, h)
        rs.append(r_new)
        heats.append(heat)
    return rs, heats


def simulate_repeated_coherent(
    spec: MachineSpec, n: int
) -> tuple[list[float], list[float]]:
    """Optimal first cycle, then reset-and-|100><011|-swap cycles; (r_k, work_k)."""
    h = hamiltonian_diagonal(spec.gaps)
    state = build_thermal_state(spec, (spec.t_room,) * 3)
    rs = [state.target_ground_population()]
    works = [0.0]
    work = 0.0
    swap_00_11 = swap_unitary(8, 3, 4)
    for step in range(n):
        if step == 0:
            if spec.e_c <= spec.e:
                u = qubit_swap_unitary(3, 0, 1)
            else:
                u = UnitaryOp(
                    qubit_swap_unitary(3, 0, 1).matrix
                    @ qubit_swap_unitary(3, 0, 2).matrix
                )
        else:
            state = rethermalize(state, 1, spec.e_b, spec.t_room)
            state = rethermalize(state, 2, spec.e_c, spec.t_room)
            u = swap_00_11
        r_new, delta_e, state = apply_and_measure(state, u, h)
        work += delta_e
        rs.append(r_new)
        works.append(work)
    return rs, works


def simulate_algorithmic(
    spec: MachineSpec, n: int, nu: float = 1.0, r0: float | None = None
) -> tuple[list[float], list[float]]:
    """Precool-and-swap cycles; returns (r after k, work after k).

    Each cycle resets B, precools C and runs the cooling swap.  At nu = 1 the
    precooling is the literal full B<->C swap, charged through its <H>
    change, and a second B reset; it hands C a fresh decorrelated thermal
    state, so this matches the closed forms exactly.  At nu < 1 C's marginal
    is replaced by the nu-precooled population, charged at the B-swap
    gradient e_b - e_c per unit population: the closed forms' idealization,
    which drops the target-machine correlations a literal partial swap would
    leave.  ``r0`` overrides the target's starting population (default:
    thermal at t_room).
    """
    if not 0.0 <= nu <= 1.0:
        raise DomainError(f"nu must lie in [0, 1], got {nu}")
    h = hamiltonian_diagonal(spec.gaps)
    r_b = boltzmann_population(spec.e_b, spec.t_room)
    r_c = boltzmann_population(spec.e_c, spec.t_room)
    r_c_nu = r_c + nu * (r_b - r_c)

    state = build_thermal_state(spec, (spec.t_room,) * 3)
    if r0 is not None:
        state = replace_qubit_marginal(state, 0, r0)
    precool_swap = qubit_swap_unitary(3, 1, 2)
    cool_swap = swap_unitary(8, 3, 4)

    rs = [state.target_ground_population()]
    works = [0.0]
    work = 0.0
    for _ in range(n):
        state = rethermalize(state, 1, spec.e_b, spec.t_room)
        if nu == 1.0:
            _, delta_e, state = apply_and_measure(state, precool_swap, h)
            work += delta_e
            state = rethermalize(state, 1, spec.e_b, spec.t_room)
        else:
            work += (spec.e_b - spec.e_c) * (r_c_nu - _c_ground_population(state))
            state = replace_qubit_marginal(state, 2, r_c_nu)
        r_new, delta_e, state = apply_and_measure(state, cool_swap, h)
        work += delta_e
        rs.append(r_new)
        works.append(work)
    return rs, works


# ---------------------------------------------------------------------------
# Haar Pareto sweep.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DominatingPoint:
    index: int
    r: float
    delta_f: float
    excess: float


@dataclass(frozen=True)
class DominanceReport:
    """Outcome of a Haar sweep against an analytic optimal curve."""

    samples: int
    seed: int
    slack: float
    dominating: tuple[DominatingPoint, ...] = ()

    @property
    def passed(self) -> bool:
        return not self.dominating


def haar_unitaries(dim: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Batch of Haar-distributed unitaries via QR with phase-fixed diagonal.

    All ``count`` Gaussian matrices are drawn first (real parts, then
    imaginary parts), so the batch size alone fixes which unitaries ``rng``
    yields.  They are then factored in place, ``_QR_CHUNK`` matrices at a
    time; the chunk only bounds the temporaries and never changes a unitary.
    """
    if dim < 1 or count < 0:
        raise DomainError(f"need dim >= 1 and count >= 0, got dim={dim}, count={count}")
    shape = (count, dim, dim)
    z = np.empty(shape, dtype=complex)
    z.real = rng.standard_normal(shape)
    z.imag = rng.standard_normal(shape)
    z /= math.sqrt(2.0)
    for lo in range(0, count, _QR_CHUNK):
        chunk = z[lo : lo + _QR_CHUNK]
        q, r = np.linalg.qr(chunk)
        d = np.diagonal(r, axis1=1, axis2=2)
        q *= (d / np.abs(d))[:, None, :]
        chunk[...] = q
    return z


def _curve_arrays(curve: Sequence[tuple[float, float]]) -> tuple[np.ndarray, np.ndarray]:
    arr = np.asarray([(float(f), float(r)) for f, r in curve], dtype=float)
    if arr.ndim != 2 or arr.shape[0] < 2:
        raise DomainError("analytic curve needs at least two (delta_f, r) points")
    arr = arr[np.argsort(arr[:, 1])]
    return arr[:, 0], arr[:, 1]


def dominates_curve(
    r: np.ndarray,
    delta_f: np.ndarray,
    curve: Sequence[tuple[float, float]],
    slack: float = 1e-9,
) -> tuple[np.ndarray, np.ndarray]:
    """Which (population, cost) points strictly beat the claimed frontier.

    ``curve`` is a sequence of (delta_f, r) points; the claimed minimal cost
    at intermediate populations is its linear interpolation.  A point
    dominates when it reaches a population the curve says is unreachable, or
    reaches a curve population at strictly lower cost than claimed (both
    beyond ``slack``).  Returns the mask and the claimed cost at each ``r``.
    """
    curve_f, curve_r = _curve_arrays(curve)
    needed = np.interp(r, curve_r, curve_f)
    mask = (r > curve_r[-1] + slack) | ((r > curve_r[0] + slack) & (delta_f < needed - slack))
    return mask, needed


def haar_pareto_sweep(
    spec: MachineSpec,
    samples: int,
    analytic_curve: Sequence[tuple[float, float]],
    seed: int = DEFAULT_SEED,
    slack: float = 1e-9,
) -> DominanceReport:
    """Search for Haar-random unitaries beating the analytic cooling frontier.

    ``analytic_curve`` is a sequence of (delta_f, r) points ordered by
    increasing r; the claimed minimal cost at intermediate populations is its
    linear interpolation (exact when the curve includes its kinks, since the
    analytic frontier is piecewise linear).  A sample dominates if it reaches
    a higher population at strictly lower cost than the curve, beyond
    ``slack`` (see :func:`dominates_curve`).  The expected report is empty.
    """
    if samples < 0:
        raise DomainError("sample count must be >= 0")
    r_max = float(_curve_arrays(analytic_curve)[1][-1])

    pops = thermal_populations(spec.gaps, (spec.t_room,) * spec.n_qubits)
    h = hamiltonian_diagonal(spec.gaps)
    dim = pops.size
    base_energy = float(pops @ h)

    rng = np.random.default_rng(seed)
    dominating: list[DominatingPoint] = []
    done = 0
    while done < samples:
        count = min(HAAR_BATCH, samples - done)
        weights = np.abs(haar_unitaries(dim, count, rng))
        weights **= 2
        final_pops = weights @ pops
        del weights  # before the next batch is drawn
        r_s = final_pops[:, : dim // 2].sum(axis=1)
        f_s = final_pops @ h - base_energy
        bad, needed = dominates_curve(r_s, f_s, analytic_curve, slack)
        for local_idx in np.nonzero(bad)[0]:
            excess = max(
                float(needed[local_idx] - f_s[local_idx]),
                float(r_s[local_idx] - r_max),
            )
            dominating.append(
                DominatingPoint(
                    index=done + int(local_idx),
                    r=float(r_s[local_idx]),
                    delta_f=float(f_s[local_idx]),
                    excess=excess,
                )
            )
        done += count
    return DominanceReport(
        samples=samples, seed=seed, slack=slack, dominating=tuple(dominating)
    )


# ---------------------------------------------------------------------------
# Degenerate-subspace sweep and thermalization gradients.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SubspaceSweepReport:
    subspace: tuple[int, int]
    baseline_r: float
    best_r: float
    best_weight: float
    grid: int

    @property
    def improvement(self) -> float:
        return self.best_r - self.baseline_r


def degenerate_subspace_sweep(
    spec: MachineSpec, subspace: tuple[int, int], grid: int
) -> SubspaceSweepReport:
    """Sweep the partial-swap family on one degenerate level pair.

    The machine is prepared with qubit C heated to t_hot (when set); the
    sweep covers the one-parameter family of phase-free rotations, which is
    exhaustive for diagonal states.  Reports the best reachable target ground
    population.
    """
    i, j = subspace
    h = hamiltonian_diagonal(spec.gaps)
    scale = max(1.0, float(np.abs(h).max()))
    if abs(h[i] - h[j]) > 1e-9 * scale:
        raise DomainError(
            f"levels {i} and {j} are not degenerate (energies {h[i]}, {h[j]})"
        )
    if grid < 2:
        raise DomainError("grid must have at least 2 points")
    temps = [spec.t_room] * spec.n_qubits
    if spec.t_hot is not None and spec.n_qubits >= 2:
        temps[-1] = spec.t_hot
    state = build_thermal_state(spec, temps)
    dim = state.dim

    best_r, best_w = -1.0, 0.0
    baseline = state.target_ground_population()
    for weight in np.linspace(0.0, 1.0, grid):
        u = partial_swap_unitary(dim, i, j, float(weight))
        r_final, _, _ = apply_and_measure(state, u, h)
        if r_final > best_r:
            best_r, best_w = r_final, float(weight)
    return SubspaceSweepReport(
        subspace=(i, j), baseline_r=baseline, best_r=best_r, best_weight=best_w, grid=grid
    )


def thermalization_gradient_check(
    spec: MachineSpec, t_b: float, t_c: float
) -> tuple[float, float]:
    """Central finite differences of the degenerate-pair bias p_101 - p_010.

    Returns (d/dT_B, d/dT_C) of the population difference that the cooling
    swap exploits.  The first is negative (B as cold as possible is best) and
    the second positive (C as hot as possible is best).
    """
    spec.require_resonance()

    def bias(tb: float, tc: float) -> float:
        pops = thermal_populations(spec.gaps, (spec.t_room, tb, tc))
        return float(pops[5] - pops[2])

    step_b = 1e-5 * t_b
    step_c = 1e-5 * t_c
    slope_b = (bias(t_b + step_b, t_c) - bias(t_b - step_b, t_c)) / (2.0 * step_b)
    slope_c = (bias(t_b, t_c + step_c) - bias(t_b, t_c - step_c)) / (2.0 * step_c)
    return slope_b, slope_c
