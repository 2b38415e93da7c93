"""The per-machine dense simulators that the stacked ``qfridge.oracle`` replaced, kept verbatim.

Each simulator once pushed one 8x8 density matrix at a time through the
building blocks below, which took a single matrix only.  The stacked
simulators must give the same numbers, machine by machine; the tests compare
against these copies.  The building blocks are copied too, so the reference
shares no dense code with the module it checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from qfridge.oracle import ENERGY_ATOL, TRACE_ATOL, UNITARITY_ATOL
from qfridge.thermal import (
    DomainError,
    MachineSpec,
    boltzmann_population,
    hamiltonian_diagonal,
    thermal_populations,
)


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

