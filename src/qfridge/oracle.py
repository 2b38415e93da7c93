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


def _dagger(mat: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix of a stack."""
    return np.swapaxes(mat.conj(), -1, -2)


def _unitarity_error(mat: np.ndarray) -> np.ndarray:
    """max |U U^dagger - 1| of a matrix, or of each matrix of a stack."""
    return np.abs(mat @ _dagger(mat) - np.eye(mat.shape[-1])).max(axis=(-2, -1))


def _require(ok: np.ndarray, message: str) -> None:
    """Raise ``DomainError(message)`` unless ``ok`` holds for every matrix.

    ``ok`` holds one verdict, or one per matrix of a stack, from comparisons
    written as ``x <= tol`` so that a NaN fails them.  For a stack the error
    names the index of the first failing matrix.
    """
    ok = np.asarray(ok)
    if not ok.all():
        if ok.ndim:
            message = f"{message} (stack index {int(np.argmin(ok))})"
        raise DomainError(message)


def _require_square(mat: np.ndarray, what: str) -> None:
    if mat.ndim not in (2, 3) or mat.shape[-1] != mat.shape[-2]:
        raise DomainError(f"{what} must be square, or a stack of square matrices")


@dataclass(frozen=True)
class DenseState:
    """Hermitian PSD trace-one matrix over the product basis |a b c>.

    ``matrix`` is one (d, d) matrix or a (k, d, d) stack with one matrix per
    machine; every matrix of a stack passes every check.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        mat = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", mat)
        _require_square(mat, "state matrix")
        if mat.shape[-1] not in (2, 4, 8):
            raise DomainError("oracle states are capped at dimension 8")
        # Before LAPACK sees it: eigvalsh need not report a NaN entry as NaN.
        _require(np.isfinite(mat).all(axis=(-2, -1)), "state matrix must be finite")
        trace = np.trace(mat, axis1=-2, axis2=-1)
        _require(
            (abs(trace.real - 1.0) <= TRACE_ATOL) & (abs(trace.imag) <= TRACE_ATOL),
            "state matrix must have unit trace",
        )
        _require(
            -np.linalg.eigvalsh((mat + _dagger(mat)) / 2.0).min(axis=-1) <= 1e-12,
            "state matrix must be positive semidefinite",
        )

    @property
    def dim(self) -> int:
        return self.matrix.shape[-1]

    @property
    def n_qubits(self) -> int:
        return self.dim.bit_length() - 1

    def diagonal(self) -> np.ndarray:
        return np.diagonal(self.matrix, axis1=-2, axis2=-1).real.copy()

    def target_ground_population(self) -> float | np.ndarray:
        """A float for one matrix, an array with one entry per matrix of a stack."""
        pops = self.diagonal()[..., : self.dim // 2].sum(axis=-1)
        return pops if pops.ndim else float(pops)


@dataclass(frozen=True)
class UnitaryOp:
    """A unitary, or a stack of them, with a tag recording whether it must conserve energy."""

    matrix: np.ndarray
    tag: str = "general"

    def __post_init__(self) -> None:
        mat = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", mat)
        if self.tag not in ("energy_conserving", "general"):
            raise DomainError(f"unknown unitary tag {self.tag!r}")
        _require_square(mat, "unitary")
        _require(_unitarity_error(mat) <= UNITARITY_ATOL, "matrix is not unitary within 1e-10")

    @property
    def dim(self) -> int:
        return self.matrix.shape[-1]


def swap_unitary(dim: int, i: int, j: int, tag: str = "general") -> UnitaryOp:
    """Permutation unitary exchanging basis levels i and j."""
    mat = np.eye(dim, dtype=complex)
    mat[[i, j]] = mat[[j, i]]
    return UnitaryOp(mat, tag)


def partial_swap_unitary(
    dim: int, i: int, j: int, weight: float | np.ndarray
) -> UnitaryOp:
    """Two-level rotation moving population fraction ``weight`` between i and j.

    An array of weights gives a stack of rotations, one per weight.
    """
    w = np.asarray(weight, dtype=float)
    _require((0.0 <= w) & (w <= 1.0), f"swap weight must lie in [0, 1], got {weight}")
    mat = np.broadcast_to(np.eye(dim, dtype=complex), w.shape + (dim, dim)).copy()
    c, s = np.sqrt(1.0 - w), np.sqrt(w)
    mat[..., i, i] = mat[..., j, j] = c
    mat[..., i, j] = s
    mat[..., j, i] = -s
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
    """Kronecker product of the last two axes, broadcast over a leading stack axis."""
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    rows, cols = a.shape[-2] * b.shape[-2], a.shape[-1] * b.shape[-1]
    return out.reshape(out.shape[:-4] + (rows, cols))


def build_thermal_state(spec: MachineSpec, per_qubit_temps: Sequence[float]) -> DenseState:
    """Diagonal tensor product of single-qubit Gibbs states, target first."""
    if 2 ** spec.n_qubits > 8:
        raise DomainError("oracle states are capped at dimension 8")
    return DenseState(np.diag(thermal_populations(spec.gaps, per_qubit_temps)))


def assert_energy_conserving(u: UnitaryOp, h: Sequence[float]) -> None:
    """Require [U, H] = 0 for diagonal H; either may be a stack."""
    h_arr = np.asarray(h, dtype=float)
    comm = u.matrix * h_arr[..., None, :] - h_arr[..., :, None] * u.matrix
    scale = np.maximum(1.0, np.abs(h_arr).max(axis=-1))
    _require(
        np.abs(comm).max(axis=(-2, -1)) <= ENERGY_ATOL * scale,
        "unitary tagged energy_conserving does not commute with H",
    )


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

    The state, the unitary and the energies ``h`` may each be a stack with a
    leading machine axis, and a single one acts on every machine; with any
    stack the population and the energy change come back as arrays.
    """
    if u.dim != state.dim:
        raise DomainError(f"dimension mismatch: state {state.dim}, unitary {u.dim}")
    h_arr = np.asarray(h, dtype=float)
    if h_arr.shape[-1:] != (state.dim,):
        raise DomainError("energy vector length must match the state dimension")
    try:
        np.broadcast_shapes(state.matrix.shape[:-2], u.matrix.shape[:-2], h_arr.shape[:-1])
    except ValueError:
        raise DomainError("state, unitary and energy stacks differ in length") from None
    _require(_unitarity_error(u.matrix) <= UNITARITY_ATOL, "unitary drifted away from unitarity")
    final = DenseState(u.matrix @ state.matrix @ _dagger(u.matrix))
    # A 1 x d by d x 1 product per machine sums as a vector @ vector dot does.
    change = final.diagonal() - state.diagonal()
    delta_energy = (change[..., None, :] @ h_arr[..., :, None])[..., 0, 0]
    if u.tag == "energy_conserving":
        assert_energy_conserving(u, h_arr)
        _require(abs(delta_energy) <= ENERGY_ATOL, "energy-conserving unitary changed <H>")
    if not delta_energy.ndim:
        delta_energy = float(delta_energy)
    return final.target_ground_population(), delta_energy, final


def _partial_trace(mat: np.ndarray, n_qubits: int, qubit: int) -> np.ndarray:
    lead = mat.shape[:-2]
    tensor = mat.reshape(lead + (2,) * (2 * n_qubits))
    traced = np.trace(tensor, axis1=len(lead) + qubit, axis2=len(lead) + n_qubits + qubit)
    half = 2 ** (n_qubits - 1)
    return traced.reshape(lead + (half, half))


def replace_qubit_marginal(
    state: DenseState, qubit: int, ground_population: float | np.ndarray
) -> DenseState:
    """Trace one qubit out and re-insert it in a fresh diagonal state.

    ``ground_population`` is a float, or an array with one entry per matrix
    of a stack.
    """
    n = state.n_qubits
    if not 0 <= qubit < n:
        raise DomainError(f"qubit index {qubit} out of range for {n} qubits")
    rest = _partial_trace(state.matrix, n, qubit)
    pop = np.asarray(ground_population, dtype=float)
    tau = np.zeros(pop.shape + (2, 2), dtype=complex)
    tau[..., 0, 0] = pop
    tau[..., 1, 1] = 1.0 - pop
    full = _kron(rest, tau)
    lead = full.shape[:-2]
    full = full.reshape(lead + (2,) * (2 * n))
    # kron left the fresh qubit in the least significant slot; move it home.
    remaining = [q for q in range(n) if q != qubit]
    src_axis = {q: a for a, q in enumerate(remaining)}
    src_axis[qubit] = n - 1
    perm = [len(lead) + src_axis[q] for q in range(n)]
    full = np.transpose(full, list(range(len(lead))) + perm + [n + p for p in perm])
    return DenseState(full.reshape(lead + (state.dim, state.dim)))


def rethermalize(
    state: DenseState, qubit: int, gap: float | np.ndarray, temp: float | np.ndarray
) -> DenseState:
    """Replace one qubit's marginal with a fresh Gibbs state at ``temp``.

    ``gap`` and ``temp`` are floats, or arrays with one entry per matrix of a
    stack.
    """
    gaps, temps = np.broadcast_arrays(gap, temp)
    pops = [boltzmann_population(float(g), float(t)) for g, t in zip(gaps.flat, temps.flat)]
    return replace_qubit_marginal(state, qubit, np.reshape(pops, gaps.shape))


# ---------------------------------------------------------------------------
# Step-by-step protocol simulators (dense route only).
#
# Each takes one MachineSpec or a sequence of them.  A sequence is simulated
# as one stack of states with a leading machine axis and gives arrays with
# that axis; one spec is a stack of one and gives floats and lists.
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


Machines = MachineSpec | Sequence[MachineSpec]


def _machines(specs: Machines) -> tuple[list[MachineSpec], bool]:
    """The machines of a call as a list, and whether it named just one spec."""
    if isinstance(specs, MachineSpec):
        return [specs], True
    return list(specs), False


def _column(values: Sequence[float]) -> np.ndarray:
    return np.array(values, dtype=float)


def _stack(
    machines: Sequence[MachineSpec], temps: Sequence[Sequence[float]]
) -> tuple[DenseState, np.ndarray]:
    """Gibbs product states of three-qubit machines and their energy diagonals."""
    k = len(machines)
    pops = np.array([thermal_populations(s.gaps, t) for s, t in zip(machines, temps)])
    h = np.array([hamiltonian_diagonal(s.gaps) for s in machines])
    return DenseState(pops.reshape(k, 8)[:, :, None] * np.eye(8)), h.reshape(k, 8)


def _results(one: bool, *per_machine: np.ndarray) -> tuple:
    """Arrays for a stack; for one spec, its floats and lists of floats."""
    if one:
        return tuple(values[0].tolist() for values in per_machine)
    return per_machine


def simulate_incoherent_single(specs: Machines) -> tuple:
    """Heat C, apply the |010><101| swap; returns (r, heat, work)."""
    machines, one = _machines(specs)
    t_hot = _column([s.require_hot_bath() for s in machines])
    t_room = _column([s.t_room for s in machines])
    state, h = _stack(machines, [(s.t_room, s.t_room, s.t_hot) for s in machines])
    heat = _column(
        [
            s.e_c
            * (boltzmann_population(s.e_c, s.t_room) - boltzmann_population(s.e_c, s.t_hot))
            for s in machines
        ]
    )
    u = swap_unitary(8, 2, 5, tag="energy_conserving")
    r_final, _, _ = apply_and_measure(state, u, h)
    work = heat * (1.0 - t_room / t_hot)
    return _results(one, r_final, heat, work)


def simulate_coherent_single(specs: Machines, mu: float | Sequence[float]) -> tuple:
    """Apply the mu-parametrized work-optimal single-cycle unitary; (r, work).

    ``mu`` is a float for one spec and holds one value per machine for a
    sequence of specs.
    """
    machines, one = _machines(specs)
    mus = np.asarray(mu, dtype=float)
    _require((0.0 <= mus) & (mus <= 1.0), f"mu must lie in [0, 1], got {mu}")
    mus = np.atleast_1d(mus)
    if mus.shape != (len(machines),):
        raise DomainError(f"need one mu per machine: {len(machines)} machines, mu {mu}")
    state, h = _stack(machines, [(s.t_room,) * 3 for s in machines])
    # e_c <= e swaps A with B alone, the other route through C first; the
    # identity rotations at weight 0 give the first route the same product.
    through_b = np.array([s.e_c <= s.e for s in machines], dtype=bool)
    w_ab = np.where(through_b, mus, np.maximum(2.0 * mus - 1.0, 0.0))
    w_ac = np.where(through_b, 0.0, np.minimum(2.0 * mus, 1.0))
    unit = (
        partial_swap_unitary(8, 2, 4, w_ab).matrix
        @ partial_swap_unitary(8, 3, 5, w_ab).matrix
        @ partial_swap_unitary(8, 1, 4, w_ac).matrix
        @ partial_swap_unitary(8, 3, 6, w_ac).matrix
    )
    r_final, work, _ = apply_and_measure(state, UnitaryOp(unit), h)
    return _results(one, r_final, work)


def _c_ground_population(state: DenseState) -> np.ndarray:
    return state.diagonal()[..., [0, 2, 4, 6]].sum(axis=-1)


def simulate_repeated_incoherent(
    specs: Machines, n: int, r0: float | np.ndarray | None = None
) -> tuple:
    """n reset-and-swap incoherent cycles; returns (r after k, heat after k).

    ``r0`` overrides the target's starting population (default: thermal at
    t_room), which lets ladder stages be chained.
    """
    machines, one = _machines(specs)
    t_hot = _column([s.require_hot_bath() for s in machines])
    e_b, e_c = _column([s.e_b for s in machines]), _column([s.e_c for s in machines])
    t_room = _column([s.t_room for s in machines])
    state, h = _stack(machines, [(s.t_room,) * 3 for s in machines])
    r_ch = _column([boltzmann_population(s.e_c, s.t_hot) for s in machines])
    if r0 is not None:
        state = replace_qubit_marginal(state, 0, r0)
    swap = swap_unitary(8, 2, 5, tag="energy_conserving")

    heat = e_c * (_column([boltzmann_population(s.e_c, s.t_room) for s in machines]) - r_ch)
    rs = [state.target_ground_population()]
    heats = [heat]
    for step in range(n):
        if step > 0:
            state = rethermalize(state, 1, e_b, t_room)
            heat = heat + e_c * (_c_ground_population(state) - r_ch)
        state = rethermalize(state, 2, e_c, t_hot)
        r_new, _, state = apply_and_measure(state, swap, h)
        rs.append(r_new)
        heats.append(heat)
    return _results(one, np.stack(rs, axis=-1), np.stack(heats, axis=-1))


def simulate_repeated_coherent(specs: Machines, n: int) -> tuple:
    """Optimal first cycle, then reset-and-|100><011|-swap cycles; (r_k, work_k)."""
    machines, one = _machines(specs)
    e_b, e_c = _column([s.e_b for s in machines]), _column([s.e_c for s in machines])
    t_room = _column([s.t_room for s in machines])
    state, h = _stack(machines, [(s.t_room,) * 3 for s in machines])
    # The first cycle swaps A with B, or with B and then C when e_c > e.
    swap_ab = qubit_swap_unitary(3, 0, 1).matrix
    swap_abc = swap_ab @ qubit_swap_unitary(3, 0, 2).matrix
    through_b = np.array([s.e_c <= s.e for s in machines], dtype=bool)
    first = UnitaryOp(np.where(through_b[:, None, None], swap_ab, swap_abc))
    swap_00_11 = swap_unitary(8, 3, 4)

    work = np.zeros(len(machines))
    rs = [state.target_ground_population()]
    works = [work]
    for step in range(n):
        if step == 0:
            u = first
        else:
            state = rethermalize(state, 1, e_b, t_room)
            state = rethermalize(state, 2, e_c, t_room)
            u = swap_00_11
        r_new, delta_e, state = apply_and_measure(state, u, h)
        work = work + delta_e
        rs.append(r_new)
        works.append(work)
    return _results(one, np.stack(rs, axis=-1), np.stack(works, axis=-1))


def simulate_algorithmic(
    specs: Machines, n: int, nu: float = 1.0, r0: float | np.ndarray | None = None
) -> tuple:
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
    machines, one = _machines(specs)
    e_b, e_c = _column([s.e_b for s in machines]), _column([s.e_c for s in machines])
    t_room = _column([s.t_room for s in machines])
    state, h = _stack(machines, [(s.t_room,) * 3 for s in machines])
    r_b = _column([boltzmann_population(s.e_b, s.t_room) for s in machines])
    r_c = _column([boltzmann_population(s.e_c, s.t_room) for s in machines])
    r_c_nu = r_c + nu * (r_b - r_c)

    if r0 is not None:
        state = replace_qubit_marginal(state, 0, r0)
    precool_swap = qubit_swap_unitary(3, 1, 2)
    cool_swap = swap_unitary(8, 3, 4)

    work = np.zeros(len(machines))
    rs = [state.target_ground_population()]
    works = [work]
    for _ in range(n):
        state = rethermalize(state, 1, e_b, t_room)
        if nu == 1.0:
            _, delta_e, state = apply_and_measure(state, precool_swap, h)
            work = work + delta_e
            state = rethermalize(state, 1, e_b, t_room)
        else:
            work = work + (e_b - e_c) * (r_c_nu - _c_ground_population(state))
            state = replace_qubit_marginal(state, 2, r_c_nu)
        r_new, delta_e, state = apply_and_measure(state, cool_swap, h)
        work = work + delta_e
        rs.append(r_new)
        works.append(work)
    return _results(one, np.stack(rs, axis=-1), np.stack(works, axis=-1))


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
    weights = np.linspace(0.0, 1.0, grid)
    r_final, _, _ = apply_and_measure(state, partial_swap_unitary(state.dim, i, j, weights), h)
    best = int(np.argmax(r_final))  # the first of equal maxima
    return SubspaceSweepReport(
        subspace=(i, j),
        baseline_r=state.target_ground_population(),
        best_r=float(r_final[best]),
        best_weight=float(weights[best]),
        grid=grid,
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
