"""Self-verification suite: every closed form against its independent route.

Each check returns a :class:`CheckResult` with the worst residual it saw; the
runner aggregates them into a report the CLI serializes.  A named mutation
hook can corrupt one formula on purpose, proving the checks can actually
fail.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import ladder, majorization, oracle, protocols
from .thermal import (
    INFINITE,
    DomainError,
    MachineSpec,
    boltzmann_population,
    hamiltonian_diagonal,
    thermal_populations,
)

MUTATIONS = ("r_inc", "vertex", "pareto")


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    residual: float
    tolerance: float
    detail: str = ""


@dataclass(frozen=True)
class VerificationReport:
    seed: int
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "passed": self.passed,
            "checks": [asdict(c) for c in self.checks],
        }


def _draw_machine(rng: np.random.Generator, allow_infinite: bool = True) -> MachineSpec:
    e_c = float(rng.uniform(0.05, 5.0))
    t_room = float(rng.uniform(0.2, 5.0))
    if allow_infinite and rng.random() < 0.15:
        t_hot = INFINITE
    else:
        t_hot = float(rng.uniform(t_room, 20.0))
    return MachineSpec.two_qubit(e_c, t_room, t_hot)


def check_formula_dense_equivalence(
    seed: int, machines: int, mutate: str | None = None
) -> CheckResult:
    """Closed-form populations vs dense step-by-step simulation.

    The closed forms run machine by machine; the dense route runs each
    protocol once, on the stack of all machines.  The repeated protocols run
    to the largest n drawn, and each machine is compared on its first n + 1
    points.  A failure names the worst instance; a NaN from either route
    fails with an infinite residual.
    """
    tol = 1e-12  # absolute population error
    rng = np.random.default_rng(seed)
    specs, ns, mus = [], [], []
    for _ in range(machines):
        specs.append(_draw_machine(rng))
        ns.append(int(rng.integers(1, 6)))
        mus.append(float(rng.uniform(0.0, 1.0)))
    n_max = max(ns, default=0)

    def trajectory_gaps(closed_form, dense: np.ndarray) -> list[float]:
        gaps = []
        for spec, n, row in zip(specs, ns, dense):
            closed = [p.r for p in closed_form(spec, n).trajectory]
            gaps.append(float(np.abs(np.subtract(closed, row[: n + 1])).max()))
        return gaps

    r_inc = np.array([protocols.two_qubit_incoherent_single(spec).r_final for spec in specs])
    if mutate == "r_inc":
        r_inc += 1e-6
    r_coh = np.array(
        [protocols.coherent_single_population(spec, mu) for spec, mu in zip(specs, mus)]
    )
    gaps = {
        "incoherent single cycle": np.abs(r_inc - oracle.simulate_incoherent_single(specs)[0]),
        "coherent single cycle": np.abs(r_coh - oracle.simulate_coherent_single(specs, mus)[0]),
        "repeated incoherent": trajectory_gaps(
            protocols.repeated_incoherent, oracle.simulate_repeated_incoherent(specs, n_max)[0]
        ),
        "repeated coherent": trajectory_gaps(
            protocols.repeated_coherent, oracle.simulate_repeated_coherent(specs, n_max)[0]
        ),
        "algorithmic cooling": trajectory_gaps(
            lambda spec, n: protocols.algorithmic_cooling(spec, n, nu=1.0),
            oracle.simulate_algorithmic(specs, n_max, nu=1.0)[0],
        ),
    }
    # One row per machine, in the order the machines were drawn.
    table = np.array(list(gaps.values()), dtype=float).T
    finite = np.isfinite(table)
    worst = float(table.max(initial=0.0)) if finite.all() else math.inf
    detail = f"{machines} machines, single-cycle and repeated protocols"
    if not worst <= tol:
        index = np.argmax(table if worst < math.inf else ~finite)
        machine, column = divmod(int(index), len(gaps))
        protocol, spec = list(gaps)[column], specs[machine]
        detail += (
            f"; worst: {protocol} on machine {machine}, e_c={spec.e_c!r}, "
            f"t_room={spec.t_room!r}, t_hot={spec.t_hot!r}, n={ns[machine]}"
        )
        if protocol == "coherent single cycle":
            detail += f", mu={mus[machine]!r}"
    return CheckResult(
        name="formula_dense_equivalence",
        passed=worst <= tol,
        residual=worst,
        tolerance=tol,
        detail=detail,
    )


def coherent_single_cycle_curve(spec: MachineSpec) -> list[tuple[float, float]]:
    """(delta_f, r) of the optimal single-cycle frontier at mu = 0, 1/2 and 1.

    The frontier is linear in mu between these points, its ends and its one
    possible kink, so their linear interpolation is the whole frontier.
    """
    curve = protocols.coherent_single_curve(spec, (0.0, 0.5, 1.0))
    return [(out.work_cost, out.r_final) for out in curve]


def check_pareto_sweep(seed: int, samples: int, *, mutate: str | None = None) -> CheckResult:
    """Haar sweep plus achievability probes against the analytic frontier.

    The Haar draws search for anything beating the claimed minimum-cost
    curve; the deterministic probes run the claimed-optimal unitaries through
    the dense route and require them to land exactly on the curve, which
    catches a curve corrupted in either direction (too cheap cannot be
    achieved, too expensive is dominated).  Both gate on a slack of 1e-9.  A
    failure names the worst dominating sample or, when a probe is worse, the
    worst probe; a NaN probe cost fails with an infinite residual.
    """
    slack = 1e-9
    spec = MachineSpec.two_qubit(0.4, 1.0)
    curve = coherent_single_cycle_curve(spec)
    if mutate == "pareto":
        curve = [(f * 1.5 + 1e-6, r) for f, r in curve]
    report = oracle.haar_pareto_sweep(spec, samples, curve, seed=seed, slack=slack)
    mus = (0.0, 0.2, 0.5, 0.8, 1.0)
    r_probe, f_probe = oracle.simulate_coherent_single([spec] * len(mus), mus)
    probe_dominates, needed = oracle.dominates_curve(r_probe, f_probe, curve, slack)
    probe_gaps = np.nan_to_num(np.abs(f_probe - needed), nan=math.inf)
    probe_residual = float(probe_gaps.max())
    haar_residual = max((p.excess for p in report.dominating), default=0.0)
    passed = report.passed and not probe_dominates.any() and probe_residual <= slack
    detail = f"{samples} Haar unitaries plus optimal-unitary probes, seed {report.seed}"
    if not passed:
        sample = max(report.dominating, key=lambda p: p.excess, default=None)
        if sample is not None and sample.excess >= probe_residual:
            detail += (
                f"; worst: Haar sample {sample.index}, r={sample.r!r}, "
                f"delta_f={sample.delta_f!r}, excess={sample.excess!r}"
            )
        else:
            probe = int(np.argmax(probe_gaps))
            detail += (
                f"; worst: probe mu={mus[probe]!r}, r={float(r_probe[probe])!r}, "
                f"delta_f={float(f_probe[probe])!r}, curve delta_f={float(needed[probe])!r}"
            )
    return CheckResult(
        name="pareto_sweep",
        passed=passed,
        residual=max(haar_residual, probe_residual),
        tolerance=slack,
        detail=detail,
    )


def check_vertex_oracle(seed: int, instances: int, mutate: str | None = None) -> CheckResult:
    """Solver objective and closed-form cost vs the exhaustive vertex oracle.

    Both are compared on every instance; the worse residual is gated.  A
    failure names the worst instance and which route missed; a NaN from
    either route fails with an infinite residual.
    """
    tol = 1e-10  # absolute work error
    rng = np.random.default_rng(seed)
    worst, worst_at = 0.0, ""
    for index in range(instances):
        spec = _draw_machine(rng, allow_infinite=False)
        t = spec.t_room
        if index % 2 == 0:
            spec = MachineSpec.one_qubit(spec.e_b, t, e=spec.e)
            rho = thermal_populations(spec.gaps, (t, t))
            h = hamiltonian_diagonal(spec.gaps)
            r = rho[:2].sum()
            r_hi = rho[[0, 2]].sum()
            r_target = float(rng.uniform(r, r_hi))
            analytic = majorization.solve_one_qubit(rho, h, r_target).objective
            closed = protocols.one_qubit_coherent(spec, r_target).work_cost
            reference = majorization.vertex_oracle_min(rho, h, 2, r_target)
        else:
            rho = thermal_populations(spec.gaps, (t, t, t))
            h = hamiltonian_diagonal(spec.gaps)
            r = rho[:4].sum()
            r_b = rho[[0, 1, 4, 5]].sum()
            r_target = float(rng.uniform(r, r_b))
            analytic = majorization.solve_two_qubit(rho, h, r_target).objective
            closed = protocols.two_qubit_coherent_single(spec, r_target).work_cost
            reference = majorization.vertex_oracle_min(rho, h, 4, r_target)
        if mutate == "vertex":
            analytic += 1e-6
        closed += float(rho @ h)
        for route, value in (("solver", analytic), ("closed form", closed)):
            gap = abs(value - reference)
            gap = math.inf if math.isnan(gap) else gap
            if gap > worst:
                worst = gap
                worst_at = (
                    f"; worst: instance {index}, dimension {rho.size}, "
                    f"r_target={r_target!r}, {route} missed, e={spec.e!r}, "
                    f"e_b={spec.e_b!r}, t_room={t!r}"
                )
    detail = f"{instances} random instances, dimensions 4 and 8"
    return CheckResult(
        name="vertex_oracle",
        passed=worst <= tol,
        residual=worst,
        tolerance=tol,
        detail=detail if worst <= tol else detail + worst_at,
    )


def check_thermalization_gradients(seed: int) -> CheckResult:
    """Finite-difference bias slopes: signs and agreement with the closed form.

    A failure names the machine and the slope at fault: a slope of the wrong
    sign at once, else the worst relative error; a NaN slope fails with an
    infinite residual.
    """
    tol = 1e-6  # relative slope error
    cases = 25
    rng = np.random.default_rng(seed)
    worst, worst_at = 0.0, ""
    for index in range(cases):
        spec = _draw_machine(rng, allow_infinite=False)
        t_hot = spec.t_hot
        t_b = float(rng.uniform(spec.t_room, t_hot))
        t_c = float(rng.uniform(spec.t_room, t_hot))
        slope_b, slope_c = oracle.thermalization_gradient_check(spec, t_b, t_c)
        machine = (
            f"e_c={spec.e_c!r}, t_room={spec.t_room!r}, t_hot={t_hot!r}, t_b={t_b!r}, t_c={t_c!r}"
        )
        if slope_b >= 0.0 or slope_c <= 0.0:
            wrong, label = (slope_b, "B") if slope_b >= 0.0 else (slope_c, "C")
            return CheckResult(
                name="thermalization_gradients",
                passed=False,
                residual=wrong,
                tolerance=tol,
                detail=f"wrong sign of d/dT_{label} = {wrong!r} at {machine}",
            )
        r = boltzmann_population(spec.e, spec.t_room)
        r_b = boltzmann_population(spec.e_b, t_b)
        r_c = boltzmann_population(spec.e_c, t_c)
        ref_b = -spec.e_b * r_b * (1 - r_b) / t_b**2 * (r * r_c + (1 - r) * (1 - r_c))
        ref_c = spec.e_c * r_c * (1 - r_c) / t_c**2 * (r * (1 - r_b) + (1 - r) * r_b)
        for label, slope, ref in (("B", slope_b, ref_b), ("C", slope_c, ref_c)):
            error = abs(slope - ref) / abs(ref)
            error = math.inf if math.isnan(error) else error
            if error > worst:
                worst = error
                worst_at = (
                    f"; worst: machine {index}, d/dT_{label} = {slope!r} against "
                    f"{ref!r}, {machine}"
                )
    detail = f"{cases} machines, central differences vs closed-form slopes"
    return CheckResult(
        name="thermalization_gradients",
        passed=worst <= tol,
        residual=worst,
        tolerance=tol,
        detail=detail if worst <= tol else detail + worst_at,
    )


def _ladder_named(spec: ladder.LadderSpec) -> str:
    return (
        f"N={spec.n_steps}, T_C={spec.t_cold!r}, T_R={spec.t_room!r}, "
        f"T_H={spec.t_hot!r}, offset={spec.e_ground_offset!r}"
    )


def check_ladder_gap_rate() -> CheckResult:
    """O(1/N) halving of the second-law gap plus the embedded-preheat bound.

    A failure says which gate failed, the ratio window or the preheat
    offset, and names the ladder it failed on.
    """
    worst_ratio_error = 0.0
    specs = [ladder.LadderSpec(n, 0.5, 1.0) for n in (16, 32, 64, 128)]
    gaps = [ladder.coherent_ladder(spec).gap for spec in specs]
    for spec, gap_n, gap_2n in zip(specs, gaps, gaps[1:]):
        ratio = gap_2n / gap_n
        if not 0.4 <= ratio <= 0.6:
            return CheckResult(
                name="ladder_gap_rate",
                passed=False,
                residual=ratio,
                tolerance=0.6,
                detail=f"ratio window failed: gap(2N)/gap(N) = {ratio!r} outside "
                f"[0.4, 0.6] at {_ladder_named(spec)}",
            )
        worst_ratio_error = max(worst_ratio_error, abs(ratio - 0.5))
    t_hot = 10.0
    n = 8
    spec = ladder.LadderSpec(
        n, 0.5, 1.0, t_hot=t_hot, e_ground_offset=50.0 * t_hot * (n + 1)
    )
    coh = ladder.coherent_ladder(spec)
    offset = abs(ladder.incoherent_twin(spec, coh).w_total - coh.w_total)
    passed = offset < 1e-9
    detail = f"gap ratios at N in {{16, 32, 64}}; embedded preheat offset {offset:.3e}"
    if not passed:
        detail += f"; preheat offset failed: not below 1e-9 at {_ladder_named(spec)}"
    return CheckResult(
        name="ladder_gap_rate",
        passed=passed,
        residual=max(worst_ratio_error, offset),
        tolerance=0.1,
        detail=detail,
    )


def run_verification(
    seed: int, samples: int, machines: int, instances: int, mutate: str | None = None
) -> VerificationReport:
    """Run the full oracle suite; ``samples = 0`` skips the Pareto sweep."""
    if samples < 0:
        raise DomainError(f"Haar sample count must be >= 0, got {samples}")
    if machines < 0 or instances < 0:
        raise DomainError(
            f"machine and instance counts must be >= 0, got {machines} and {instances}"
        )
    if mutate is not None and mutate not in MUTATIONS:
        raise ValueError(f"unknown mutation {mutate!r}; choose from {MUTATIONS}")
    checks = [
        check_formula_dense_equivalence(seed, machines=machines, mutate=mutate),
        check_vertex_oracle(seed + 1, instances=instances, mutate=mutate),
        check_thermalization_gradients(seed + 2),
        check_ladder_gap_rate(),
    ]
    if samples > 0:
        checks.insert(1, check_pareto_sweep(seed, samples, mutate=mutate))
    return VerificationReport(seed=seed, checks=tuple(checks))
