"""The list-building ladder loops that ``qfridge.ladder`` replaced, kept verbatim.

``coherent_ladder`` once filled a list of N + 1 stage exponents and a list of
N + 1 populations before its stage loop; the single-pass stage walk must do
the same float operations in the same order, and the tests compare its
stages against these with ``==``.  ``real_qubit_preheat`` is the stage loop
that summed the incoherent ladder's preheat, calling the validated
``boltzmann_population`` twice per stage; the tests hold the O(1) preheat to
no worse than it against the decimal reference as T_H -> T_R.
"""

from __future__ import annotations

import math

from qfridge.ladder import LadderSpec, LadderStage, _incoherent_max_gap
from qfridge.thermal import binary_entropy, boltzmann_population


def _stage_exponents(spec: LadderSpec) -> list[float]:
    """E/T_i for i = 0..N along the inverse-temperature interpolation."""
    e = spec.target_gap
    x_room = e / spec.t_room
    x_cold = e / spec.t_cold
    return [x_room + (i / spec.n_steps) * (x_cold - x_room) for i in range(spec.n_steps + 1)]


def _target_free_energy_increase(spec: LadderSpec, r_start: float, r_end: float) -> float:
    e = spec.target_gap
    return spec.t_room * (binary_entropy(r_start) - binary_entropy(r_end)) - e * (
        r_end - r_start
    )


def coherent_ladder(spec: LadderSpec) -> tuple[float, float, float, tuple[LadderStage, ...]]:
    """(w_total, df_target, gap, stages)."""
    e = spec.target_gap
    ratio = spec.t_room / spec.t_cold
    exponents = _stage_exponents(spec)
    rs = [1.0 / (1.0 + math.exp(-x)) for x in exponents]
    stages = []
    w_total = 0.0
    for i in range(1, spec.n_steps + 1):
        e_i = e * (1.0 + (i / spec.n_steps) * (ratio - 1.0))
        work = (rs[i] - rs[i - 1]) * (e_i - e)
        w_total += work
        stages.append(LadderStage(i, e / exponents[i], rs[i], work))
    df_target = _target_free_energy_increase(spec, rs[0], rs[-1])
    return w_total, df_target, w_total - df_target, tuple(stages)


def real_qubit_preheat(spec: LadderSpec, t_hot: float) -> float:
    spacing = _incoherent_max_gap(spec, t_hot) - spec.target_gap
    total = 0.0
    for i in range(1, spec.n_steps + 1):
        e_ci = (i / spec.n_steps) * spacing
        total += e_ci * (
            boltzmann_population(e_ci, spec.t_room) - boltzmann_population(e_ci, t_hot)
        )
    return total

