import ast
import builtins
import itertools
import math
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import oracle_reference as ref
from qfridge import oracle, protocols
from qfridge.oracle import (
    DEFAULT_SEED,
    DenseState,
    UnitaryOp,
    apply_and_measure,
    build_thermal_state,
    degenerate_subspace_sweep,
    dominates_curve,
    haar_pareto_sweep,
    partial_swap_unitary,
    replace_qubit_marginal,
    rethermalize,
    swap_unitary,
    thermalization_gradient_check,
)
from qfridge.thermal import (
    DomainError,
    INFINITE,
    MachineSpec,
    QubitSpec,
    boltzmann_population,
    hamiltonian_diagonal,
    thermal_populations,
)
from qfridge.verify import coherent_single_cycle_curve


class TestBuildThermalState:
    def test_all_infinite_temperatures_is_maximally_mixed(self):
        spec = MachineSpec.two_qubit(0.4, 1.0)
        state = build_thermal_state(spec, (INFINITE,) * 3)
        assert np.allclose(state.matrix, np.eye(8) / 8.0, atol=1e-15)

    def test_heated_machine_state(self):
        spec = MachineSpec.two_qubit(0.4, 1.0, 2.0)
        state = build_thermal_state(spec, (1.0, 1.0, 2.0))
        r = boltzmann_population(1.0, 1.0)
        r_b = boltzmann_population(1.4, 1.0)
        r_ch = boltzmann_population(0.4, 2.0)
        assert state.diagonal()[2] == pytest.approx(r * (1 - r_b) * r_ch, abs=1e-15)
        assert state.diagonal()[5] == pytest.approx(
            (1 - r) * r_b * (1 - r_ch), abs=1e-15
        )

    def test_matches_population_vector_construction(self):
        spec = MachineSpec.two_qubit(0.7, 1.3)
        state = build_thermal_state(spec, (1.3, 1.3, 1.3))
        pops = thermal_populations(spec.gaps, (1.3, 1.3, 1.3))
        assert np.allclose(state.diagonal(), pops, atol=1e-15)

    def test_rejects_wrong_temperature_count(self):
        spec = MachineSpec.two_qubit(0.4, 1.0)
        with pytest.raises(DomainError):
            build_thermal_state(spec, (1.0, 1.0))


class TestApplyAndMeasure:
    def test_identity_changes_nothing(self):
        spec = MachineSpec.two_qubit(0.4, 1.0)
        state = build_thermal_state(spec, (1.0,) * 3)
        h = hamiltonian_diagonal(spec.gaps)
        u = UnitaryOp(np.eye(8), tag="energy_conserving")
        r, delta, _ = apply_and_measure(state, u, h)
        assert r == pytest.approx(state.target_ground_population(), abs=1e-15)
        assert delta == 0.0

    def test_degenerate_swap_reproduces_incoherent_formula(self):
        spec = MachineSpec.two_qubit(0.4, 1.0, 2.0)
        state = build_thermal_state(spec, (1.0, 1.0, 2.0))
        h = hamiltonian_diagonal(spec.gaps)
        swap = swap_unitary(8, 2, 5, tag="energy_conserving")
        r, delta, _ = apply_and_measure(state, swap, h)
        assert r == pytest.approx(
            protocols.two_qubit_incoherent_single(spec).r_final, abs=1e-14
        )
        assert abs(delta) < 1e-12

    def test_full_machine_swap_reaches_machine_population(self):
        spec = MachineSpec.two_qubit(0.4, 1.0)
        state = build_thermal_state(spec, (1.0,) * 3)
        h = hamiltonian_diagonal(spec.gaps)
        u = UnitaryOp(
            partial_swap_unitary(8, 2, 4, 1.0).matrix
            @ partial_swap_unitary(8, 3, 5, 1.0).matrix
        )
        r, _, _ = apply_and_measure(state, u, h)
        assert r == pytest.approx(boltzmann_population(1.4, 1.0), abs=1e-14)

    def test_returns_the_evolved_state(self):
        spec = MachineSpec.two_qubit(0.4, 1.0)
        state = build_thermal_state(spec, (1.0,) * 3)
        h = hamiltonian_diagonal(spec.gaps)
        u = oracle.qubit_swap_unitary(3, 0, 2)
        r, delta, evolved = apply_and_measure(state, u, h)
        assert isinstance(evolved, DenseState)
        assert np.array_equal(evolved.matrix, u.matrix @ state.matrix @ u.matrix.conj().T)
        assert r == evolved.target_ground_population()
        assert delta == float((evolved.diagonal() - state.diagonal()) @ h)

    def test_energy_conserving_tag_enforced(self):
        spec = MachineSpec.two_qubit(0.4, 1.0)
        state = build_thermal_state(spec, (1.0,) * 3)
        h = hamiltonian_diagonal(spec.gaps)
        bad = swap_unitary(8, 0, 7, tag="energy_conserving")
        with pytest.raises(DomainError):
            apply_and_measure(state, bad, h)

    def test_dimension_mismatch(self):
        spec = MachineSpec.one_qubit(1.4, 1.0)
        state = build_thermal_state(spec, (1.0, 1.0))
        with pytest.raises(DomainError):
            apply_and_measure(state, swap_unitary(8, 0, 1), np.zeros(4))


class TestRethermalize:
    def test_resets_marginal_and_decorrelates(self):
        spec = MachineSpec.two_qubit(0.4, 1.0)
        state = build_thermal_state(spec, (1.0,) * 3)
        swapped = swap_unitary(8, 3, 4).matrix
        state = DenseState(swapped @ state.matrix @ swapped.conj().T)
        fresh = rethermalize(state, 1, spec.e_b, 1.0)
        diag = fresh.diagonal()
        b_ground = diag[[0, 1, 4, 5]].sum()
        assert b_ground == pytest.approx(boltzmann_population(1.4, 1.0), abs=1e-14)
        assert fresh.matrix.trace().real == pytest.approx(1.0, abs=1e-14)

    def test_replace_marginal_population(self):
        spec = MachineSpec.two_qubit(0.4, 1.0)
        state = build_thermal_state(spec, (1.0,) * 3)
        out = replace_qubit_marginal(state, 2, 0.9)
        assert out.diagonal()[[0, 2, 4, 6]].sum() == pytest.approx(0.9, abs=1e-14)


def _reference_unitaries(seed, dim, count):
    # From scratch: the k-th child of the seed's SeedSequence draws chunk k
    # whole, each entry's real part before its imaginary part, then QR and
    # the phases of R's diagonal moved into Q.
    chunk = oracle._QR_CHUNK
    children = np.random.SeedSequence(seed).spawn(-(-count // chunk))
    units = []
    for k, child in enumerate(children):
        pairs = np.random.default_rng(child).standard_normal(
            (min(chunk, count - k * chunk), dim, dim, 2)
        )
        z = np.empty(pairs.shape[:-1], dtype=complex)
        z.real, z.imag = pairs[..., 0], pairs[..., 1]
        q, r = np.linalg.qr(z / math.sqrt(2.0))
        d = np.diagonal(r, axis1=1, axis2=2)
        units.append(q * (d / np.abs(d))[:, None, :])
    return np.concatenate(units)


def _reference_sweep(spec, samples, curve, seed, slack=1e-9):
    # The sweep's dominance test on the reference unitaries, as (index, r,
    # delta_f, excess) tuples; the curve must be ordered by increasing r.
    curve_f = np.array([f for f, _ in curve])
    curve_r = np.array([r for _, r in curve])
    pops = build_thermal_state(spec, (spec.t_room,) * spec.n_qubits).diagonal()
    h = hamiltonian_diagonal(spec.gaps)
    dim = pops.size
    units = _reference_unitaries(seed, dim, samples)
    points = []
    for start in range(0, samples, oracle._QR_CHUNK):
        final_pops = np.abs(units[start : start + oracle._QR_CHUNK]) ** 2 @ pops
        r_s = final_pops[:, : dim // 2].sum(axis=1)
        f_s = final_pops @ h - float(pops @ h)
        needed = np.interp(r_s, curve_r, curve_f)
        bad = (r_s > curve_r[-1] + slack) | (
            (r_s > curve_r[0] + slack) & (f_s < needed - slack)
        )
        for i in np.nonzero(bad)[0]:
            excess = max(float(needed[i] - f_s[i]), float(r_s[i] - curve_r[-1]))
            points.append((start + int(i), float(r_s[i]), float(f_s[i]), excess))
    return points


def _wrong_frontier_sweep():
    # A deliberately wrong frontier (r lowered by 0.25, cost x3 + 0.5) that
    # samples beat thousands of times, in every chunk.
    spec = MachineSpec.two_qubit(0.4, 1.0)
    curve = [(3.0 * f + 0.5, r - 0.25) for f, r in coherent_single_cycle_curve(spec)]
    return spec, 11_000, curve


def _haar_unitaries(seed, dim, count):
    # The first ``count`` unitaries of a sweep, chunk by chunk as it draws them.
    return np.concatenate(
        [
            oracle._haar_from_gaussians(
                oracle._chunk_gaussians(seed, start, min(oracle._QR_CHUNK, count - start), dim)
            )
            for start in range(0, count, oracle._QR_CHUNK)
        ]
    )


def _points(report):
    return [(p.index, p.r, p.delta_f, p.excess) for p in report.dominating]


def _traced_peak(sweep):
    tracemalloc.start()
    try:
        sweep()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestHaarSweep:
    def test_unitaries_are_unitary(self):
        for u in _haar_unitaries(7, 8, 16):
            assert np.abs(u @ u.conj().T - np.eye(8)).max() < 1e-12

    def test_chunks_cover_the_samples(self, monkeypatch):
        chunks = []

        def record(seed, start, count, *args):
            chunks.append((seed, start, count))
            return []

        monkeypatch.setattr(oracle, "_score_haar_chunk", record)
        spec = MachineSpec.two_qubit(0.4, 1.0)
        curve = coherent_single_cycle_curve(spec)
        size = oracle._QR_CHUNK
        haar_pareto_sweep(spec, 2 * size + 3, curve, seed=7)
        assert chunks == [(7, 0, size), (7, size, size), (7, 2 * size, 3)]
        chunks.clear()
        haar_pareto_sweep(spec, 0, curve, seed=7)
        assert chunks == []

    @pytest.mark.parametrize(
        "dim, count",
        [(8, 1), (8, 300), (4, 50), (2, 9), (8, 1100), (2, 128), (4, 256)],
    )
    def test_same_stream_as_the_from_scratch_reference(self, dim, count):
        for seed in (0, 7, DEFAULT_SEED):
            assert np.array_equal(
                _haar_unitaries(seed, dim, count), _reference_unitaries(seed, dim, count)
            )

    def test_each_chunk_redraws_its_own_stream(self):
        # The same seed and chunk draw the same matrices on every call, and no
        # two chunks of a seed, nor one chunk of two seeds, share a draw.
        size = oracle._QR_CHUNK
        draws = {}
        for seed in (0, 7, DEFAULT_SEED):
            for start in (0, size, 2 * size, 7 * size):
                z = oracle._chunk_gaussians(seed, start, 3, 2)
                assert np.array_equal(z, oracle._chunk_gaussians(seed, start, 3, 2))
                draws[seed, start] = z
        for (key_a, a), (key_b, b) in itertools.combinations(draws.items(), 2):
            assert not np.any(a == b), (key_a, key_b)

    def test_sweep_matches_the_reference(self):
        spec, samples, curve = _wrong_frontier_sweep()
        got = _points(haar_pareto_sweep(spec, samples, curve, seed=DEFAULT_SEED))
        assert got == _reference_sweep(spec, samples, curve, DEFAULT_SEED)
        assert len(got) > 1000
        assert got[-1][0] >= samples - oracle._QR_CHUNK

    def test_a_shorter_sweep_is_a_prefix_of_a_longer_one(self):
        # Each sample's unitary depends on the seed and its index alone, so a
        # sweep that stops inside a chunk finds what the longer one found
        # before that index.
        spec, samples, curve = _wrong_frontier_sweep()
        longer = _points(haar_pareto_sweep(spec, samples, curve, seed=DEFAULT_SEED))
        for short in (1, oracle._QR_CHUNK, 3 * oracle._QR_CHUNK + 37):
            shorter = _points(haar_pareto_sweep(spec, short, curve, seed=DEFAULT_SEED))
            assert shorter == [p for p in longer if p[0] < short]
        assert len(shorter) > 50 and shorter[-1][0] >= 3 * oracle._QR_CHUNK

    def test_thread_count_cannot_change_the_report(self, monkeypatch):
        # Up to four workers whatever the CPU count, and thread switches far
        # more often than by default, so chunks finish out of order.
        spec, samples, curve = _wrong_frontier_sweep()
        expected = _reference_sweep(spec, samples, curve, DEFAULT_SEED)
        monkeypatch.setattr(oracle, "_usable_cpus", lambda: 8)
        interval = sys.getswitchinterval()
        reports = []
        try:
            sys.setswitchinterval(1e-5)
            for cap in (1, 2, 4):
                monkeypatch.setattr(oracle, "_MAX_SWEEP_WORKERS", cap)
                reports.append(haar_pareto_sweep(spec, samples, curve, seed=DEFAULT_SEED))
        finally:
            sys.setswitchinterval(interval)
        assert reports[0] == reports[1] == reports[2]
        assert _points(reports[0]) == expected

    def test_sweep_holds_workers_plus_one_chunks(self, monkeypatch):
        # Complex 8x8 unitaries are 1 KiB each.  A 20 001-sample sweep stays
        # under 5 120 000 bytes, half of 10 000 of them: it holds a chunk per
        # worker and one queued chunk's arguments.  The small sweep first
        # loads what the first call imports and caches.
        spec = MachineSpec.two_qubit(0.4, 1.0)
        curve = coherent_single_cycle_curve(spec)
        haar_pareto_sweep(spec, 10, curve)
        peak = _traced_peak(lambda: haar_pareto_sweep(spec, 20_001, curve))
        assert peak <= 5_120_000
        # Each chunk is scored as it is drawn, so a 4x longer sweep adds no
        # population table, not even an eighth (80 000 bytes) of a
        # (10 000, 8) one.  With one worker the chunk waiting for it holds
        # only its start and size, so thread timing cannot change the peak.
        monkeypatch.setattr(oracle, "_MAX_SWEEP_WORKERS", 1)
        peak_1 = _traced_peak(lambda: haar_pareto_sweep(spec, 20_001, curve))
        peak_4x = _traced_peak(lambda: haar_pareto_sweep(spec, 80_001, curve))
        assert peak_4x - peak_1 <= 80_000

    def test_zero_samples_gives_empty_report(self):
        spec = MachineSpec.two_qubit(0.4, 1.0)
        curve = coherent_single_cycle_curve(spec)
        report = haar_pareto_sweep(spec, 0, curve)
        assert report.passed and report.samples == 0

    @pytest.mark.parametrize(
        "samples, curve, match",
        [(-1, None, ">= 0"), (10, [(0.0, 0.5)], "two")],
        ids=["negative-samples", "one-point-curve"],
    )
    def test_bad_sweep_inputs_rejected(self, samples, curve, match):
        spec = MachineSpec.two_qubit(0.4, 1.0)
        if curve is None:
            curve = coherent_single_cycle_curve(spec)
        with pytest.raises(DomainError, match=match):
            haar_pareto_sweep(spec, samples, curve)

    def test_seed_reproducibility(self):
        spec = MachineSpec.two_qubit(0.4, 1.0)
        curve = coherent_single_cycle_curve(spec)
        a = haar_pareto_sweep(spec, 500, curve, seed=99)
        b = haar_pareto_sweep(spec, 500, curve, seed=99)
        assert a == b
        assert a.seed == 99

    def test_small_sweep_finds_no_dominating_point(self):
        spec = MachineSpec.two_qubit(0.4, 1.0)
        curve = coherent_single_cycle_curve(spec)
        report = haar_pareto_sweep(spec, 2000, curve, seed=DEFAULT_SEED)
        assert report.passed

    def test_identity_never_dominates(self):
        spec = MachineSpec.two_qubit(0.4, 1.0)
        curve = coherent_single_cycle_curve(spec)
        state = build_thermal_state(spec, (1.0,) * 3)
        h = hamiltonian_diagonal(spec.gaps)
        r_id, f_id, _ = apply_and_measure(state, UnitaryOp(np.eye(8)), h)
        dominates, _ = dominates_curve(r_id, f_id, curve)
        assert not dominates

    def test_optimal_unitaries_sit_on_the_frontier(self):
        spec = MachineSpec.two_qubit(0.4, 1.0)
        curve = coherent_single_cycle_curve(spec)
        from qfridge.oracle import simulate_coherent_single

        r_probe, f_probe = simulate_coherent_single([spec] * 4, [0.1, 0.5, 0.9, 1.0])
        dominates, _ = dominates_curve(r_probe, f_probe, curve)
        assert not dominates.any()

    def test_sweep_on_the_kinked_frontier(self):
        # e_c > e: the frontier has a slope kink at mu = 1/2; the curve's
        # points include it, so interpolation is exact and nothing dominates
        spec = MachineSpec.two_qubit(1.7, 1.0)
        curve = coherent_single_cycle_curve(spec)
        report = haar_pareto_sweep(spec, 5000, curve, seed=DEFAULT_SEED)
        assert report.passed
        from qfridge.oracle import simulate_coherent_single

        r_probe, f_probe = simulate_coherent_single([spec] * 4, [0.25, 0.5, 0.75, 1.0])
        dominates, _ = dominates_curve(r_probe, f_probe, curve)
        assert not dominates.any()

    def test_pessimistic_curve_is_dominated_by_optimal_unitary(self):
        # falsifiability: overstate the frontier cost and the claimed-optimal
        # unitary beats it
        spec = MachineSpec.two_qubit(0.4, 1.0)
        curve = [(f * 1.5 + 1e-6, r) for (f, r) in coherent_single_cycle_curve(spec)]
        from qfridge.oracle import simulate_coherent_single

        r_probe, f_probe = simulate_coherent_single([spec], [0.5])
        dominates, _ = dominates_curve(r_probe, f_probe, curve)
        assert dominates.all()


class TestDegenerateSubspaceSweep:
    def test_equal_target_and_c_gap_cannot_improve(self):
        # E_A = E_C degeneracy: pair |001>, |100>
        spec = MachineSpec(QubitSpec(1.0), (QubitSpec(1.4), QubitSpec(1.0)), 1.0, 3.0)
        report = degenerate_subspace_sweep(spec, (1, 4), grid=41)
        assert report.improvement <= 1e-12

    def test_resonance_subspace_improvement_matches_formula(self):
        spec = MachineSpec.two_qubit(0.4, 1.0, 3.0)
        report = degenerate_subspace_sweep(spec, (2, 5), grid=41)
        out = protocols.two_qubit_incoherent_single(spec)
        r = boltzmann_population(1.0, 1.0)
        assert report.best_r == pytest.approx(out.r_final, abs=1e-13)
        assert report.improvement == pytest.approx(out.r_final - r, abs=1e-13)
        assert report.best_weight == 1.0

    def test_non_degenerate_pair_rejected(self):
        spec = MachineSpec.two_qubit(0.4, 1.0, 3.0)
        with pytest.raises(DomainError):
            degenerate_subspace_sweep(spec, (0, 1), grid=11)

    def test_grid_below_two_points_rejected(self):
        spec = MachineSpec.two_qubit(0.4, 1.0, 3.0)
        with pytest.raises(DomainError, match="grid"):
            degenerate_subspace_sweep(spec, (2, 5), grid=1)

    def test_stacked_sweep_equals_the_per_weight_loop(self):
        # Every degeneracy relation, each with its gaps drawn, with and without
        # a hot bath; flat sweeps (no pair cools) test that ties keep the first
        # weight, as the loop's strict > did.
        rng = np.random.default_rng(DEFAULT_SEED)
        relations = [
            lambda a, b: (0.0, a, b),
            lambda a, b: (a, 0.0, b),
            lambda a, b: (a, b, 0.0),
            lambda a, b: (a, a, b),
            lambda a, b: (a, b, a),
            lambda a, b: (a, b, b),
            lambda a, b: (a + b, a, b),
            lambda a, b: (a, a + b, b),
            lambda a, b: (a, b, a + b),
        ]
        cases = 0
        for gaps_of in relations:
            for t_hot in (None, 4.0, INFINITE):
                a, b = (float(x) for x in rng.uniform(0.2, 3.0, size=2))
                gaps = gaps_of(a, b)
                spec = MachineSpec(QubitSpec(gaps[0]), tuple(map(QubitSpec, gaps[1:])), 1.1, t_hot)
                h = hamiltonian_diagonal(gaps)
                pairs = [
                    (i, j)
                    for i in range(8)
                    for j in range(i + 1, 8)
                    if abs(h[i] - h[j]) <= 1e-9 * max(1.0, float(np.abs(h).max()))
                ]
                for pair in pairs:
                    for grid in (2, 21):
                        got = degenerate_subspace_sweep(spec, pair, grid)
                        assert got == ref.degenerate_subspace_sweep(spec, pair, grid)
                        cases += 1
        assert cases >= 100


class TestThermalizationGradients:
    def test_slope_signs_at_room_temperature(self):
        spec = MachineSpec.two_qubit(0.4, 1.0, 3.0)
        slope_b, slope_c = thermalization_gradient_check(spec, 1.0, 1.0)
        assert slope_b < 0.0 < slope_c

    def test_matches_analytic_derivatives(self):
        spec = MachineSpec.two_qubit(0.7, 1.0, 4.0)
        t_b, t_c = 1.5, 2.5
        slope_b, slope_c = thermalization_gradient_check(spec, t_b, t_c)
        r = boltzmann_population(spec.e, spec.t_room)
        r_b = boltzmann_population(spec.e_b, t_b)
        r_c = boltzmann_population(spec.e_c, t_c)
        ref_b = -spec.e_b * r_b * (1 - r_b) / t_b**2 * (r * r_c + (1 - r) * (1 - r_c))
        ref_c = spec.e_c * r_c * (1 - r_c) / t_c**2 * (r * (1 - r_b) + (1 - r) * r_b)
        assert slope_b == pytest.approx(ref_b, rel=1e-6)
        assert slope_c == pytest.approx(ref_c, rel=1e-6)

    def test_vanishing_gap_decouples_c(self):
        spec = MachineSpec(QubitSpec(1.0), (QubitSpec(1.0), QubitSpec(0.0)), 1.0, 3.0)
        _, slope_c = thermalization_gradient_check(spec, 1.0, 1.0)
        assert abs(slope_c) < 1e-10


def _random_states(rng, n_qubits, count=None):
    # Full-rank complex states: every entry of the matrix is nonzero.
    dim = 2**n_qubits
    shape = (dim, dim) if count is None else (count, dim, dim)
    a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    mats = a @ np.swapaxes(a.conj(), -1, -2)
    return mats / np.trace(mats, axis1=-2, axis2=-1)[..., None, None]


class TestBuildingBlocksMatchTheReference:
    """The broadcast marginal reset and the pair-list rotations, bit for bit."""

    @pytest.mark.parametrize(
        "n_qubits, qubit", [(n, q) for n in (1, 2, 3) for q in range(n)]
    )
    def test_replace_qubit_marginal(self, n_qubits, qubit):
        rng = np.random.default_rng(17 + 3 * n_qubits + qubit)
        mat = _random_states(rng, n_qubits)
        got = replace_qubit_marginal(DenseState(mat), qubit, 0.37).matrix
        want = ref.replace_qubit_marginal(ref.DenseState(mat), qubit, 0.37).matrix
        assert np.array_equal(got, want)
        mats, pops = _random_states(rng, n_qubits, 5), rng.uniform(0.0, 1.0, 5)
        stacked = replace_qubit_marginal(DenseState(mats), qubit, pops).matrix
        assert stacked.shape == mats.shape
        for mat_i, pop_i, got_i in zip(mats, pops, stacked):
            want_i = ref.replace_qubit_marginal(ref.DenseState(mat_i), qubit, pop_i).matrix
            assert np.array_equal(got_i, want_i)

    @pytest.mark.parametrize(
        "n_qubits, qa, qb",
        [(n, a, b) for n in (2, 3) for a in range(n) for b in range(n) if a != b],
    )
    def test_qubit_swap_unitary(self, n_qubits, qa, qb):
        got = oracle.qubit_swap_unitary(n_qubits, qa, qb).matrix
        assert np.array_equal(got, ref.qubit_swap_unitary(n_qubits, qa, qb).matrix)

    @pytest.mark.parametrize("weight", [0.0, 0.3, 1.0])
    def test_two_pairs_rotate_as_the_product_of_their_one_pair_rotations(self, weight):
        both = partial_swap_unitary(8, (1, 3), (4, 6), weight).matrix
        singles = (
            ref.partial_swap_unitary(8, 1, 4, weight).matrix
            @ ref.partial_swap_unitary(8, 3, 6, weight).matrix
        )
        assert np.array_equal(both, singles)

    def test_stacked_pairs_rotate_one_weight_per_matrix(self):
        weights = np.array([0.0, 0.25, 1.0])
        stacked = partial_swap_unitary(8, [2, 3], [4, 5], weights).matrix
        for weight, got in zip(weights, stacked):
            assert np.array_equal(got, partial_swap_unitary(8, (2, 3), (4, 5), weight).matrix)

    @pytest.mark.parametrize("weight", [0.3, 1.0])
    def test_overlapping_pairs_fail_the_unitarity_check(self, weight):
        with pytest.raises(DomainError, match="not unitary"):
            partial_swap_unitary(4, (1, 2), (2, 3), weight)


def test_haar_sweep_worker_reads_no_public_name():
    # A tracer that wraps the package's public functions keeps one call
    # stack for the whole process, so a public call from a worker thread
    # would interleave with the main thread's calls on it.  The worker and
    # the private helpers it reaches read only numpy, builtins and other
    # private names.
    tree = ast.parse(Path(oracle.__file__).read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    seen, todo = set(), ["_score_haar_chunk"]
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        fn = functions[name]
        local = {arg.arg for arg in ast.walk(fn.args) if isinstance(arg, ast.arg)}
        local |= {
            node.id
            for node in ast.walk(fn)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
        }
        for node in ast.walk(fn):
            if not isinstance(node, ast.Name) or not isinstance(node.ctx, ast.Load):
                continue
            if node.id in local or hasattr(builtins, node.id):
                continue
            assert node.id == "np" or node.id.startswith("_"), (name, node.id)
            if node.id in functions:
                todo.append(node.id)
    assert {"_chunk_gaussians", "_haar_from_gaussians", "_dominance"} <= seen


def test_oracle_never_imports_the_closed_forms():
    # The dense route is an independent check only while it cannot reach the
    # protocol evaluators it is checking.
    tree = ast.parse(Path(oracle.__file__).read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append(node.module or "")
            imported += [alias.name for alias in node.names]
    assert not [name for name in imported if "protocols" in name.split(".")]


def _reference_machines():
    # Drawn machines, which include t_hot = inf, plus one of each e_c route
    # at both a finite and an infinite hot bath.
    from qfridge.verify import _draw_machine

    rng = np.random.default_rng(DEFAULT_SEED)
    drawn = [_draw_machine(rng) for _ in range(40)]
    fixed = [
        MachineSpec.two_qubit(e_c, 1.0, t_hot) for e_c in (0.4, 1.7) for t_hot in (3.0, INFINITE)
    ]
    machines = drawn + fixed
    assert any(s.t_hot == INFINITE for s in drawn)
    assert {s.e_c <= s.e for s in drawn} == {True, False}
    return machines


def _assert_rows_match(stacked, per_machine):
    # Every stacked output against the reference run of the same machine.
    for got, want in zip(stacked, zip(*per_machine)):
        assert np.asarray(got).shape == np.asarray(want).shape
        assert np.abs(np.asarray(got) - np.asarray(want)).max(initial=0.0) <= 1e-15


class TestStackedSimulatorsMatchTheReference:
    MACHINES = _reference_machines()

    def test_incoherent_single(self):
        stacked = oracle.simulate_incoherent_single(self.MACHINES)
        _assert_rows_match(stacked, [ref.simulate_incoherent_single(s) for s in self.MACHINES])

    def test_coherent_single(self):
        mus = np.random.default_rng(5).uniform(0.0, 1.0, len(self.MACHINES))
        mus[:3] = (0.0, 0.5, 1.0)
        stacked = oracle.simulate_coherent_single(self.MACHINES, mus)
        _assert_rows_match(
            stacked, [ref.simulate_coherent_single(s, mu) for s, mu in zip(self.MACHINES, mus)]
        )

    @pytest.mark.parametrize("n", range(6))
    @pytest.mark.parametrize("r0", [None, 0.8])
    def test_repeated_incoherent(self, n, r0):
        stacked = oracle.simulate_repeated_incoherent(self.MACHINES, n, r0=r0)
        _assert_rows_match(
            stacked, [ref.simulate_repeated_incoherent(s, n, r0=r0) for s in self.MACHINES]
        )

    @pytest.mark.parametrize("n", range(6))
    def test_repeated_coherent(self, n):
        stacked = oracle.simulate_repeated_coherent(self.MACHINES, n)
        _assert_rows_match(stacked, [ref.simulate_repeated_coherent(s, n) for s in self.MACHINES])

    @pytest.mark.parametrize("n", range(6))
    @pytest.mark.parametrize("nu, r0", [(1.0, None), (0.4, None), (1.0, 0.8), (0.4, 0.8)])
    def test_algorithmic(self, n, nu, r0):
        stacked = oracle.simulate_algorithmic(self.MACHINES, n, nu=nu, r0=r0)
        _assert_rows_match(
            stacked, [ref.simulate_algorithmic(s, n, nu=nu, r0=r0) for s in self.MACHINES]
        )

    def test_an_empty_stack_gives_empty_arrays(self):
        rs, works = oracle.simulate_algorithmic([], 4)
        assert rs.shape == works.shape == (0, 5)

    def test_coherent_single_needs_one_mu_per_machine(self):
        with pytest.raises(DomainError, match="one mu per machine"):
            oracle.simulate_coherent_single(self.MACHINES[:3], [0.5, 0.5])
        with pytest.raises(DomainError, match=r"stack index 1"):
            oracle.simulate_coherent_single(self.MACHINES[:3], [0.5, 1.5, 0.5])


def _thermal_stack(count):
    spec = MachineSpec.two_qubit(0.4, 1.0)
    state = build_thermal_state(spec, (1.0,) * 3)
    return np.repeat(state.matrix[None], count, axis=0), hamiltonian_diagonal(spec.gaps)


class TestStackChecks:
    def test_one_non_psd_matrix_is_named_by_its_index(self):
        mats, _ = _thermal_stack(5)
        mats[3] = np.diag([1.5, -0.5, 0, 0, 0, 0, 0, 0])
        with pytest.raises(DomainError, match=r"positive semidefinite \(stack index 3\)"):
            DenseState(mats)

    def test_one_bad_trace_is_named_by_its_index(self):
        mats, _ = _thermal_stack(4)
        mats[2] *= 1.01
        with pytest.raises(DomainError, match=r"unit trace \(stack index 2\)"):
            DenseState(mats)

    def test_one_non_unitary_matrix_is_named_by_its_index(self):
        units = np.repeat(np.eye(8)[None], 3, axis=0)
        units[1, 0, 0] = 1.1
        with pytest.raises(DomainError, match=r"not unitary .*\(stack index 1\)"):
            UnitaryOp(units)

    def test_stacked_unitary_drift_is_caught_on_application(self):
        mats, h = _thermal_stack(3)
        u = UnitaryOp(np.repeat(np.eye(8)[None], 3, axis=0))
        u.matrix[2, 0, 0] = 1.1
        with pytest.raises(DomainError, match=r"drifted .*\(stack index 2\)"):
            apply_and_measure(DenseState(mats), u, h)

    def test_energy_conservation_is_checked_per_machine(self):
        # The swap conserves energy on resonant machines only.
        mats, _ = _thermal_stack(3)
        h = np.array([hamiltonian_diagonal(MachineSpec.two_qubit(0.4, 1.0).gaps)] * 3)
        h[1] = hamiltonian_diagonal((1.0, 1.5, 0.4))
        swap = swap_unitary(8, 2, 5, tag="energy_conserving")
        with pytest.raises(DomainError, match=r"commute with H \(stack index 1\)"):
            apply_and_measure(DenseState(mats), swap, h)

    def test_stacks_of_different_lengths_are_rejected(self):
        mats, h = _thermal_stack(3)
        u = UnitaryOp(np.repeat(np.eye(8)[None], 2, axis=0))
        with pytest.raises(DomainError, match="differ in length"):
            apply_and_measure(DenseState(mats), u, h)

    def test_stacked_blocks_equal_their_per_matrix_results(self):
        spec = MachineSpec.two_qubit(0.7, 1.3)
        local = _haar_unitaries(11, 8, 4)
        base = build_thermal_state(spec, (1.3,) * 3).matrix
        mats = local @ base @ np.swapaxes(local.conj(), -1, -2)
        h = hamiltonian_diagonal(spec.gaps)
        u = UnitaryOp(_haar_unitaries(12, 8, 4))
        r, delta, final = apply_and_measure(DenseState(mats), u, np.array([h] * 4))
        pops = np.array([0.9, 0.8, 0.7, 0.6])
        marginal = replace_qubit_marginal(final, 1, pops)
        fresh = rethermalize(final, 2, np.array([0.4, 0.5, 0.6, 0.7]), 2.0)
        for i in range(4):
            r_i, delta_i, final_i = apply_and_measure(
                DenseState(mats[i]), UnitaryOp(u.matrix[i]), h
            )
            assert (r[i], delta[i]) == (r_i, delta_i)
            assert np.array_equal(final.matrix[i], final_i.matrix)
            assert np.array_equal(
                marginal.matrix[i], replace_qubit_marginal(final_i, 1, pops[i]).matrix
            )
            assert np.array_equal(
                fresh.matrix[i], rethermalize(final_i, 2, 0.4 + 0.1 * i, 2.0).matrix
            )


class TestNonFiniteInputs:
    def test_all_nan_state_is_rejected(self):
        with pytest.raises(DomainError):
            DenseState(np.full((2, 2), np.nan))

    def test_nan_off_diagonal_state_is_rejected(self):
        with pytest.raises(DomainError):
            DenseState(np.array([[0.5, np.nan], [np.nan, 0.5]]))

    def test_all_nan_unitary_is_rejected(self):
        with pytest.raises(DomainError):
            UnitaryOp(np.full((4, 4), np.nan))

    def test_unitary_turned_nan_after_construction_is_caught_on_application(self):
        spec = MachineSpec.two_qubit(0.4, 1.0)
        state = build_thermal_state(spec, (1.0,) * 3)
        u = swap_unitary(8, 3, 4)
        u.matrix[0, 1] = np.nan
        with pytest.raises(DomainError, match="drifted"):
            apply_and_measure(state, u, hamiltonian_diagonal(spec.gaps))

    def test_nan_energy_fails_the_conservation_check(self):
        spec = MachineSpec.two_qubit(0.4, 1.0)
        state = build_thermal_state(spec, (1.0,) * 3)
        h = hamiltonian_diagonal(spec.gaps)
        h[5] = np.nan
        with pytest.raises(DomainError):
            apply_and_measure(state, swap_unitary(8, 2, 5, tag="energy_conserving"), h)
