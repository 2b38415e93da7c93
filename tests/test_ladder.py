import math

import pytest

from qfridge import ladder
from qfridge.ladder import (
    LadderSpec,
    coherent_ladder,
    embedded_ladder_preheat,
    incoherent_ladder,
)
from qfridge.oracle import build_thermal_state, hamiltonian_diagonal, swap_unitary, apply_and_measure
from qfridge.thermal import (
    ConfigurationError,
    DomainError,
    INFINITE,
    MachineSpec,
    binary_entropy,
    boltzmann_population,
)


class TestCoherentLadder:
    def test_single_stage_is_one_full_swap(self):
        spec = LadderSpec(1, 0.5, 1.0)
        out = coherent_ladder(spec)
        r = boltzmann_population(1.0, 1.0)
        r_max = boltzmann_population(1.0, 0.5)
        assert out.w_total == pytest.approx((r_max - r) * (1.0 / 0.5 - 1.0), rel=1e-13)
        assert out.per_step[-1].temperature == pytest.approx(0.5, rel=1e-13)

    def test_degenerate_cold_temperature_is_free(self):
        out = coherent_ladder(LadderSpec(4, 1.0, 1.0))
        assert out.w_total == 0.0
        assert out.gap == pytest.approx(0.0, abs=1e-15)

    def test_free_energy_increase_from_entropy_bookkeeping(self):
        spec = LadderSpec(8, 0.5, 1.0)
        out = coherent_ladder(spec)
        r0 = boltzmann_population(1.0, 1.0)
        rn = boltzmann_population(1.0, 0.5)
        expected = 1.0 * (binary_entropy(r0) - binary_entropy(rn)) - 1.0 * (rn - r0)
        assert out.df_target == pytest.approx(expected, rel=1e-13)
        assert out.df_target > 0.0

    def test_gap_positive_and_halves_with_doubling(self):
        gaps = {}
        for n in (1, 2, 4, 8, 16, 32, 64, 128):
            out = coherent_ladder(LadderSpec(n, 0.5, 1.0))
            assert out.gap > 0.0
            gaps[n] = out.gap
        for n in (16, 32, 64):
            ratio = gaps[2 * n] / gaps[n]
            assert 0.4 <= ratio <= 0.6

    def test_work_decreases_with_stages(self):
        w = [coherent_ladder(LadderSpec(n, 0.4, 1.0)).w_total for n in (1, 2, 4, 8)]
        assert all(b < a for a, b in zip(w, w[1:]))

    def test_stage_work_matches_dense_two_level_swap(self):
        # each stage is a full swap against a fresh qubit of the stage gap
        spec = LadderSpec(3, 0.5, 1.0)
        out = coherent_ladder(spec)
        ratio = 1.0 / 0.5
        r_prev = boltzmann_population(1.0, 1.0)
        t_prev = 1.0
        for stage in out.per_step:
            e_i = 1.0 * (1.0 + (stage.index / 3) * (ratio - 1.0))
            mspec = MachineSpec.one_qubit(e_i, 1.0)
            state = build_thermal_state(mspec, (t_prev, 1.0))
            h = hamiltonian_diagonal(mspec.gaps)
            swap = swap_unitary(4, 1, 2)
            r_dense, work_dense, _ = apply_and_measure(state, swap, h)
            assert stage.r == pytest.approx(r_dense, abs=1e-14)
            assert stage.work == pytest.approx(work_dense, abs=1e-14)
            r_prev, t_prev = stage.r, stage.temperature

    def test_hotter_than_room_cold_target_rejected(self):
        with pytest.raises(DomainError):
            LadderSpec(4, 1.5, 1.0)

    @pytest.mark.parametrize("t_room", [INFINITE, math.nan])
    def test_non_finite_room_temperature_rejected(self, t_room):
        with pytest.raises(DomainError):
            LadderSpec(4, 0.5, t_room)

    @pytest.mark.parametrize("e_g", [INFINITE, math.nan])
    def test_non_finite_ground_offset_rejected(self, e_g):
        with pytest.raises(DomainError):
            LadderSpec(4, 0.5, 1.0, t_hot=10.0, e_ground_offset=e_g)

    @pytest.mark.parametrize("target_gap", [INFINITE, math.nan, 0.0])
    def test_non_finite_or_zero_target_gap_rejected(self, target_gap):
        with pytest.raises(DomainError, match="target gap"):
            LadderSpec(4, 0.5, 1.0, t_hot=10.0, target_gap=target_gap)

    @pytest.mark.parametrize("n_steps", [2.0, 2.5, "4"])
    def test_non_integer_stage_count_rejected(self, n_steps):
        with pytest.raises(DomainError):
            LadderSpec(n_steps, 0.5, 1.0)


class TestIncoherentLadder:
    def test_stage_temperatures_identical_to_coherent(self):
        spec = LadderSpec(12, 0.5, 1.0, t_hot=10.0)
        coh = coherent_ladder(spec)
        inc = incoherent_ladder(spec)
        for a, b in zip(coh.per_step, inc.per_step):
            assert a.temperature == b.temperature
            assert a.r == b.r

    def test_work_offset_is_exactly_carnot_weighted_preheat(self):
        spec = LadderSpec(8, 0.5, 1.0, t_hot=10.0)
        coh = coherent_ladder(spec)
        inc = incoherent_ladder(spec)
        assert inc.w_total - coh.w_total == inc.q_init * (1.0 - 1.0 / 10.0)

    def test_infinite_bath_real_qubit_maintenance_matches_coherent_stage_work(self):
        spec = LadderSpec(6, 0.5, 1.0, t_hot=INFINITE)
        inc = incoherent_ladder(spec)
        ratio = 1.0 / 0.5
        e_max = 1.0 * ratio
        rs = [boltzmann_population(1.0, stage.temperature) for stage in inc.per_step]
        rs = [boltzmann_population(1.0, 1.0)] + rs
        for stage, r_prev in zip(inc.per_step, rs):
            e_ci = (stage.index / 6) * (e_max - 1.0)
            maintenance = e_ci * (stage.r - r_prev)
            # at infinite t_hot the Carnot factor is one, so the reported
            # stage work is the maintenance heat itself
            assert stage.work == pytest.approx(maintenance, rel=1e-12, abs=1e-15)

    def test_missing_hot_bath_rejected(self, monkeypatch):
        # rejected before the coherent ladder is built
        monkeypatch.setattr(ladder, "coherent_ladder", None)
        with pytest.raises(ConfigurationError):
            incoherent_ladder(LadderSpec(4, 0.5, 1.0))

    @pytest.mark.parametrize("offset", [None, 3.0])
    def test_room_temperature_hot_bath_rejected(self, offset, monkeypatch):
        spec = LadderSpec(4, 0.5, 1.0, t_hot=1.0, e_ground_offset=offset)
        coherent = coherent_ladder(spec)
        monkeypatch.setattr(ladder, "coherent_ladder", None)
        with pytest.raises(DomainError):
            incoherent_ladder(spec)
        with pytest.raises(DomainError):
            ladder.incoherent_twin(spec, coherent)

    def test_stage_maintenance_heat_against_dense_two_qubit_stage(self):
        # run each resonant two-qubit stage machine to (near) its steady
        # state in the dense route starting from the previous stage's target
        # population; the post-preheat heat must match E_C,i (r_i - r_{i-1})
        from qfridge.oracle import simulate_repeated_incoherent

        n_steps, t_hot = 3, 10.0
        spec = LadderSpec(n_steps, 0.5, 1.0, t_hot=t_hot)
        inc = incoherent_ladder(spec)
        e_max = 1.0 * (1.0 / 0.5 - 1.0 / t_hot) / (1.0 - 1.0 / t_hot)
        r_prev = boltzmann_population(1.0, 1.0)
        for stage in inc.per_step:
            e_ci = (stage.index / n_steps) * (e_max - 1.0)
            stage_machine = MachineSpec.two_qubit(e_ci, 1.0, t_hot, e=1.0)
            rs, heats = simulate_repeated_incoherent(stage_machine, 400, r0=r_prev)
            preheat = e_ci * (
                boltzmann_population(e_ci, 1.0) - boltzmann_population(e_ci, t_hot)
            )
            assert rs[-1] == pytest.approx(stage.r, abs=1e-12)
            assert heats[-1] - preheat == pytest.approx(
                e_ci * (stage.r - r_prev), abs=1e-12
            )
            r_prev = stage.r


class TestEmbeddedPreheat:
    def test_two_level_plus_ground_partition_function_value(self):
        # E_g = 0, N = 1: three levels at (0, 0, spacing); direct evaluation
        spec = LadderSpec(1, 0.5, 1.0, t_hot=4.0, e_ground_offset=0.0)
        spacing = 1.0 * (1.0 / 0.5 - 1.0 / 4.0) / (1.0 - 1.0 / 4.0) - 1.0

        def mean_energy(temp):
            weights = [1.0, 1.0, math.exp(-spacing / temp)]
            energies = [0.0, 0.0, spacing]
            z = sum(weights)
            return sum(e * w for e, w in zip(energies, weights)) / z

        expected = mean_energy(4.0) - mean_energy(1.0)
        assert embedded_ladder_preheat(spec) == pytest.approx(expected, rel=1e-12)

    def test_equal_temperatures_cost_nothing(self):
        spec = LadderSpec(4, 0.5, 1.0, t_hot=1.0, e_ground_offset=3.0)
        assert embedded_ladder_preheat(spec) == pytest.approx(0.0, abs=1e-15)

    def test_decreasing_beyond_the_freeze_out_scale_with_zero_limit(self):
        # the cost peaks near offsets comparable to t_hot; past the
        # freeze-out scale it is monotone decreasing toward zero
        t_hot = 6.0
        values = []
        for factor in (3.0, 10.0, 30.0, 100.0):
            e_g = factor * t_hot * 5
            spec = LadderSpec(4, 0.5, 1.0, t_hot=t_hot, e_ground_offset=e_g)
            values.append(embedded_ladder_preheat(spec))
        assert all(b < a for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-200

    def test_large_offset_drives_cost_below_double_precision(self):
        t_hot = 6.0
        spec = LadderSpec(
            4, 0.5, 1.0, t_hot=t_hot, e_ground_offset=50.0 * t_hot * 5
        )
        assert embedded_ladder_preheat(spec) < 1e-15

    def test_incoherent_ladder_with_embedded_model_closes_the_offset(self):
        t_hot = 10.0
        n = 8
        spec = LadderSpec(n, 0.5, 1.0, t_hot=t_hot, e_ground_offset=50.0 * t_hot * (n + 1))
        inc = incoherent_ladder(spec)
        coh = coherent_ladder(spec)
        assert abs(inc.w_total - coh.w_total) < 1e-9

    @pytest.mark.parametrize("e_g", [None, 10.0])
    def test_infinite_hot_bath_is_a_domain_error(self, e_g):
        # No finite ground offset sits above an infinite bath, default or set.
        spec = LadderSpec(4, 0.5, 1.0, t_hot=INFINITE, e_ground_offset=e_g)
        with pytest.raises(DomainError):
            embedded_ladder_preheat(spec)
        if e_g is not None:
            with pytest.raises(DomainError):
                incoherent_ladder(spec)
