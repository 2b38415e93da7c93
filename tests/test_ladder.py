import collections
import dataclasses
import decimal
import math
import random
import sys
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

import decimal_reference
import ladder_reference
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
    resource_free_energy,
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
            (rs,), (heats,) = simulate_repeated_incoherent([stage_machine], 400, r0=r_prev)
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


class TestSpecGuards:
    @pytest.mark.parametrize(
        "t_cold,target_gap", [(1e-320, 1.0), (5e-324, 1.0), (0.5, 1.7e308), (1e-300, 1e10)]
    )
    def test_cold_temperature_that_overflows_the_stage_walk_rejected(self, t_cold, target_gap):
        # E/t_cold or t_room/t_cold would be inf and the walk NaN.
        with pytest.raises(DomainError, match="t_cold"):
            LadderSpec(4, t_cold, 1.0, t_hot=10.0, target_gap=target_gap)

    def test_smallest_cold_temperature_with_finite_ratios_accepted(self):
        out = incoherent_ladder(LadderSpec(4, 1e-300, 1.0, t_hot=10.0))
        assert math.isfinite(out.w_total) and out.gap > 0.0

    @pytest.mark.parametrize("n_steps", [True, False])
    def test_bool_stage_count_rejected(self, n_steps):
        with pytest.raises(DomainError, match="n_steps"):
            LadderSpec(n_steps, 0.5, 1.0)

    @pytest.mark.parametrize("n_steps", [np.int64(5), np.int32(5), np.uint8(5)])
    def test_integral_stage_count_accepted_as_int(self, n_steps):
        spec = LadderSpec(n_steps, 0.5, 1.0, t_hot=10.0)
        assert type(spec.n_steps) is int
        assert spec == LadderSpec(5, 0.5, 1.0, t_hot=10.0)
        assert incoherent_ladder(spec) == incoherent_ladder(LadderSpec(5, 0.5, 1.0, t_hot=10.0))

    @pytest.mark.parametrize("n_steps", [np.int64(0), -3])
    def test_integral_stage_count_below_one_rejected(self, n_steps):
        with pytest.raises(DomainError, match="n_steps"):
            LadderSpec(n_steps, 0.5, 1.0)

    def test_hot_bath_whose_reciprocal_rounds_to_the_room_one_rejected(self):
        # t_hot > t_room, yet 1/t_hot == 1/t_room: the stage gaps divide by zero.
        t_room = 1.5000000000000002
        t_hot = math.nextafter(t_room, 2.0)
        assert t_hot > t_room and 1.0 / t_hot == 1.0 / t_room
        with pytest.raises(DomainError, match="t_hot"):
            incoherent_ladder(LadderSpec(4, 0.75, t_room, t_hot=t_hot))
        spec = LadderSpec(4, 0.75, t_room, t_hot=t_hot, e_ground_offset=3.0)
        assert embedded_ladder_preheat(spec) == 0.0

    @pytest.mark.parametrize(
        "t_cold,t_room,target_gap", [(1.0, 2.0, 1e308), (700.0, 1e308, 1e308)]
    )
    def test_target_gap_that_overflows_the_last_stage_gap_rejected(
        self, t_cold, t_room, target_gap
    ):
        # E/t_cold and t_room/t_cold are finite, E t_room/t_cold is not.
        with pytest.raises(DomainError, match="target gap .* overflows the largest stage gap"):
            LadderSpec(3, t_cold, t_room, target_gap=target_gap)

    def test_target_gap_that_underflows_against_the_room_temperature_rejected(self):
        # E/t_room == 0 would put every stage at x = 0 and its temperature at E/0.
        with pytest.raises(DomainError, match="target gap 5e-324 underflows"):
            LadderSpec(5, 1e300, 1e300, target_gap=5e-324)

    @pytest.mark.parametrize("offset", [None, 3.0])
    def test_overflowing_stage_gap_rejected(self, offset):
        spec = LadderSpec(4, 0.5, 1.0, t_hot=1.0 + 1e-15, e_ground_offset=offset, target_gap=1e300)
        with pytest.raises(DomainError, match="largest stage gap"):
            incoherent_ladder(spec)

    def test_ground_offset_whose_top_level_overflows_rejected(self):
        # offset + spacing = 1.79e308 + 1.1e306 overflows; the level sum went NaN.
        spec = LadderSpec(4, 0.5, 1.0, t_hot=10.0, e_ground_offset=1.79e308, target_gap=1e306)
        for price in (embedded_ladder_preheat, incoherent_ladder):
            with pytest.raises(DomainError, match="e_ground_offset 1.79e"):
                price(spec)


def _powers_of_two(low, high):
    return st.floats(math.log2(low), math.log2(high)).map(lambda k: 2.0**k)


@seed(20261019)
@settings(max_examples=300)
@given(
    n=st.integers(1, 64),
    target_gap=st.one_of(
        st.sampled_from([5e-324, 2.2250738585072014e-308, 1.0, 1e308]),
        _powers_of_two(5e-324, 1e308),
    ),
    temps=st.lists(
        st.one_of(st.sampled_from([1e-300, 1.0, 1e300]), _powers_of_two(1e-300, 1e300)),
        min_size=2,
        max_size=2,
    ),
)
def test_every_ladder_spec_is_rejected_or_finite(n, target_gap, temps):
    t_cold, t_room = sorted(temps)
    try:
        out = coherent_ladder(LadderSpec(n, t_cold, t_room, target_gap=target_gap))
    except DomainError:
        return
    assert all(math.isfinite(x) for x in (out.w_total, out.df_target, out.gap))
    assert all(math.isfinite(x) for x in out.per_step[-1])
    # The second law: no ladder cools below its free-energy cost.
    assert out.gap >= 0.0
    assert out.w_total >= out.df_target >= 0.0


@seed(20261020)
@settings(max_examples=300)
@given(
    n=st.integers(1, 64),
    target_gap=st.one_of(
        st.sampled_from([5e-324, 2.2250738585072014e-308, 1.0, 1e308]),
        _powers_of_two(5e-324, 1e308),
    ),
    t_room=st.one_of(
        st.sampled_from([1e-300, 1.0, 1e300, 1e307]), _powers_of_two(1e-300, 1e300)
    ),
    cold_share=st.one_of(st.just(1.0), _powers_of_two(1e-300, 1.0)),
    hot_share=st.one_of(st.sampled_from([1.0, 10.0, INFINITE]), _powers_of_two(1.0, 1e300)),
    offset=st.one_of(st.sampled_from([None, 0.0, 1e308]), _powers_of_two(5e-324, 1e308)),
)
# Finite levels near 1e308 whose energy sum at T_H overflows.
@example(n=4, target_gap=1.0, t_room=1e307, cold_share=5e-308, hot_share=10.0, offset=1e308)
def test_every_incoherent_ladder_spec_is_rejected_or_finite(
    n, target_gap, t_room, cold_share, hot_share, offset
):
    # cold_share = 1 is T_C = T_R, where the largest stage gap rounded below E.
    # A rejection names the spec field at fault, as a field name or in words.
    try:
        spec = LadderSpec(
            n, t_room * cold_share, t_room, t_hot=t_room * hot_share, e_ground_offset=offset,
            target_gap=target_gap,
        )
        out = incoherent_ladder(spec)
    except DomainError as exc:
        fields = [f.name for f in dataclasses.fields(LadderSpec)]
        assert any(f in str(exc) or f.replace("_", " ") in str(exc) for f in fields), exc
        return
    assert all(math.isfinite(x) for x in (out.w_total, out.df_target, out.gap, out.q_init))
    # The second law, and the twin's preheat on top of the coherent gap.
    assert out.gap >= 0.0
    assert out.w_total >= out.df_target >= 0.0
    assert out.q_init >= 0.0
    assert out.gap >= coherent_ladder(spec).gap


def _bit_identity_specs():
    for n in (1, 2, 3, 256, 1000):
        yield LadderSpec(n, 0.5, 1.0, t_hot=10.0)
        yield LadderSpec(n, 1.3, 1.3, t_hot=4.0, target_gap=0.7)  # T_C = T_R
        yield LadderSpec(n, 0.3, 2.0, t_hot=INFINITE, target_gap=2.5)
        yield LadderSpec(n, 0.5, 1.0, t_hot=10.0, e_ground_offset=50.0 * 10.0 * (n + 1))
        yield LadderSpec(n, 0.21, 0.9, t_hot=3.0, e_ground_offset=1.5, target_gap=1.7)


def _hot_side_spacing(spec):
    return ladder._hot_side_spacing(spec, spec.t_hot)


def _reference_preheat(spec):
    return decimal_reference.real_qubit_preheat(
        _hot_side_spacing(spec), spec.n_steps, spec.t_room, spec.t_hot
    )


def _assert_preheat_matches_the_reference(spec, rel=1e-12):
    """The real-qubit q_init, >= 0 and within ``rel`` of the 50-digit sum."""
    q_init = ladder._real_qubit_preheat(spec, spec.t_hot)
    assert q_init >= 0.0
    assert q_init == pytest.approx(float(_reference_preheat(spec)), rel=rel, abs=0.0)
    return q_init


def _assert_embedded_preheat_matches_the_reference(spec, rel=1e-12):
    e_g = spec.e_ground_offset
    if e_g is None:
        e_g = 50.0 * max(spec.t_hot, spec.t_room) * (spec.n_steps + 1)
    expected = decimal_reference.embedded_ladder_preheat(
        e_g, _hot_side_spacing(spec), spec.n_steps, spec.t_room, spec.t_hot
    )
    heat = embedded_ladder_preheat(spec)
    assert heat >= 0.0
    # A reference below the smallest normal float is held to its subnormal.
    assert heat == pytest.approx(float(expected), rel=rel, abs=2.0**-1022 * rel)
    return heat


def _assert_totals_match_the_reference(out, spec, rel=1e-13):
    gap, df_target = decimal_reference.ladder_totals(
        spec.target_gap, spec.t_cold, spec.t_room, spec.n_steps
    )
    assert out.gap >= 0.0
    assert out.gap == pytest.approx(float(gap), rel=rel, abs=0.0)
    assert out.df_target == pytest.approx(float(df_target), rel=rel, abs=0.0)
    assert out.w_total == pytest.approx(float(gap + df_target), rel=rel, abs=0.0)


class TestSinglePassWalk:
    """The one-pass walks against the list-building loops they replaced."""

    @pytest.mark.parametrize("spec", list(_bit_identity_specs()), ids=repr)
    def test_bit_identical_to_the_list_building_loops(self, spec):
        # The stages keep the loops' bits.  The totals and the real-qubit
        # preheat are no longer float sums over the stages; they are held
        # to 1e-13 and 1e-12 of the decimal reference.
        *_, stages = ladder_reference.coherent_ladder(spec)
        coh = coherent_ladder(spec)
        _assert_totals_match_the_reference(coh, spec)
        assert coh.per_step == stages
        if spec.e_ground_offset is None:
            q_init = _assert_preheat_matches_the_reference(spec)
        else:
            q_init = embedded_ladder_preheat(spec)
        preheat = resource_free_energy(q_init, spec.t_hot, spec.t_room)
        inc = ladder.incoherent_twin(spec, coh)
        assert inc.q_init == q_init
        assert (inc.w_total, inc.df_target, inc.gap) == (
            preheat + coh.w_total, coh.df_target, coh.gap + preheat
        )
        assert inc.per_step == stages
        assert incoherent_ladder(spec) == inc

    @pytest.mark.parametrize(
        "spec",
        [
            LadderSpec(n, t_cold, t_room, t_hot=t_hot, e_ground_offset=e_g, target_gap=gap)
            for n in (1, 2, 3, 256, 1000)
            for t_cold, t_room, t_hot, gap in ((0.5, 1.0, 10.0, 1.0), (0.21, 0.9, 3.0, 1.7))
            for e_g in (None, 0.0, 1.5, 40.0)  # None: the default offset
        ],
        ids=repr,
    )
    def test_embedded_preheat_matches_the_decimal_reference(self, spec):
        _assert_embedded_preheat_matches_the_reference(spec)

    @seed(20261019)
    @settings(max_examples=200)
    @given(
        n=st.integers(1, 300),
        t_room=st.floats(0.1, 10.0),
        cold_share=st.floats(0.01, 0.99),
        target_gap=st.floats(0.1, 10.0),
    )
    def test_stages_sum_to_the_total_and_fall_to_the_cold_temperature(
        self, n, t_room, cold_share, target_gap
    ):
        spec = LadderSpec(n, cold_share * t_room, t_room, target_gap=target_gap)
        out = coherent_ladder(spec)
        # Each stage's float work is off by its exponent's rounding, up to
        # (E/T_C) 2^-53 in r times the stage's gap excess; the total is not.
        excess = target_gap * (t_room / spec.t_cold - 1.0)
        slack = n * (2.0 + target_gap / spec.t_cold) * 2.0**-52 * excess
        total = math.fsum(stage.work for stage in out.per_step)
        assert abs(total - out.w_total) <= slack + 1e-13 * out.w_total
        assert all(stage.work >= 0.0 for stage in out.per_step)
        temperatures = [t_room] + [stage.temperature for stage in out.per_step]
        assert all(b < a for a, b in zip(temperatures, temperatures[1:]))
        last = out.per_step[-1]
        assert last.index == n
        assert last.temperature == pytest.approx(spec.t_cold, rel=1e-13)
        assert last.r == pytest.approx(boltzmann_population(target_gap, spec.t_cold), rel=1e-15)
        d = decimal_reference.relative_entropy(target_gap, spec.t_cold, t_room)
        assert out.df_target == pytest.approx(t_room * float(d), rel=1e-13, abs=0.0)

    def test_large_ladder_runs_in_constant_memory(self):
        for e_g in (None, 5.0):  # real-qubit and embedded preheat
            spec = LadderSpec(2**16, 0.5, 1.0, t_hot=10.0, e_ground_offset=e_g)
            small = LadderSpec(4, 0.5, 1.0, t_hot=10.0, e_ground_offset=e_g)
            ladder.incoherent_twin(small, coherent_ladder(small))  # warm outside the trace
            tracemalloc.start()
            try:
                ladder.incoherent_twin(spec, coherent_ladder(spec))
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 64 * 1024, e_g

    def test_no_stage_record_is_built_until_per_step_is_read(self, monkeypatch):
        built = []

        class CountedStage(ladder.LadderStage):
            def __new__(cls, *fields):
                built.append(fields[0])
                return super().__new__(cls, *fields)

        monkeypatch.setattr(ladder, "LadderStage", CountedStage)
        spec = LadderSpec(64, 0.5, 1.0, t_hot=10.0)
        coh = coherent_ladder(spec)
        inc = ladder.incoherent_twin(spec, coh)
        incoherent_ladder(spec)
        assert built == []
        assert len(inc.per_step) == 64
        assert built == list(range(1, 65))
        assert coh.per_step == inc.per_step
        assert inc.per_step is inc.per_step  # built once per outcome
        assert len(built) == 128


def _drawn_ladders(count=64, seed=20261020):
    """Ladders with E/T_C up to 700, T_C/T_R near 1 and not, N from 1 to 2^20.

    Every other far-from-1 ladder is drawn with h, the step in E/T, above
    0.25, where the totals are a direct sum.
    """
    rng = random.Random(seed)
    for k in range(count):
        t_room = 10.0 ** rng.uniform(-2.0, 2.0)
        x_cold = 10.0 ** rng.uniform(-2.0, math.log10(700.0))
        near = k % 4 == 0
        ratio = 1.0 - 10.0 ** rng.uniform(-15.0, -1.0) if near else rng.uniform(0.002, 0.99)
        span = x_cold * (1.0 - ratio)
        if k % 8 == 7:
            n = 2**20
        elif k % 2 and not near:
            n = max(1, int(span / rng.uniform(0.25, 4.0)))
        else:
            n = max(1, round(2.0 ** rng.uniform(0.0, 20.0)))
        t_cold = t_room * ratio
        yield LadderSpec(n, t_cold, t_room, target_gap=x_cold * t_cold)


def _stage_step(spec):
    """h, the step in E/T between stages."""
    return spec.target_gap * (1.0 / spec.t_cold - 1.0 / spec.t_room) / spec.n_steps


class TestTotalsAgainstTheDecimalReference:
    """The O(1) totals against the 50-digit sum, in excited populations."""

    def test_the_drawn_set_covers_the_stated_ranges(self):
        specs = list(_drawn_ladders())
        steps = [_stage_step(spec) for spec in specs]
        assert min(s.t_cold / s.t_room for s in specs) < 0.02
        assert max(s.t_cold / s.t_room for s in specs) > 1.0 - 1e-12
        assert max(s.target_gap / s.t_cold for s in specs) > 600.0
        assert {1, 2**20} <= {s.n_steps for s in specs}
        assert min(steps) < 1e-12 and max(steps) > 2.0
        for threshold in (0.25, 0.5):
            assert sum(h <= threshold for h in steps) > 8
            assert sum(h > threshold for h in steps) > 8

    @pytest.mark.parametrize("spec", list(_drawn_ladders()), ids=repr)
    def test_gap_and_totals_within_1e_13(self, spec):
        # E/T is rounded once in floats, which alone costs up to
        # (E/T) 2^-53 relative in each population: 7.8e-14 at E/T = 700.
        _assert_totals_match_the_reference(coherent_ladder(spec), spec)

    def test_cold_ladder_gap_is_positive_and_exact(self):
        # E/T = 35..44: the stage loop's sum of ground populations gave
        # gap = -3.09e-17; the 60-digit value is +6.319e-17.
        spec = LadderSpec(28, 0.6784928566147798, 0.8467483530249168, target_gap=29.915236147323846)
        out = coherent_ladder(spec)
        assert out.gap > 0.0
        _assert_totals_match_the_reference(out, spec)
        assert out.gap == pytest.approx(6.319e-17, rel=1e-3, abs=0.0)

    def test_the_reference_sum_and_series_agree(self):
        # As T_C -> T_R the direct sum cancels against the integral and
        # keeps ~30 of its 50 digits: still 1e17 times what the tests need.
        n = decimal_reference.DIRECT_SUM_LIMIT
        for e, t_cold, t_room in ((1.0, 0.5, 1.0), (700.0, 1.0, 1.3), (0.3, 0.8, 0.8000001)):
            direct = decimal_reference.ladder_excess(e, t_cold, t_room, n, series=False)
            series = decimal_reference.ladder_excess(e, t_cold, t_room, n, series=True)
            with decimal.localcontext(decimal_reference.CONTEXT):
                assert abs(direct - series) <= abs(series) * decimal.Decimal("1e-28")

    def test_a_million_stages_in_under_a_millisecond(self):
        spec = LadderSpec(2**20, 0.5, 1.0)
        best = math.inf
        for _ in range(5):
            start = time.perf_counter()
            coherent_ladder(spec)
            best = min(best, time.perf_counter() - start)
        assert best < 1e-3

    def test_series_constants_are_the_exact_ones(self):
        # Float literals keep fractions out of the import; each is the
        # correctly rounded exact value.
        exact = decimal_reference.bernoulli_over_factorial(len(ladder._BERNOULLI_TERMS))
        for (constant, coefficients), b, q in zip(
            ladder._BERNOULLI_TERMS, exact, decimal_reference.ODD_DERIVATIVES
        ):
            assert constant == float(b)
            assert coefficients == tuple(float(c) for c in reversed(q[1:]))


def _drawn_preheats(count=64, seed=20261021):
    """Incoherent ladders with T_H = inf or T_H/T_R in [1.01, 1e3], T_C/T_R
    in [1e-3, 1), E/T_R in [1e-2, 700] and N from 1 to 2^20.

    Every other ladder is drawn by its step η = S/(N T_R), S the hot-side
    spacing: half of those with η above 0.25, where the room sum is direct.
    """
    rng = random.Random(seed)
    for k in range(count):
        t_room = 10.0 ** rng.uniform(-2.0, 2.0)
        x_room = 10.0 ** rng.uniform(-2.0, math.log10(700.0))
        if k % 5 == 0:
            ratio = 1.0 - 10.0 ** rng.uniform(-12.0, -1.0)
        else:
            ratio = 10.0 ** rng.uniform(-3.0, -0.01)
        hot_share = {2: 1.01, 6: 1e3}.get(k % 16, 10.0 ** rng.uniform(math.log10(1.01), 3.0))
        t_hot = INFINITE if k % 4 == 0 else t_room * hot_share
        spec = LadderSpec(1, t_room * ratio, t_room, t_hot=t_hot, target_gap=x_room * t_room)
        y = _hot_side_spacing(spec) / t_room
        if k % 8 == 7:
            n = 2**20
        elif k % 4 == 1:
            n = max(1, int(y / rng.uniform(0.26, 4.0)))
        elif k % 4 == 3:
            n = max(1, int(y / rng.uniform(1e-3, 0.25)))
        else:
            n = max(1, round(2.0 ** rng.uniform(0.0, 20.0)))
        yield dataclasses.replace(spec, n_steps=min(n, 2**20))


def _near_preheats(count=48, seed=20261022):
    """Ladders with T_H/T_R in (1, 1.01) whose q_init stays above the floats' floor.

    S/T_R is drawn in [1e-2, 50] and T_C/T_R is set to give it, N up to 2^12.
    """
    rng = random.Random(seed)
    for _ in range(count):
        t_room = 10.0 ** rng.uniform(-2.0, 2.0)
        x_room = 10.0 ** rng.uniform(-2.0, 1.5)
        share = 10.0 ** rng.uniform(-8.0, -2.0)
        y = 10.0 ** rng.uniform(-2.0, math.log10(50.0))
        t_cold = t_room / (1.0 + y * share / x_room)
        n = max(1, round(2.0 ** rng.uniform(0.0, 12.0)))
        yield LadderSpec(n, t_cold, t_room, t_hot=t_room / (1.0 - share), target_gap=x_room * t_room)


def _preheat_step(spec, temp):
    return _hot_side_spacing(spec) / (spec.n_steps * temp)


class TestPreheatAgainstTheDecimalReference:
    """The real-qubit preheat, O(1) in N, against the 50-digit sum."""

    def test_the_drawn_set_covers_the_stated_ranges(self):
        specs = list(_drawn_preheats())
        finite = [s.t_hot / s.t_room for s in specs if s.t_hot < INFINITE]
        steps = [_preheat_step(s, s.t_room) for s in specs]
        assert len(finite) < len(specs)
        assert min(finite) < 1.0101 and max(finite) > 999.0
        assert min(s.t_cold / s.t_room for s in specs) < 2e-3
        assert max(s.t_cold / s.t_room for s in specs) > 1.0 - 1e-9
        assert max(s.target_gap / s.t_room for s in specs) > 500.0
        assert {1, 2**20} <= {s.n_steps for s in specs}
        assert sum(h <= 0.25 for h in steps) > 8 and sum(h > 0.25 for h in steps) > 8

    @pytest.mark.parametrize("spec", list(_drawn_preheats()), ids=repr)
    def test_within_1e_12(self, spec):
        _assert_preheat_matches_the_reference(spec)

    def test_near_room_hot_bath_no_worse_than_the_stage_loop(self):
        # As T_H -> T_R both lose about 2^-53 T_H/(T_H - T_R) of q_init to
        # the cancelling populations (the series up to 10 times that on
        # 1500 draws); the loop loses all of it once its ground populations
        # round to 1.
        ours, loop = [], []
        for spec in _near_preheats():
            expected = float(_reference_preheat(spec))
            assert expected > 1e-300
            bound = 16.0 * 2.0**-53 * spec.t_hot / (spec.t_hot - spec.t_room)
            ours.append(abs(_assert_preheat_matches_the_reference(spec, rel=bound) / expected - 1.0))
            loop.append(abs(ladder_reference.real_qubit_preheat(spec, spec.t_hot) / expected - 1.0))
        assert max(ours) <= max(loop)
        assert sorted(ours)[len(ours) // 2] <= sorted(loop)[len(loop) // 2]

    @pytest.mark.parametrize("n", [1, 2, 7, 1000, 2**20])
    @pytest.mark.parametrize("t_hot", [1.5, 10.0, 1.7e308, INFINITE])
    def test_exactly_zero_at_room_temperature_target(self, n, t_hot):
        assert incoherent_ladder(LadderSpec(n, 0.8, 0.8, t_hot=t_hot)).q_init == 0.0

    @pytest.mark.parametrize("t_hot", [1e300, 1.7e308, INFINITE])
    def test_hottest_baths_meet_the_infinite_one(self, t_hot):
        # S/T_H underflows to 0 or nearly: every hot-side qubit is half full.
        for n in (1, 3, 1000, 2**20):
            spec = LadderSpec(n, 0.5, 1.0, t_hot=t_hot)
            q_init = incoherent_ladder(spec).q_init
            assert math.isfinite(q_init)
            assert q_init == pytest.approx(float(_reference_preheat(spec)), rel=1e-12, abs=0.0)

    def test_a_million_stages_in_under_a_millisecond(self):
        spec = LadderSpec(2**20, 0.5, 1.0, t_hot=10.0)
        best = math.inf
        for _ in range(5):
            start = time.perf_counter()
            incoherent_ladder(spec)
            best = min(best, time.perf_counter() - start)
        assert best < 1e-3

    def test_math_calls_do_not_grow_with_the_stage_count(self, monkeypatch):
        # Deterministic: the preheat and the coherent totals make the same
        # calls into math at N = 2^10 and 2^20, and at most 4 exponentials.
        calls = collections.Counter()

        class CountingMath:
            def __getattr__(self, name):
                value = getattr(math, name)
                if not callable(value):
                    return value

                def counted(*args):
                    calls[name] += 1
                    return value(*args)

                return counted

        monkeypatch.setattr(ladder, "math", CountingMath())
        counts = []
        for n in (2**10, 2**20):
            calls.clear()
            incoherent_ladder(LadderSpec(n, 0.5, 1.0, t_hot=10.0))
            counts.append(dict(calls))
        assert counts[0] == counts[1]
        assert counts[0]["exp"] <= 4
        assert sum(counts[0].values()) <= 40

    def test_constants_are_the_exact_ones(self):
        # π²/12 = J(inf); J(1000) differs from it by e^-1000.
        assert ladder._PI2_OVER_12 == float(decimal_reference.excited_moment(1000.0))
        # Half the integral of t·t^k over [0, 1], exact for k + 1 <= 19.
        for k in range(19):
            got = math.fsum(w * t**k for t, w in ladder._MOMENT_NODES)
            assert got == pytest.approx(0.5 / (k + 2), rel=1e-14)

    def test_the_reference_sum_and_series_agree(self):
        n = decimal_reference.DIRECT_SUM_LIMIT + 1
        for spacing, temp in ((1e-3, 1.0), (30.0, 1.3), (500.0, 1.0)):
            with decimal.localcontext(decimal_reference.CONTEXT):
                series = decimal_reference._excited_energy_sum(
                    decimal.Decimal(spacing), n, decimal.Decimal(temp)
                )
                direct = sum(
                    i * decimal.Decimal(spacing) / n
                    * decimal_reference.excited_population(i * decimal.Decimal(spacing) / n, temp)
                    for i in range(1, n + 1)
                )
                assert abs(direct - series) <= abs(series) * decimal.Decimal("1e-40")


def _near_room_cold_targets(seed=20261024):
    """Ladders with T_C/T_R = 1 - 10^-k, k = 1..15, each at T_H = inf, at
    T_H/T_R in [1.01, 1e3] and at T_H/T_R in (1, 1.01)."""
    rng = random.Random(seed)
    for k in range(1, 16):
        t_room = 10.0 ** rng.uniform(-2.0, 2.0)
        target_gap = t_room * 10.0 ** rng.uniform(-2.0, 2.0)
        for hot_share in (
            INFINITE, 10.0 ** rng.uniform(math.log10(1.01), 3.0), 1.0 + 10.0 ** rng.uniform(-9.0, -2.0)
        ):
            t_hot = t_room * hot_share
            n = rng.choice([1, 7, 256, 2**20])
            yield LadderSpec(n, t_room * (1.0 - 10.0**-k), t_room, t_hot=t_hot, target_gap=target_gap)


class TestHotSideSpacing:
    """S, the hot-side spacing, and the q_init it prices, against decimal."""

    @pytest.mark.parametrize("spec", list(_near_room_cold_targets()), ids=repr)
    def test_within_1e_15_as_the_cold_target_nears_room(self, spec):
        # From rounded reciprocals, 1/T_C - 1/T_R left S 4e-8 off at k = 6
        # and 9% off at k = 15.
        expected = decimal_reference.hot_side_spacing(
            spec.target_gap, spec.t_cold, spec.t_room, spec.t_hot
        )
        assert ladder._hot_side_spacing(spec, spec.t_hot) == pytest.approx(
            float(expected), rel=1e-15, abs=0.0
        )
        if spec.t_hot / spec.t_room >= 1.01:
            q_init = incoherent_ladder(spec).q_init
            reference = decimal_reference.real_qubit_preheat(
                expected, spec.n_steps, spec.t_room, spec.t_hot
            )
            assert q_init == pytest.approx(float(reference), rel=1e-12, abs=0.0)


class TestEmbeddedPreheatAgainstTheDecimalReference:
    def test_a_large_offset_no_longer_cancels_to_a_negative_heat(self):
        # The offset dwarfs the spacing and both baths dwarf the offset: the
        # two mean energies agree to 15 digits, and their float difference
        # was -8.758e-47.
        spec = LadderSpec(
            48, 1.1180826838850895e-228, 1.0193853249751108e-17, t_hot=1.4215135289434277e108,
            e_ground_offset=2.231165581752544e-31, target_gap=5e-324,
        )
        assert _assert_embedded_preheat_matches_the_reference(spec) > 0.0
        inc = incoherent_ladder(spec)
        assert inc.q_init > 0.0 and inc.gap >= coherent_ladder(spec).gap

    @pytest.mark.parametrize("k", range(24))
    def test_drawn_ladders(self, k):
        rng = random.Random(20261023 + k)
        t_room = 10.0 ** rng.uniform(-3.0, 3.0)
        share = 10.0 ** rng.uniform(-12.0, 3.0)
        spec = LadderSpec(
            rng.choice([1, 2, 5, 48, 300]),
            t_room * 10.0 ** rng.uniform(-3.0, 0.0),
            t_room,
            t_hot=t_room * (1.0 + share),
            target_gap=t_room * 10.0 ** rng.uniform(-3.0, 2.0),
            e_ground_offset=t_room * 10.0 ** rng.uniform(-20.0, 3.0),
        )
        _assert_embedded_preheat_matches_the_reference(spec)
