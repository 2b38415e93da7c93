import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfridge.protocols import autonomous_steady_state, repeated_coherent
from qfridge.thermal import INFINITE, DomainError, MachineSpec, boltzmann_population
from qfridge.virtual import (
    EmptyVirtualQubitError,
    VirtualQubit,
    extract_virtual_qubit,
    n_swap_population,
    swap_update,
)


def _machine_state(e_b, e_c, t_b, t_c):
    r_b = boltzmann_population(e_b, t_b)
    r_c = boltzmann_population(e_c, t_c)
    return np.kron([r_b, 1 - r_b], [r_c, 1 - r_c])


class TestExtraction:
    def test_incoherent_subspace_norm(self):
        # {01, 10}_BC with B at room and C heated
        e_b, e_c, t_r, t_h = 1.4, 0.4, 1.0, 3.0
        state = _machine_state(e_b, e_c, t_r, t_h)
        vq = extract_virtual_qubit(state, 1, 2, e_b - e_c)
        r_b = boltzmann_population(e_b, t_r)
        r_ch = boltzmann_population(e_c, t_h)
        assert vq.norm == pytest.approx(r_b * (1 - r_ch) + (1 - r_b) * r_ch, abs=1e-15)

    def test_coherent_subspace_population(self):
        e_b, e_c, t = 1.4, 0.4, 1.0
        state = _machine_state(e_b, e_c, t, t)
        vq = extract_virtual_qubit(state, 0, 3, e_b + e_c)
        r_b = boltzmann_population(e_b, t)
        r_c = boltzmann_population(e_c, t)
        expected = r_b * r_c / (r_b * r_c + (1 - r_b) * (1 - r_c))
        assert vq.r_v == pytest.approx(expected, abs=1e-15)

    def test_infinite_hot_bath_norm_is_half(self):
        state = _machine_state(1.4, 0.4, 1.0, INFINITE)
        vq = extract_virtual_qubit(state, 1, 2, 1.0)
        assert vq.norm == pytest.approx(0.5, abs=1e-15)

    def test_empty_subspace_flagged(self):
        with pytest.raises(EmptyVirtualQubitError):
            VirtualQubit(p_g=0.0, p_e=0.0, gap=1.0)

    @pytest.mark.parametrize("p_g, p_e", [(math.nan, 0.2), (0.2, math.nan)])
    def test_nan_population_rejected(self, p_g, p_e):
        with pytest.raises(DomainError):
            VirtualQubit(p_g=p_g, p_e=p_e, gap=1.0)

    @pytest.mark.parametrize("gap", [math.nan, INFINITE])
    def test_non_finite_gap_rejected(self, gap):
        with pytest.raises(DomainError, match="gap"):
            VirtualQubit(p_g=0.3, p_e=0.2, gap=gap)

    def test_bias_matches_tanh_relation(self):
        state = _machine_state(1.4, 0.4, 1.0, 2.0)
        vq = extract_virtual_qubit(state, 1, 2, 1.0)
        bias = (vq.p_g - vq.p_e) / vq.norm
        assert bias == pytest.approx(math.tanh(vq.gap / (2 * vq.t_v)), abs=1e-12)

    def test_pure_ground_virtual_qubit_has_zero_temperature(self):
        assert VirtualQubit(p_g=0.25, p_e=0.0, gap=1.0).t_v == 0.0


class TestSwapUpdate:
    def test_full_norm_returns_virtual_population(self):
        vq = VirtualQubit(p_g=0.8, p_e=0.2, gap=1.0)
        assert swap_update(0.6, vq) == pytest.approx(vq.r_v, abs=1e-15)

    def test_fixed_point(self):
        vq = VirtualQubit(p_g=0.4, p_e=0.1, gap=1.0)
        assert swap_update(vq.r_v, vq) == pytest.approx(vq.r_v, abs=1e-15)

    def test_half_norm_halves_the_distance(self):
        vq = VirtualQubit(p_g=0.35, p_e=0.15, gap=1.0)
        r = 0.6
        assert vq.norm == pytest.approx(0.5, abs=1e-15)
        assert vq.r_v - swap_update(r, vq) == pytest.approx(
            0.5 * (vq.r_v - r), abs=1e-15
        )

    @given(
        p_g=st.floats(0.05, 0.6),
        p_e=st.floats(0.01, 0.35),
        r=st.floats(0.0, 1.0),
    )
    @settings(max_examples=200)
    def test_contraction_factor_is_one_minus_norm(self, p_g, p_e, r):
        vq = VirtualQubit(p_g=p_g, p_e=p_e, gap=1.0)
        moved = vq.r_v - swap_update(r, vq)
        assert moved == pytest.approx((1 - vq.norm) * (vq.r_v - r), abs=1e-13)


    @pytest.mark.parametrize("r", [math.nan, -0.1, 1.5])
    def test_population_outside_zero_to_one_rejected(self, r):
        with pytest.raises(DomainError, match="population"):
            swap_update(r, VirtualQubit(p_g=0.3, p_e=0.2, gap=1.0))


class TestNSwap:
    def test_zero_steps(self):
        vq = VirtualQubit(p_g=0.3, p_e=0.1, gap=1.0)
        assert n_swap_population(0.62, vq, 0) == pytest.approx(0.62, abs=1e-15)

    def test_one_step_matches_swap_update(self):
        vq = VirtualQubit(p_g=0.3, p_e=0.1, gap=1.0)
        assert n_swap_population(0.62, vq, 1) == pytest.approx(
            swap_update(0.62, vq), abs=1e-14
        )

    def test_iteration_matches_closed_form(self):
        vq = VirtualQubit(p_g=0.31, p_e=0.07, gap=1.0)
        r = 0.55
        for n in range(51):
            assert abs(n_swap_population(0.55, vq, n) - r) <= 1e-13
            r = swap_update(r, vq)

    def test_infinite_limit(self):
        vq = VirtualQubit(p_g=0.31, p_e=0.07, gap=1.0)
        assert n_swap_population(0.55, vq, math.inf) == vq.r_v

    @pytest.mark.parametrize("r0", [math.nan, -0.1, 1.5])
    def test_population_outside_zero_to_one_rejected(self, r0):
        with pytest.raises(DomainError, match="population"):
            n_swap_population(r0, VirtualQubit(p_g=0.3, p_e=0.2, gap=1.0), 2)

    @given(
        p_g=st.floats(0.05, 0.6),
        p_e=st.floats(0.01, 0.35),
        r0=st.floats(0.3, 0.95),
        n=st.integers(0, 50),
    )
    @settings(max_examples=150)
    def test_exact_geometric_distance(self, p_g, p_e, r0, n):
        vq = VirtualQubit(p_g=p_g, p_e=p_e, gap=1.0)
        gap = abs(n_swap_population(r0, vq, n) - vq.r_v)
        assert gap == pytest.approx(abs(r0 - vq.r_v) * (1 - vq.norm) ** n, abs=1e-13)


class TestWorkAndTemperature:
    # The asymptote law t_v * E / E_V is written once, in protocols; these tie
    # it to the virtual qubit that the repeated swaps act on.
    def test_coherent_asymptote(self):
        e, e_b, e_c, t = 1.0, 1.4, 0.4, 1.0
        state = _machine_state(e_b, e_c, t, t)
        vq = extract_virtual_qubit(state, 0, 3, e_b + e_c)
        t_inf = repeated_coherent(MachineSpec.two_qubit(e_c, t), INFINITE).t_final
        assert t_inf == pytest.approx(t * e / (e_b + e_c), rel=1e-13)
        assert t_inf == pytest.approx(vq.t_v * e / vq.gap, rel=1e-13)

    def test_incoherent_asymptote(self):
        e, e_b, e_c, t_r, t_h = 1.0, 1.4, 0.4, 1.0, 3.0
        state = _machine_state(e_b, e_c, t_r, t_h)
        vq = extract_virtual_qubit(state, 1, 2, e_b - e_c)
        t_auto = autonomous_steady_state(MachineSpec.two_qubit(e_c, t_r, t_h)).t_final
        assert t_auto == pytest.approx(e / (e_b / t_r - e_c / t_h), rel=1e-13)
        assert t_auto == pytest.approx(vq.t_v * e / vq.gap, rel=1e-13)

    def test_gibbs_ratio_consistency_with_population_inversion(self):
        # At a virtual gap equal to the target gap the n-swap asymptote r_v,
        # read as a target temperature, is the virtual temperature itself.
        from qfridge.thermal import temperature_from_population

        e = 1.0
        state = _machine_state(1.4, 0.4, 1.0, 5.0)
        vq = extract_virtual_qubit(state, 1, 2, 1.0)
        r_limit = n_swap_population(0.6, vq, INFINITE)
        assert temperature_from_population(e, r_limit) == pytest.approx(
            vq.t_v, rel=1e-12
        )
