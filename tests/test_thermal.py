import decimal
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import decimal_reference
from qfridge import thermal
from qfridge.thermal import (
    DomainError,
    INFINITE,
    MachineSpec,
    NegativeTemperatureError,
    QubitSpec,
    binary_entropy,
    boltzmann_population,
    excited_population,
    hamiltonian_diagonal,
    relative_entropy,
    resource_free_energy,
    temperature_from_population,
    thermal_populations,
)


class TestBoltzmannPopulation:
    def test_zero_gap_gives_equal_populations(self):
        assert boltzmann_population(0.0, 1.0) == 0.5

    def test_infinite_temperature_is_exact_half(self):
        assert boltzmann_population(0.4, INFINITE) == 0.5

    def test_unit_gap_unit_temperature(self):
        # 1/(1 + e^-1) evaluated with extended precision
        assert boltzmann_population(1.0, 1.0) == pytest.approx(
            0.7310585786300049, abs=1e-15
        )

    def test_rejects_nonpositive_temperature(self):
        with pytest.raises(DomainError):
            boltzmann_population(1.0, 0.0)
        with pytest.raises(DomainError):
            boltzmann_population(1.0, -2.0)

    def test_rejects_negative_gap(self):
        with pytest.raises(DomainError):
            boltzmann_population(-1.0, 1.0)

    def test_rejects_infinite_gap(self):
        # exp(-inf/inf) would make the population NaN.
        with pytest.raises(DomainError, match="gap must be finite"):
            boltzmann_population(INFINITE, INFINITE)

    # Strict monotonicity is tested on the band where the population has not
    # saturated to 1.0 in double precision (gap/temp below ~36).

    @given(
        temp=st.floats(1e-3, 1e3),
        ratio=st.floats(1e-4, 3.0),
        factor=st.floats(1.01, 10.0),
    )
    @settings(max_examples=150)
    def test_strictly_monotone_in_gap(self, temp, ratio, factor):
        gap = ratio * temp
        assert boltzmann_population(gap * factor, temp) > boltzmann_population(gap, temp)

    @given(
        temp=st.floats(1e-2, 1e2),
        ratio=st.floats(1e-3, 30.0),
        factor=st.floats(1.01, 10.0),
    )
    @settings(max_examples=150)
    def test_strictly_monotone_in_temperature(self, temp, ratio, factor):
        gap = ratio * temp
        assert boltzmann_population(gap, temp * factor) < boltzmann_population(gap, temp)

    @given(temp=st.floats(1e-3, 1e3), ratio=st.floats(1e-4, 30.0))
    @settings(max_examples=200)
    def test_thermal_population_above_half_for_positive_gap(self, temp, ratio):
        assert boltzmann_population(ratio * temp, temp) > 0.5


def _log_uniform(low, high):
    return st.floats(math.log10(low), math.log10(high)).map(lambda x: 10.0**x)


def _ulps_from_reference(gap, temp):
    got = excited_population(gap, temp)
    want = decimal_reference.excited_population(gap, temp)
    return abs(decimal.Decimal(got) - want) / decimal.Decimal(math.ulp(float(want)))


class TestExcitedPopulation:
    # Temperatures are powers of two, so gap/temp is exact; otherwise its
    # rounding alone moves the population by up to gap/temp half-ulps.
    @given(ratio=_log_uniform(1e-12, 700.0), scale=st.integers(-10, 10))
    @settings(max_examples=300)
    def test_within_four_ulps_of_the_decimal_reference(self, ratio, scale):
        temp = 2.0**scale
        assert _ulps_from_reference(ratio * temp, temp) <= 4

    def test_within_four_ulps_across_the_branch_at_forty(self):
        ratios = [math.nextafter(40.0, 0.0), 40.0, math.nextafter(40.0, 100.0)]
        ratios += [float(x) for x in np.geomspace(1e-12, 700.0, 400)]
        assert max(_ulps_from_reference(ratio, 1.0) for ratio in ratios) <= 4

    def test_infinite_temperature_is_exact_half(self):
        assert excited_population(0.4, INFINITE) == 0.5
        assert excited_population(0.0, 1.0) == 0.5

    @pytest.mark.parametrize(
        "gap, temp", [(746.0, 1.0), (1e3, 1.0), (1.0, 1e-300), (1e308, 1e-10)]
    )
    def test_past_the_smallest_double_is_exact_zero(self, gap, temp):
        # 1/(1 + exp(gap/temp)) raises OverflowError here.
        assert excited_population(gap, temp) == 0.0

    def test_rejects_what_the_ground_population_rejects(self):
        for gap, temp in [(1.0, 0.0), (-1.0, 1.0), (INFINITE, INFINITE)]:
            with pytest.raises(DomainError):
                excited_population(gap, temp)

    @given(ratio=st.floats(0.0, 800.0), temp=_log_uniform(1e-3, 1e3), factor=st.floats(1.0, 10.0))
    @settings(max_examples=300)
    def test_monotone_in_gap_to_the_ulp(self, ratio, temp, factor):
        gap = ratio * temp
        gaps = [gap, math.nextafter(gap, INFINITE), gap * factor]
        populations = [excited_population(g, temp) for g in sorted(gaps)]
        assert populations == sorted(populations, reverse=True)

    @given(ratio=st.floats(0.0, 800.0), temp=_log_uniform(1e-3, 1e3), factor=st.floats(1.0, 10.0))
    @settings(max_examples=300)
    def test_monotone_in_temperature_to_the_ulp(self, ratio, temp, factor):
        gap = ratio * temp
        temps = [temp, math.nextafter(temp, INFINITE), temp * factor]
        populations = [excited_population(gap, t) for t in sorted(temps)]
        assert populations == sorted(populations)

    def test_monotone_across_the_branch_at_forty(self):
        x = 40.0
        for _ in range(8):
            x = math.nextafter(x, 0.0)
        ratios = [x]
        for _ in range(16):
            ratios.append(math.nextafter(ratios[-1], INFINITE))
        populations = [excited_population(r, 1.0) for r in ratios]
        assert populations == sorted(populations, reverse=True)


class TestTemperatureFromPopulation:
    def test_roundtrip_identity(self):
        r = boltzmann_population(1.0, 0.7)
        assert temperature_from_population(1.0, r) == pytest.approx(0.7, rel=1e-14)

    def test_half_population_is_infinite(self):
        assert temperature_from_population(1.0, 0.5) == INFINITE

    def test_closed_form_value(self):
        # 1/ln(4) evaluated with extended precision
        assert temperature_from_population(1.0, 0.8) == pytest.approx(
            0.7213475204444817, abs=1e-15
        )

    def test_below_half_is_flagged(self):
        with pytest.raises(NegativeTemperatureError):
            temperature_from_population(1.0, 0.3)

    def test_rejects_bad_inputs(self):
        with pytest.raises(DomainError):
            temperature_from_population(0.0, 0.7)
        with pytest.raises(DomainError):
            temperature_from_population(1.0, 1.0)

    def test_rejects_infinite_gap(self):
        with pytest.raises(DomainError, match="gap must be finite"):
            temperature_from_population(INFINITE, 0.7)

    @given(temp=st.floats(1e-3, 1e3), ratio=st.floats(2e-3, 30.0))
    @settings(max_examples=300)
    def test_mutual_inverse_property(self, temp, ratio):
        # Tolerance 1e-12 relative, with the double-precision information
        # floor added: a float population resolves the temperature only to
        # ~ulp / (x r (1-r)) with x = gap/temp (flat near r = 1/2, blowing up
        # exponentially as r saturates toward 1).
        gap = ratio * temp
        r = boltzmann_population(gap, temp)
        recovered = temperature_from_population(gap, r)
        tol = max(1e-12, 8.0 * 2.220446049250313e-16 / (ratio * r * (1.0 - r)))
        assert abs(recovered - temp) <= tol * temp
        again = boltzmann_population(gap, recovered)
        assert abs(again - r) <= 1e-12


class TestResourceFreeEnergy:
    def test_equilibrium_resource_is_free(self):
        assert resource_free_energy(0.37, 1.0, 1.0) == 0.0

    def test_infinite_room_and_hot_bath_is_free(self):
        # 1 - inf/inf would be NaN; equal temperatures carry no free energy
        assert resource_free_energy(0.0, INFINITE, INFINITE) == 0.0
        assert resource_free_energy(0.37, INFINITE, INFINITE) == 0.0

    def test_infinite_hot_bath_gives_heat_itself(self):
        assert resource_free_energy(0.2, INFINITE, 1.0) == 0.2

    def test_direct_evaluation(self):
        assert resource_free_energy(0.2, 2.0, 1.0) == pytest.approx(0.1, abs=1e-15)

    def test_rejects_inverted_temperatures(self):
        with pytest.raises(DomainError):
            resource_free_energy(0.2, 0.5, 1.0)

    @pytest.mark.parametrize("heat", [math.nan, INFINITE, -INFINITE])
    def test_rejects_non_finite_heat(self, heat):
        with pytest.raises(DomainError, match="heat"):
            resource_free_energy(heat, 2.0, 1.0)

    @pytest.mark.parametrize("excess", [1e-2, 1e-8, 1e-12])
    @pytest.mark.parametrize("t_room", [0.05, 1.0, 7.3])
    def test_within_four_ulp_near_the_reversible_limit(self, excess, t_room):
        # T_H / T_R - 1 = excess; the reference is the exact value for the
        # float inputs, worked out in 50-digit decimal arithmetic.
        t_hot = t_room * (1.0 + excess)
        heat = 0.37
        with decimal.localcontext() as ctx:
            ctx.prec = 50
            d_hot = decimal.Decimal(t_hot)
            exact = decimal.Decimal(heat) * (d_hot - decimal.Decimal(t_room)) / d_hot
            error = abs(decimal.Decimal(resource_free_energy(heat, t_hot, t_room)) - exact)
            assert error <= 4 * decimal.Decimal(math.ulp(float(exact)))

    @given(
        heat=st.floats(1e-6, 10.0),
        t_room=st.floats(0.1, 10.0),
        excess=st.floats(1e-3, 50.0),
    )
    @settings(max_examples=150)
    def test_bounded_by_heat_unless_infinite(self, heat, t_room, excess):
        value = resource_free_energy(heat, t_room + excess, t_room)
        assert value < heat
        assert resource_free_energy(heat, INFINITE, t_room) == heat


class TestSpecs:
    def test_two_qubit_derives_resonant_gap(self):
        spec = MachineSpec.two_qubit(0.4, 1.0, 2.0)
        assert spec.e_b == spec.e + spec.e_c
        assert spec.is_resonant()

    def test_hot_bath_below_room_rejected(self):
        with pytest.raises(DomainError):
            MachineSpec.two_qubit(0.4, 1.0, 0.5)

    def test_negative_gap_rejected(self):
        with pytest.raises(DomainError):
            QubitSpec(-0.1)

    @pytest.mark.parametrize(
        "build,name",
        [
            (lambda: QubitSpec(INFINITE), "qubit gap"),
            (lambda: MachineSpec.two_qubit(0.4, 1.0, e=INFINITE), "target gap"),
            (lambda: MachineSpec.two_qubit(INFINITE, 1.0), "machine gap e_c"),
            (lambda: MachineSpec.one_qubit(1.4, 1.0, e=INFINITE), "target gap"),
            (lambda: MachineSpec.one_qubit(INFINITE, 1.0), "machine gap e_b"),
        ],
    )
    def test_infinite_gap_rejected_by_name(self, build, name):
        with pytest.raises(DomainError, match=f"{name} must be finite"):
            build()

    def test_one_qubit_target_gap_is_keyword_only(self):
        # A third positional argument was once t_hot; it must not become e.
        with pytest.raises(TypeError):
            MachineSpec.one_qubit(1.4, 1.0, 2.0)
        assert MachineSpec.one_qubit(1.4, 1.0, e=0.5).e == 0.5

    def test_infinite_room_temperature_allowed(self):
        spec = MachineSpec.two_qubit(0.4, INFINITE, INFINITE)
        assert boltzmann_population(spec.e, spec.t_room) == 0.5


class TestProductConstruction:
    def test_three_qubit_populations_factorize(self):
        spec = MachineSpec.two_qubit(0.4, 1.0)
        pops = thermal_populations(spec.gaps, (1.0, 1.0, 1.0))
        r = boltzmann_population(1.0, 1.0)
        r_b = boltzmann_population(1.4, 1.0)
        r_c = boltzmann_population(0.4, 1.0)
        assert pops[0] == pytest.approx(r * r_b * r_c, abs=1e-16)
        assert pops[5] == pytest.approx((1 - r) * r_b * (1 - r_c), abs=1e-16)
        assert pops.sum() == pytest.approx(1.0, abs=1e-14)

    def test_hamiltonian_indexing(self):
        h = hamiltonian_diagonal((1.0, 1.4, 0.4))
        assert np.allclose(h, [0.0, 0.4, 1.4, 1.8, 1.0, 1.4, 2.4, 2.8])

    def test_length_mismatch_rejected(self):
        with pytest.raises(DomainError):
            thermal_populations((1.0, 2.0), (1.0,))


def test_binary_entropy_endpoints_and_symmetry():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.3) == pytest.approx(binary_entropy(0.7), abs=1e-15)
    assert binary_entropy(0.5) == pytest.approx(math.log(2.0), abs=1e-15)


class TestRelativeEntropy:
    def test_gauss_legendre_constants_are_numpys_nodes(self):
        nodes, weights = np.polynomial.legendre.leggauss(10)
        expected = [v for n, w in zip(nodes, weights) if n > 0 for v in (n, w)]
        got = [v for pair in thermal._GAUSS_LEGENDRE_10 for v in pair]
        assert got == pytest.approx(expected, rel=1e-15, abs=0.0)

    # Temperatures are powers of two, so gap/temp is exact; gap/ref_temp is
    # rounded once, which alone costs up to (gap/ref_temp) 2^-53 relative.
    @given(
        ratio=_log_uniform(1e-12, 700.0),
        scale=st.integers(-10, 10),
        factor=st.one_of(
            _log_uniform(1e-15, 1.0).map(lambda f: 1.0 + f),
            _log_uniform(1e-15, 0.5).map(lambda f: 1.0 - f),
            _log_uniform(1e-3, 1e3),
        ),
    )
    @settings(max_examples=400)
    def test_within_1e_12_of_the_decimal_reference(self, ratio, scale, factor):
        temp = 2.0**scale
        ref_temp = temp * factor
        got = relative_entropy(ratio * temp, temp, ref_temp)
        want = decimal_reference.relative_entropy(ratio * temp, temp, ref_temp)
        assert got >= 0.0
        assert got == pytest.approx(float(want), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("temp, ref_temp", [(INFINITE, 0.7), (0.7, INFINITE), (2.0, 2.0)])
    def test_infinite_and_equal_temperatures(self, temp, ref_temp):
        want = decimal_reference.relative_entropy(1.3, temp, ref_temp)
        assert relative_entropy(1.3, temp, ref_temp) == pytest.approx(float(want), rel=1e-14, abs=0.0)

    def test_equal_temperatures_give_exactly_zero(self):
        assert relative_entropy(1.3, 0.7, 0.7) == 0.0
        assert relative_entropy(1.3, INFINITE, INFINITE) == 0.0

    @pytest.mark.parametrize(
        "gap, temp, ref_temp", [(-1.0, 1.0, 1.0), (INFINITE, 1.0, 2.0), (1.0, 0.0, 1.0), (1.0, 1.0, -2.0)]
    )
    def test_outside_the_domain_rejected(self, gap, temp, ref_temp):
        with pytest.raises(DomainError):
            relative_entropy(gap, temp, ref_temp)
