import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfridge.majorization import (
    InfeasibleTargetError,
    TTransform,
    _slab_indices,
    apply_transforms,
    majorizes,
    solve_one_qubit,
    solve_two_qubit,
    vertex_oracle_min,
)
from qfridge.oracle import (
    apply_and_measure,
    build_thermal_state,
    partial_swap_unitary,
)
from qfridge.thermal import (
    DomainError,
    MachineSpec,
    hamiltonian_diagonal,
    thermal_populations,
)


def _one_qubit_inputs(e=1.0, e_b=1.4, t=1.0):
    spec = MachineSpec.one_qubit(e_b, t, e=e)
    rho = thermal_populations(spec.gaps, (t, t))
    return spec, rho, hamiltonian_diagonal(spec.gaps)


def _two_qubit_inputs(e_c=0.4, t=1.0, e=1.0):
    spec = MachineSpec.two_qubit(e_c, t, e=e)
    rho = thermal_populations(spec.gaps, (t, t, t))
    return spec, rho, hamiltonian_diagonal(spec.gaps)


class TestMajorizes:
    def test_uniform_is_majorized_by_anything(self):
        assert majorizes([1.0, 0.0], [0.5, 0.5])

    def test_partial_sum_violation(self):
        assert not majorizes([0.5, 0.5], [0.6, 0.4])

    def test_length_mismatch(self):
        with pytest.raises(DomainError):
            majorizes([1.0], [0.5, 0.5])

    @given(st.lists(st.floats(0.01, 1.0), min_size=2, max_size=6))
    @settings(max_examples=100)
    def test_permutation_symmetry(self, raw):
        v = np.array(raw) / np.sum(raw)
        rng = np.random.default_rng(0)
        w = rng.permutation(v)
        assert majorizes(v, w) and majorizes(w, v)

    @given(st.lists(st.floats(0.01, 1.0), min_size=2, max_size=6), st.floats(0, 1))
    @settings(max_examples=100)
    def test_t_transform_output_is_majorized(self, raw, t):
        v = np.array(raw) / np.sum(raw)
        mixed = TTransform(0, len(v) - 1, t).apply(v)
        assert majorizes(v, mixed)


class TestSolveOneQubit:
    def test_no_cooling_requested(self):
        _, rho, h = _one_qubit_inputs()
        r = rho[:2].sum()
        res = solve_one_qubit(rho, h, r)
        assert np.allclose(res.minimizer, rho, atol=1e-15)
        assert res.objective == pytest.approx(float(rho @ h), abs=1e-14)

    def test_full_swap_endpoint(self):
        _, rho, h = _one_qubit_inputs()
        r_b = rho[[0, 2]].sum()
        res = solve_one_qubit(rho, h, r_b)
        # middle pair fully exchanged
        assert res.minimizer[1] == pytest.approx(rho[2], abs=1e-15)
        assert res.minimizer[2] == pytest.approx(rho[1], abs=1e-15)

    def test_against_dense_partial_swap_simulation(self):
        # dense 4x4 simulation of exp(-i t L) at t = arcsin(sqrt(mu))
        spec, rho, h = _one_qubit_inputs()
        r = rho[:2].sum()
        r_b = rho[[0, 2]].sum()
        r_target = 0.77
        res = solve_one_qubit(rho, h, r_target)
        mu = (r_target - r) / (r_b - r)
        state = build_thermal_state(spec, (1.0, 1.0))
        r_dense, cost_dense, _ = apply_and_measure(state, partial_swap_unitary(4, 1, 2, mu), h)
        assert r_dense == pytest.approx(r_target, abs=1e-14)
        assert res.objective - float(rho @ h) == pytest.approx(cost_dense, abs=1e-14)
        assert res.objective - float(rho @ h) == pytest.approx(
            (0.77 - r) * 0.4, abs=1e-14
        )

    def test_cost_linearity(self):
        _, rho, h = _one_qubit_inputs()
        r = rho[:2].sum()
        r_b = rho[[0, 2]].sum()
        base = float(rho @ h)
        for r_target in np.linspace(r, r_b, 7):
            res = solve_one_qubit(rho, h, float(r_target))
            assert res.objective - base == pytest.approx(
                (r_target - r) * 0.4, abs=1e-13
            )

    def test_minimizer_majorized_and_rebuilt_from_transforms(self):
        _, rho, h = _one_qubit_inputs()
        r = rho[:2].sum()
        r_b = rho[[0, 2]].sum()
        for frac in (0.0, 0.3, 0.7, 1.0):
            r_target = float(r + frac * (r_b - r))
            res = solve_one_qubit(rho, h, r_target)
            assert majorizes(rho, res.minimizer)
            assert res.minimizer[:2].sum() == pytest.approx(r_target, abs=1e-12)
            rebuilt = apply_transforms(rho, res.transform_sequence)
            assert np.allclose(rebuilt, res.minimizer, atol=1e-12)

    def test_infeasible_target(self):
        _, rho, h = _one_qubit_inputs()
        with pytest.raises(InfeasibleTargetError):
            solve_one_qubit(rho, h, 0.99)


class TestSolveTwoQubit:
    def test_zero_cooling_costs_nothing(self):
        _, rho, h = _two_qubit_inputs()
        r = rho[:4].sum()
        res = solve_two_qubit(rho, h, r)
        assert res.objective - float(rho @ h) == pytest.approx(0.0, abs=1e-14)

    def test_small_ec_full_swap_cost(self):
        _, rho, h = _two_qubit_inputs(e_c=0.4)
        r = rho[:4].sum()
        r_b = rho[[0, 1, 4, 5]].sum()
        res = solve_two_qubit(rho, h, r_b)
        assert res.objective - float(rho @ h) == pytest.approx(
            0.4 * (r_b - r), abs=1e-13
        )

    def test_large_ec_half_point_cost(self):
        # full A<->C swap: Delta F = (E_C - E)(r_C - r) at mu = 1/2
        _, rho, h = _two_qubit_inputs(e_c=1.7)
        r = rho[:4].sum()
        r_c = rho[[0, 2, 4, 6]].sum()
        res = solve_two_qubit(rho, h, r_c)
        assert res.objective - float(rho @ h) == pytest.approx(
            (1.7 - 1.0) * (r_c - r), abs=1e-13
        )

    def test_large_ec_endpoint_cost(self):
        _, rho, h = _two_qubit_inputs(e_c=1.7)
        r = rho[:4].sum()
        r_b = rho[[0, 1, 4, 5]].sum()
        r_c = rho[[0, 2, 4, 6]].sum()
        res = solve_two_qubit(rho, h, r_b)
        expected = (1.7 - 1.0) * (r_c - r) + 1.7 * (r_b - r_c)
        assert res.objective - float(rho @ h) == pytest.approx(expected, abs=1e-13)

    def test_branch_is_read_off_the_gaps(self):
        # e_c == e takes the B-only transforms; any e_c > e swaps with C first.
        pairs = {}
        for e_c in (1.0, 1.0 + 1e-9):
            _, rho, h = _two_qubit_inputs(e_c=e_c)
            r, r_b = rho[:4].sum(), rho[[0, 1, 4, 5]].sum()
            res = solve_two_qubit(rho, h, float(0.5 * (r + r_b)))
            pairs[e_c] = [(tr.i, tr.j) for tr in res.transform_sequence]
        assert pairs[1.0] == [(2, 4), (3, 5)]
        assert pairs[1.0 + 1e-9] == [(1, 4), (3, 6), (2, 4), (3, 5)]

    def test_infeasible_target_rejected(self):
        _, rho, h = _two_qubit_inputs(e_c=0.4)
        with pytest.raises(InfeasibleTargetError):
            solve_two_qubit(rho, h, 0.95)

    def test_against_dense_full_swap(self):
        spec, rho, h = _two_qubit_inputs(e_c=0.4)
        r_b = rho[[0, 1, 4, 5]].sum()
        res = solve_two_qubit(rho, h, r_b)
        state = build_thermal_state(spec, (1.0,) * 3)
        swap_ab = partial_swap_unitary(8, 2, 4, 1.0).matrix @ partial_swap_unitary(
            8, 3, 5, 1.0
        ).matrix
        from qfridge.oracle import UnitaryOp

        r_dense, cost_dense, _ = apply_and_measure(state, UnitaryOp(swap_ab), h)
        assert r_dense == pytest.approx(r_b, abs=1e-14)
        assert res.objective - float(rho @ h) == pytest.approx(cost_dense, abs=1e-14)

    @pytest.mark.parametrize("e_c", [0.3, 0.9, 1.0, 1.3, 2.5])
    def test_transform_sequence_reproduces_minimizer(self, e_c):
        _, rho, h = _two_qubit_inputs(e_c=e_c)
        r = rho[:4].sum()
        r_b = rho[[0, 1, 4, 5]].sum()
        for frac in (0.0, 0.2, 0.5, 0.8, 1.0):
            r_target = r + frac * (r_b - r)
            res = solve_two_qubit(rho, h, r_target)
            rebuilt = apply_transforms(rho, res.transform_sequence)
            assert np.allclose(rebuilt, res.minimizer, atol=1e-12)
            assert majorizes(rho, res.minimizer)
            assert res.minimizer[:4].sum() == pytest.approx(r_target, abs=1e-12)

    def test_cost_convex_piecewise_linear_single_kink(self):
        # EC_GT_E: two linear branches with gradients (E_C - E) and E_C per
        # unit population, meeting in a single kink at r_target = r_C.
        e_c = 1.7
        _, rho, h = _two_qubit_inputs(e_c=e_c)
        base = float(rho @ h)
        r = rho[:4].sum()
        r_b = rho[[0, 1, 4, 5]].sum()
        grid = np.linspace(r, r_b, 41)
        costs = [
            solve_two_qubit(rho, h, float(x)).objective - base
            for x in grid
        ]
        slopes = np.diff(costs) / np.diff(grid)
        assert np.all(np.diff(costs) >= -1e-12)  # monotone
        assert np.all(slopes[1:] >= slopes[:-1] - 1e-9)  # convex
        assert slopes[0] == pytest.approx(e_c - 1.0, rel=1e-9)
        assert slopes[-1] == pytest.approx(e_c, rel=1e-9)
        # at most one grid interval straddles the kink; all others sit on one
        # of the two analytic gradients
        interior = [
            s
            for s in slopes
            if abs(s - (e_c - 1.0)) > 1e-9 and abs(s - e_c) > 1e-9
        ]
        assert len(interior) <= 1


class TestVertexOracle:
    def test_dimension_two_closed_form(self):
        rho = np.array([0.7, 0.3])
        h = np.array([0.0, 1.0])
        # ground sum fixed at x0 = 0.6: objective = 1 - 0.6
        assert vertex_oracle_min(rho, h, 1, 0.6) == pytest.approx(0.4, abs=1e-14)

    def test_matches_one_qubit_solver_on_grid(self):
        _, rho, h = _one_qubit_inputs()
        r = rho[:2].sum()
        r_b = rho[[0, 2]].sum()
        for r_target in np.linspace(r, r_b, 20):
            analytic = solve_one_qubit(rho, h, float(r_target)).objective
            reference = vertex_oracle_min(rho, h, 2, float(r_target))
            assert analytic == pytest.approx(reference, abs=1e-10)

    @pytest.mark.parametrize("e_c", [0.4, 1.7])
    def test_matches_two_qubit_solver_on_grid(self, e_c):
        _, rho, h = _two_qubit_inputs(e_c=e_c)
        r = rho[:4].sum()
        r_b = rho[[0, 1, 4, 5]].sum()
        for r_target in np.linspace(r, r_b, 20):
            analytic = solve_two_qubit(rho, h, float(r_target)).objective
            reference = vertex_oracle_min(rho, h, 4, float(r_target))
            assert analytic == pytest.approx(reference, abs=1e-10)

    def test_infeasible_constraint(self):
        rho = np.array([0.7, 0.2, 0.07, 0.03])
        h = np.array([0.0, 1.0, 2.0, 3.0])
        with pytest.raises(InfeasibleTargetError):
            vertex_oracle_min(rho, h, 2, 0.999)

    def test_dimension_cap(self):
        rho = np.full(16, 1 / 16)
        with pytest.raises(DomainError):
            vertex_oracle_min(rho, np.arange(16.0), 8, 0.5)


@given(
    e_c=st.floats(0.05, 3.0),
    t=st.floats(0.3, 4.0),
    frac=st.floats(0.0, 1.0),
)
@settings(max_examples=60)
def test_solver_never_beaten_by_oracle(e_c, t, frac):
    spec = MachineSpec.two_qubit(e_c, t)
    rho = thermal_populations(spec.gaps, (t, t, t))
    h = hamiltonian_diagonal(spec.gaps)
    r = rho[:4].sum()
    r_b = rho[[0, 1, 4, 5]].sum()
    r_target = float(r + frac * (r_b - r))
    analytic = solve_two_qubit(rho, h, r_target).objective
    reference = vertex_oracle_min(rho, h, 4, r_target)
    assert analytic <= reference + 1e-10
    assert abs(analytic - reference) <= 1e-10


_ALL_PERMUTATIONS = {
    n: np.array(list(itertools.permutations(range(n))), dtype=np.int8) for n in (4, 8)
}


def _lexsort_vertex_oracle_min(rho, h, k, r_target):
    # The vertex oracle as it was before its blocks were reduced: every one of
    # the n! vertices goes through the coalescing lexsort and the hull.
    perms = rho[_ALL_PERMUTATIONS[rho.size]]
    return _reference_envelope_at(perms[:, :k].sum(axis=1), perms @ h, r_target)


def _one_table_vertex_oracle_min(rho, h, k, r_target):
    # The vertex oracle as it was before it built its vertices a slab at a
    # time: one gather of all n! vertices, reduced block by block.
    block = math.factorial(rho.size - k)
    perms = rho[_ALL_PERMUTATIONS[rho.size].astype(np.intp)]
    obj = (perms @ h).reshape(-1, block).min(axis=1)
    return _reference_envelope_at(perms[::block, :k].sum(axis=1), obj, r_target)


def _reference_envelope_at(f, obj, x):
    # The lower envelope of the points (f, obj) at x, with the hull walked on
    # numpy scalars as it first was.
    order = np.lexsort((obj, f))
    f_sorted, obj_sorted = f[order], obj[order]
    starts = np.concatenate(([True], np.diff(f_sorted) > 1e-12))
    f_sorted = f_sorted[starts]
    obj_sorted = np.minimum.reduceat(obj_sorted, np.nonzero(starts)[0])
    hull = []
    for px, py in zip(f_sorted, obj_sorted):
        while len(hull) >= 2:
            (ax, ay), (bx, by) = hull[-2], hull[-1]
            if (bx - ax) * (py - ay) - (by - ay) * (px - ax) <= 0.0:
                hull.pop()
            else:
                break
        hull.append((float(px), float(py)))
    xs = np.array([p[0] for p in hull])
    ys = np.array([p[1] for p in hull])
    x = min(max(x, xs[0]), xs[-1])
    pos = int(np.searchsorted(xs, x))
    if pos < xs.size and xs[pos] == x:
        return float(ys[pos])
    lam = (xs[pos] - x) / (xs[pos] - xs[pos - 1])
    return float(lam * ys[pos - 1] + (1.0 - lam) * ys[pos])


def _reachable_target(rho, k, frac):
    ordered = np.sort(rho)
    lo, hi = float(ordered[:k].sum()), float(ordered[-k:].sum())
    return lo + frac * (hi - lo)


class TestVertexOracleBlockReduction:
    """The per-block minimum gives what the full vertex enumeration gave."""

    def test_every_k_on_resonant_thermal_states(self):
        # |010> and |101> are degenerate, so their thermal populations repeat
        # up to rounding: the clusters the envelope has to coalesce.
        for e_c, t in ((0.4, 1.0), (1.7, 0.6), (1e-3, 2.0)):
            spec = MachineSpec.two_qubit(e_c, t)
            rho = thermal_populations(spec.gaps, (t, t, t))
            h = hamiltonian_diagonal(spec.gaps)
            for k in range(1, 8):
                for frac in (0.0, 0.3, 0.5, 1.0):
                    r_target = _reachable_target(rho, k, frac)
                    new = vertex_oracle_min(rho, h, k, r_target)
                    old = _lexsort_vertex_oracle_min(rho, h, k, r_target)
                    assert abs(new - old) <= 1e-15

    @given(
        data=st.data(),
        dim=st.sampled_from([4, 8]),
        thermal=st.booleans(),
        e_c=st.floats(1e-3, 3.0),
        t=st.floats(0.2, 5.0),
        raw=st.lists(st.floats(0.01, 1.0), min_size=8, max_size=8),
        h_raw=st.lists(st.floats(0.0, 3.0), min_size=8, max_size=8),
        frac=st.floats(0.0, 1.0),
    )
    @settings(max_examples=60)
    def test_matches_full_enumeration(self, data, dim, thermal, e_c, t, raw, h_raw, frac):
        k = data.draw(st.integers(1, dim - 1), label="k")
        if thermal:
            gaps = (1.0, 1.0 + e_c, e_c)[: dim.bit_length() - 1]
            rho = thermal_populations(gaps, (t,) * len(gaps))
            h = hamiltonian_diagonal(gaps)
        else:
            rho = np.array(raw[:dim]) / np.sum(raw[:dim])
            h = np.array(h_raw[:dim])
        r_target = _reachable_target(rho, k, frac)
        new = vertex_oracle_min(rho, h, k, r_target)
        old = _lexsort_vertex_oracle_min(rho, h, k, r_target)
        assert abs(new - old) <= 1e-15


class TestVertexOracleSlabs:
    """Built one slab at a time, the oracle gives the one-table result bit for bit."""

    @pytest.mark.parametrize("n", [4, 8])
    def test_same_bits_as_the_one_table_form(self, n):
        rng = np.random.default_rng(20261019)
        for case in range(24):
            if case % 2:
                raw = rng.uniform(0.01, 1.0, n)
                rho, h = raw / raw.sum(), rng.uniform(0.0, 3.0, n)
            else:
                # The verify suite's instances: thermal one- and two-qubit machines.
                t = float(rng.uniform(0.2, 5.0))
                spec = MachineSpec.two_qubit(float(rng.uniform(0.05, 5.0)), t)
                if n == 4:
                    spec = MachineSpec.one_qubit(spec.e_b, t, e=spec.e)
                rho = thermal_populations(spec.gaps, (t,) * spec.n_qubits)
                h = hamiltonian_diagonal(spec.gaps)
            for k in range(1, n):
                r_target = _reachable_target(rho, k, float(rng.uniform()))
                new = vertex_oracle_min(rho, h, k, r_target)
                assert new == _one_table_vertex_oracle_min(rho, h, k, r_target)

    def test_dimension_eight_never_holds_all_vertices(self):
        # All 8! vertices as floats are 2.6 MB, and their intp index table
        # as much again; one slab of 7! is an eighth of either.
        _, rho, h = _two_qubit_inputs()
        r_target = _reachable_target(rho, 4, 0.5)
        _slab_indices.cache_clear()
        tracemalloc.start()
        try:
            vertex_oracle_min(rho, h, 4, r_target)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5e6


@pytest.mark.parametrize("n", range(2, 9))
def test_permutation_table_is_itertools_order_and_read_only(n):
    # The slab table is the first (n-1)! rows of the lexicographic enumeration.
    table = _slab_indices(n)
    assert table.dtype == np.intp and not table.flags.writeable
    first_slab = itertools.islice(itertools.permutations(range(n)), math.factorial(n - 1))
    assert table.tolist() == [list(p) for p in first_slab]


def test_every_public_name_resolves_from_the_package():
    # The solver's names are resolved on first access, because they load
    # numpy; the package root still hands out the objects the modules define.
    import qfridge
    from qfridge import majorization, thermal

    resolved = {name: getattr(qfridge, name) for name in qfridge.__all__}
    assert resolved["solve_two_qubit"] is majorization.solve_two_qubit
    assert resolved["InfeasibleTargetError"] is majorization.InfeasibleTargetError
    assert majorization.InfeasibleTargetError is thermal.InfeasibleTargetError
    with pytest.raises(AttributeError):
        qfridge.no_such_name
