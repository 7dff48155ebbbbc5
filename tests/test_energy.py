import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zvortex.energy import (
    BelowLadderError,
    EnergyLadder,
    delta_k,
    energy_of_potential,
    k_jump_trace,
    level_index,
    potential_of_energy,
    quantized_k,
    quantized_solution,
    unit_step,
)
from zvortex.schrodinger_field import PhysicalParams
from zvortex.vortex import Branch, k_from_potential
from zvortex.wavecore import DomainError

NAT = PhysicalParams()

ladders = st.lists(
    st.floats(min_value=0.01, max_value=100.0), min_size=1, max_size=8,
    unique=True,
).map(lambda xs: EnergyLadder(tuple(sorted(xs))))


def brute_force_index(ladder, E):
    count = sum(1 for e in ladder.eigenvalues if E - e >= 0)
    return count - 1 if count else None


class TestLadderType:
    def test_must_increase(self):
        with pytest.raises(DomainError):
            EnergyLadder((1.0, 1.0))
        with pytest.raises(DomainError):
            EnergyLadder((3.0, 1.0))
        with pytest.raises(DomainError):
            EnergyLadder(())

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(DomainError, match="finite"):
            EnergyLadder((1.0, bad))

    def test_non_finite_message_names_the_first_only(self):
        ev = [float(i) for i in range(100_000)]
        ev[54_321] = ev[60_000] = math.nan
        with pytest.raises(DomainError) as info:
            EnergyLadder(tuple(ev))
        assert str(info.value) == "eigenvalues must be finite, got nan at index 54321"


class TestEnergyRelation:
    def test_zero(self):
        assert energy_of_potential(0.0) == 0.0

    def test_cross_identity(self):
        # E = 12/5 U_f must equal 6 k^2 hbar^2 / m
        for u_f in (2.5, 5.0, 0.7):
            E = energy_of_potential(u_f)
            k = k_from_potential(u_f, NAT)
            assert E == pytest.approx(6.0 * k * k, rel=1e-12)
        assert energy_of_potential(2.5) == pytest.approx(6.0)
        assert energy_of_potential(5.0) == pytest.approx(12.0)


    @pytest.mark.parametrize("u_f", [-1.0, -1e-300, math.nan])
    def test_negative_potential_rejected(self, u_f):
        with pytest.raises(DomainError, match="potential must be non-negative"):
            energy_of_potential(u_f)


class TestLevelIndex:
    def test_examples(self):
        lad = EnergyLadder((1.0, 3.0, 7.0))
        assert level_index(lad, 5.0) == 1
        assert level_index(lad, 1.0) == 0  # lambda(0) = 1
        assert level_index(lad, 100.0) == 2

    def test_below_ladder(self):
        with pytest.raises(BelowLadderError):
            level_index(EnergyLadder((1.0, 3.0)), 0.5)

    @given(ladder=ladders, E=st.floats(min_value=0.0, max_value=200.0))
    @settings(max_examples=100)
    def test_matches_brute_force(self, ladder, E):
        expect = brute_force_index(ladder, E)
        if expect is None:
            with pytest.raises(BelowLadderError):
                level_index(ladder, E)
        else:
            assert level_index(ladder, E) == expect

    @given(data=st.data(), ladder=ladders)
    @settings(max_examples=300)
    def test_bisection_matches_step_sum(self, data, ladder):
        # Exact eigenvalue hits, their neighbouring floats, NaN and the
        # infinities, besides arbitrary E.
        e_i = data.draw(st.sampled_from(ladder.eigenvalues))
        E = data.draw(st.one_of(
            st.just(e_i), st.just(math.nextafter(e_i, -math.inf)),
            st.just(math.nextafter(e_i, math.inf)),
            st.sampled_from([math.nan, math.inf, -math.inf]),
            st.floats(min_value=-10.0, max_value=200.0)))
        expect = brute_force_index(ladder, E)
        if expect is None:
            with pytest.raises(BelowLadderError):
                level_index(ladder, E)
        else:
            assert level_index(ladder, E) == expect

    def test_nan_is_below_ladder(self):
        with pytest.raises(BelowLadderError):
            level_index(EnergyLadder((1.0, 3.0)), math.nan)

    def test_step_convention(self):
        assert unit_step(0.0) == 1.0
        assert unit_step(-1e-300) == 0.0


class TestPotentialOfEnergy:
    def test_examples(self):
        lad = EnergyLadder((1.0, 3.0, 7.0))
        assert potential_of_energy(lad, 5.0) == pytest.approx(1.25, rel=1e-15)
        assert potential_of_energy(lad, 1.0) == pytest.approx(5.0 / 12.0,
                                                              rel=1e-15)
        assert potential_of_energy(EnergyLadder((2.0,)), 10.0) == pytest.approx(
            5.0 / 6.0, rel=1e-15)

    @given(ladder=ladders, E=st.floats(min_value=0.01, max_value=200.0))
    @settings(max_examples=200)
    def test_literal_sum_telescopes(self, ladder, E):
        if E < ladder.eigenvalues[0]:
            return
        j = level_index(ladder, E)
        assert potential_of_energy(ladder, E) == pytest.approx(
            5.0 / 12.0 * ladder.eigenvalues[j], rel=1e-12)

    def test_round_trip_recovers_eigenvalue(self):
        lad = EnergyLadder((1.0, 3.0, 7.0))
        for E in (1.0, 2.9, 5.0, 50.0):
            j = level_index(lad, E)
            back = energy_of_potential(potential_of_energy(lad, E))
            assert back == pytest.approx(lad.eigenvalues[j], rel=1e-14)


class TestQuantizedSolution:
    def test_unit_case(self):
        sol = quantized_solution(EnergyLadder((6.0,)), 6.0, Branch.ONE_VORTEX, NAT)
        assert sol.k == pytest.approx(1.0, rel=1e-15)

    def test_midladder(self):
        sol = quantized_solution(EnergyLadder((1.0, 3.0, 7.0)), 5.0,
                                 Branch.ONE_VORTEX, NAT)
        assert sol.k == pytest.approx(math.sqrt(0.5), rel=1e-12)

    @given(ladder=ladders, E=st.floats(min_value=0.01, max_value=200.0))
    @settings(max_examples=100)
    def test_two_routes_agree(self, ladder, E):
        if E < ladder.eigenvalues[0]:
            return
        e_j = ladder.eigenvalues[level_index(ladder, E)]
        via_potential = quantized_k(ladder, E, NAT)
        via_eigenvalue = math.sqrt(NAT.mass * e_j / (6.0 * NAT.hbar ** 2))
        assert via_potential == pytest.approx(via_eigenvalue, rel=1e-12)

    def test_negative_potential_is_domain_error(self):
        # E_0 < 0 gives U(E) < 0, for which k has no real value.
        with pytest.raises(DomainError, match="non-negative"):
            quantized_k(EnergyLadder((-2.0, 1.0)), -1.0, NAT)


class TestDeltaK:
    def test_example(self):
        # frozen: sqrt(1/6)(sqrt(3) - 1)
        assert delta_k(EnergyLadder((1.0, 3.0)), 1, NAT) == pytest.approx(
            0.298858490723, rel=1e-10)

    def test_continuity(self):
        d = delta_k(EnergyLadder((4.0, 4.0 + 1e-9)), 1, NAT)
        assert abs(d) < 1e-9

    def test_matches_k_difference(self):
        lad = EnergyLadder((1.0, 3.0, 7.0))
        for j in (1, 2):
            k_hi = quantized_k(lad, lad.eigenvalues[j], NAT)
            k_lo = quantized_k(lad, lad.eigenvalues[j - 1], NAT)
            assert delta_k(lad, j, NAT) == pytest.approx(k_hi - k_lo, abs=1e-12)

    def test_index_bounds(self):
        lad = EnergyLadder((1.0, 3.0))
        with pytest.raises(IndexError):
            delta_k(lad, 0, NAT)
        with pytest.raises(IndexError):
            delta_k(lad, 2, NAT)


class TestJumpTrace:
    def test_constant_schedule(self):
        lad = EnergyLadder((1.0, 3.0, 7.0))
        trace = k_jump_trace(lad, [2.0] * 5, NAT)
        ks = set(trace.k.tolist())
        assert len(ks) == 1

    def test_single_jump(self):
        lad = EnergyLadder((1.0, 3.0, 7.0))
        trace = k_jump_trace(lad, [2.0, 2.5, 3.5, 4.0], NAT)
        ks = trace.k.tolist()
        jumps = [b - a for a, b in zip(ks, ks[1:]) if b != a]
        assert len(jumps) == 1
        assert jumps[0] == pytest.approx(delta_k(lad, 1, NAT), abs=1e-12)

    def test_monotone_schedule_gives_monotone_k(self):
        lad = EnergyLadder((1.0, 3.0, 7.0))
        schedule = [1.0 + 0.2 * i for i in range(40)]
        trace = k_jump_trace(lad, schedule, NAT)
        ks = trace.k.tolist()
        assert all(b >= a for a, b in zip(ks, ks[1:]))
        assert trace.j[0] == 0 and trace.j[-1] == 2

    def test_below_ladder_rejected(self):
        with pytest.raises(BelowLadderError):
            k_jump_trace(EnergyLadder((1.0,)), [0.5], NAT)
