"""Slice-adjustment tests: demand conversion, relaxed solving against vertex
enumeration, rounding statistics, and the composed pipeline."""

import numpy as np
import pytest

from edgeslice.env import (EconParams, RadioParams, RegionCatalog, ResourceCatalog,
                           rented_and_cost)
from edgeslice.errors import InfeasibleSliceError
from edgeslice.forecasting import TrafficSeries, baseline_forecast
from edgeslice.slicing import (DemandVector, FractionalSlice, TaskProfile,
                               adjust_slices, cheapest_slice, estimate_demand,
                               randomized_round, relaxed_cost, solve_relaxed)
from edgeslice.baselines import brute_force_slicing

RADIO = RadioParams(upload_power=0.1, noise_power=1e-9,
                    pathloss_ref=1e-3, pathloss_exp=2.0)
ECON = EconParams(reward_per_task=10.0, deadline=1.0)
PROFILE = TaskProfile(mean_data_size=1e6, mean_compute_density=100.0,
                      mean_distance=100.0)


def catalog_of(bw_options, vm_options=((1, 5.0), (2, 9.0)), vm_frequency=1e9,
               regions=1):
    region = RegionCatalog(bandwidth_options=tuple(bw_options),
                           vm_options=tuple(vm_options),
                           vm_frequency=vm_frequency)
    return ResourceCatalog(regions=(region,) * regions)


class TestEstimateDemand:
    def test_zero_users_zero_demand(self):
        demand = estimate_demand(np.array([0.0]), PROFILE, RADIO, ECON)
        assert demand.bw_demand[0] == 0.0
        assert demand.compute_demand[0] == 0.0

    def test_compute_demand_formula(self):
        # Independent calculation: 4 * 1e6 * 100 / (1.0 * 0.5) = 8e8.
        profile = TaskProfile(1e6, 100.0, 100.0)
        demand = estimate_demand(np.array([4.0]), profile, RADIO,
                                 EconParams(10.0, 1.0), kappa_exe=0.5)
        assert demand.compute_demand[0] == pytest.approx(8e8)

    def test_bandwidth_formula(self):
        # One user must upload d bits within kappa_up * deadline at the
        # mean-distance spectral efficiency.
        demand = estimate_demand(np.array([1.0]), PROFILE, RADIO, ECON,
                                 kappa_up=0.5)
        eff = RADIO.spectral_efficiency(100.0)
        assert demand.bw_demand[0] == pytest.approx(1e6 / (0.5 * eff))

    def test_linear_in_count(self):
        d1 = estimate_demand(np.array([3.0]), PROFILE, RADIO, ECON)
        d2 = estimate_demand(np.array([6.0]), PROFILE, RADIO, ECON)
        assert d2.bw_demand[0] == pytest.approx(2 * d1.bw_demand[0])
        assert d2.compute_demand[0] == pytest.approx(2 * d1.compute_demand[0])

    def test_bad_kappa_rejected(self):
        with pytest.raises(ValueError):
            estimate_demand(np.array([1.0]), PROFILE, RADIO, ECON, kappa_up=0.0)
        with pytest.raises(ValueError):
            estimate_demand(np.array([1.0]), PROFILE, RADIO, ECON,
                            kappa_up=0.7, kappa_exe=0.7)


class TestSolveRelaxed:
    def test_low_demand_picks_cheapest_one_hot(self):
        catalog = catalog_of([(5.0, 1.0), (10.0, 3.0)])
        demand = DemandVector(np.array([2.0]), np.array([0.0]))
        frac = solve_relaxed(demand, catalog)
        assert np.allclose(frac.bw_weights[0], [1.0, 0.0])

    def test_two_option_mix_frozen_values(self):
        # Vertex enumeration oracle: tight mix of 5 and 10 at demand 7
        # gives weights (0.6, 0.4) and objective 0.6*1 + 0.4*3 = 1.8.
        catalog = catalog_of([(5.0, 1.0), (10.0, 3.0)])
        demand = DemandVector(np.array([7.0]), np.array([0.0]))
        frac = solve_relaxed(demand, catalog)
        assert np.allclose(frac.bw_weights[0], [0.6, 0.4])
        vm_cost = min(cost for _, cost in catalog.regions[0].vm_options)
        assert relaxed_cost(frac, catalog) == pytest.approx(1.8 + vm_cost)

    def test_infeasible_demand_names_region_and_shortfall(self):
        catalog = catalog_of([(5.0, 1.0), (10.0, 3.0)])
        demand = DemandVector(np.array([12.0]), np.array([0.0]))
        with pytest.raises(InfeasibleSliceError) as err:
            solve_relaxed(demand, catalog)
        assert err.value.region == 0
        assert err.value.shortfall == pytest.approx(2.0)

    def test_lower_bounds_every_one_hot_choice(self):
        # Relaxation bound property over random catalogs with <= 4 options.
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = rng.integers(2, 5)
            caps = np.sort(rng.uniform(1.0, 20.0, n))
            costs = rng.uniform(0.5, 10.0, n)
            catalog = catalog_of(list(zip(caps, costs)))
            demand_bw = rng.uniform(0.0, caps.max())
            demand = DemandVector(np.array([demand_bw]), np.array([0.0]))
            frac = solve_relaxed(demand, catalog)
            lp = relaxed_cost(frac, catalog)
            best, _ = brute_force_slicing(demand, catalog)
            assert lp <= best + 1e-9


class TestRandomizedRound:
    def test_one_hot_passthrough(self):
        catalog = catalog_of([(5.0, 1.0), (10.0, 3.0)])
        frac = FractionalSlice(bw_weights=(np.array([0.0, 1.0]),),
                               vm_weights=(np.array([1.0, 0.0]),))
        demand = DemandVector(np.array([2.0]), np.array([0.0]))
        decision = randomized_round(frac, demand, catalog,
                                    np.random.default_rng(0))
        assert decision.bw[0] == 1
        assert decision.vm[0] == 0

    def test_empirical_frequencies_match_weights(self):
        catalog = catalog_of([(5.0, 1.0), (10.0, 3.0)])
        demand = DemandVector(np.array([0.0]), np.array([0.0]))
        frac = FractionalSlice(bw_weights=(np.array([0.6, 0.4]),),
                               vm_weights=(np.array([1.0, 0.0]),))
        rng = np.random.default_rng(7)
        n = 10_000
        picks = sum(randomized_round(frac, demand, catalog, rng).bw[0]
                    for _ in range(n))
        p = 0.4
        sigma = (n * p * (1 - p)) ** 0.5
        assert abs(picks - n * p) <= 3 * sigma

    def test_infeasible_draw_repaired_to_cheapest_feasible(self):
        catalog = catalog_of([(5.0, 1.0), (10.0, 4.0), (20.0, 3.5)])
        demand = DemandVector(np.array([7.0]), np.array([0.0]))
        frac = FractionalSlice(bw_weights=(np.array([1.0, 0.0, 0.0]),),
                               vm_weights=(np.array([1.0, 0.0]),))
        decision = randomized_round(frac, demand, catalog,
                                    np.random.default_rng(0))
        # Sampled option 0 under-provisions; cheapest feasible is index 2.
        assert decision.bw[0] == 2

    def test_unrepairable_draw_names_region_and_resource(self):
        # No option covers the demand, so the draw cannot be repaired.
        catalog = catalog_of([(5.0, 1.0), (10.0, 3.0)])
        frac = FractionalSlice(bw_weights=(np.array([1.0, 0.0]),),
                               vm_weights=(np.array([1.0, 0.0]),))
        demand = DemandVector(np.array([12.0]), np.array([0.0]))
        with pytest.raises(InfeasibleSliceError) as err:
            randomized_round(frac, demand, catalog, np.random.default_rng(0))
        assert (err.value.region, err.value.resource) == (0, "bandwidth")
        assert err.value.shortfall == pytest.approx(2.0)

    def test_rounded_decisions_always_cover_demand(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = rng.integers(2, 5)
            caps = np.sort(rng.uniform(1.0, 20.0, n))
            costs = np.sort(rng.uniform(0.5, 10.0, n))
            catalog = catalog_of(list(zip(caps, costs)))
            demand = DemandVector(np.array([rng.uniform(0, caps.max())]),
                                  np.array([0.0]))
            frac = solve_relaxed(demand, catalog)
            decision = randomized_round(frac, demand, catalog, rng)
            cap = catalog.regions[0].bandwidth_options[decision.bw[0]][0]
            assert cap >= demand.bw_demand[0]

    def test_rounding_rents_a_cheapest_cover(self):
        # A mix is admitted only beside the cheapest covering option, and an
        # under-provisioning draw is repaired to that option, so every draw
        # costs exactly the enumerated optimum.
        rng = np.random.default_rng(21)
        mixes = 0
        for _ in range(300):
            regions = []
            for _ in range(2):
                caps = np.sort(rng.uniform(1.0, 20.0, rng.integers(2, 6)))
                vms = np.sort(rng.choice(np.arange(1, 9), rng.integers(2, 5),
                                         replace=False))
                regions.append(RegionCatalog(
                    bandwidth_options=tuple(
                        (float(c), float(c * rng.uniform(0.5, 1.5))) for c in caps),
                    vm_options=tuple(
                        (int(v), float(v * rng.uniform(2.0, 6.0))) for v in vms),
                    vm_frequency=1e9))
            catalog = ResourceCatalog(regions=tuple(regions))
            demand = DemandVector(
                np.array([rng.uniform(0.0, reg.bandwidth_options[-1][0])
                          for reg in regions]),
                np.array([rng.uniform(0.0, reg.vm_options[-1][0] * 1e9)
                          for reg in regions]))
            frac = solve_relaxed(demand, catalog)
            mixes += any(np.count_nonzero(w) == 2
                         for w in frac.bw_weights + frac.vm_weights)
            best, _ = brute_force_slicing(demand, catalog)
            for _ in range(20):
                decision = randomized_round(frac, demand, catalog, rng)
                assert rented_and_cost(catalog, decision)[2] == best
        assert mixes >= 100


class TestAdjustSlices:
    def persistence(self, series, horizon):
        return baseline_forecast(series, horizon)

    def test_empty_history_returns_cheapest_default(self):
        catalog = catalog_of([(5.0, 1.0), (10.0, 3.0)])
        decision = adjust_slices(None, catalog, self.persistence,
                                 np.random.default_rng(0), PROFILE, RADIO, ECON)
        assert decision == cheapest_slice(catalog)

    def test_constant_traffic_matches_enumeration(self):
        # Demand sits below the cheapest option, so the pipeline and the
        # exhaustive search agree deterministically.
        catalog = catalog_of([(5e6, 1.0), (10e6, 3.0)],
                             vm_options=((2, 5.0), (4, 9.0)), vm_frequency=1e9)
        series = TrafficSeries(np.full((1, 6), 1.0))
        decision = adjust_slices(series, catalog, self.persistence,
                                 np.random.default_rng(0), PROFILE, RADIO, ECON)
        counts = self.persistence(series, 1)[:, 0]
        demand = estimate_demand(counts, PROFILE, RADIO, ECON)
        _, best = brute_force_slicing(demand, catalog)
        assert decision == best

    def test_structural_one_hot_everywhere(self):
        rng = np.random.default_rng(3)
        catalog = catalog_of([(2e6, 1.0), (7e6, 2.0), (14e6, 4.0)],
                             vm_options=((1, 1.0), (4, 3.0)),
                             vm_frequency=2e9, regions=3)
        for _ in range(50):
            series = TrafficSeries(rng.uniform(0, 8, size=(3, 5)))
            decision = adjust_slices(series, catalog, self.persistence, rng,
                                     PROFILE, RADIO, ECON)
            for i in range(3):
                assert 0 <= decision.bw[i] < len(catalog.regions[i].bandwidth_options)
                assert 0 <= decision.vm[i] < len(catalog.regions[i].vm_options)

    def test_infeasibility_propagates(self):
        catalog = catalog_of([(1e3, 1.0)])
        series = TrafficSeries(np.full((1, 4), 50.0))
        with pytest.raises(InfeasibleSliceError):
            adjust_slices(series, catalog, self.persistence,
                          np.random.default_rng(0), PROFILE, RADIO, ECON)


class TestExpectedRoundedCost:
    def test_within_ten_percent_of_lp_without_repair(self):
        # Repair-free instance: every support option is feasible, so the
        # empirical mean cost converges to the LP objective.
        catalog = catalog_of([(5.0, 1.0), (10.0, 3.0)])
        demand = DemandVector(np.array([0.0]), np.array([0.0]))
        frac = FractionalSlice(bw_weights=(np.array([0.5, 0.5]),),
                               vm_weights=(np.array([1.0, 0.0]),))
        rng = np.random.default_rng(5)
        draws = 10_000
        total = 0.0
        for _ in range(draws):
            decision = randomized_round(frac, demand, catalog, rng)
            total += catalog.regions[0].bandwidth_options[decision.bw[0]][1]
        mean_bw_cost = total / draws
        lp_bw_cost = 0.5 * 1.0 + 0.5 * 3.0
        assert abs(mean_bw_cost - lp_bw_cost) / lp_bw_cost < 0.10
