"""Cost families, demand distributions, and the Gamma computing model."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import special

from poolsim.analysis import expected_payoff_mc
from poolsim.model import (
    CostFunction,
    DemandModel,
    MinerProfile,
    PlatformParams,
    U_MAX,
    U_MIN,
    c_tilde,
    cost_eval,
    cost_marginal,
    sample_demand,
    sample_transcript,
    substream,
)

from conftest import _demand

LINEAR2 = CostFunction(family="linear", r=2.0)
SQUARE = CostFunction(family="power", c=1.0, q=2.0)


class TestSubstream:
    @given(
        seed=st.integers(0, 2**70),
        path=st.lists(st.one_of(
            st.sampled_from([0, 2**32 - 1, 2**32, 2**64]), st.integers(0, 2**70),
        ), max_size=4),
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_default_rng_of_seed_sequence(self, seed, path):
        # the stream is numpy's own default_rng(SeedSequence([seed, *path]))
        rng = substream(seed, *path)
        oracle = np.random.default_rng(np.random.SeedSequence([seed, *path]))
        assert rng.bit_generator.state == oracle.bit_generator.state
        assert rng.random(8).tobytes() == oracle.random(8).tobytes()

    @pytest.mark.parametrize("key", [(-1,), (0, -1), (5, 2, -(2**40))])
    def test_negative_key_rejected_as_numpy_does(self, key):
        with pytest.raises(ValueError):
            np.random.SeedSequence(list(key))
        with pytest.raises(ValueError):
            substream(*key)


class TestCostEval:
    def test_linear(self):
        assert cost_eval(LINEAR2, 3.0) == 6.0

    def test_power_square(self):
        assert cost_eval(SQUARE, 5.0) == 25.0

    def test_zero_allocation_costs_nothing(self):
        assert cost_eval(LINEAR2, 0.0) == 0.0
        assert cost_eval(SQUARE, 0.0) == 0.0
        assert cost_eval(CostFunction(family="power", c=3.0, q=1.5), 0.0) == 0.0

    def test_negative_allocation_rejected(self):
        with pytest.raises(ValueError):
            cost_eval(LINEAR2, -1.0)

    def test_strictly_increasing(self):
        grid = np.linspace(0.0, 10.0, 50)
        for cost in (LINEAR2, SQUARE):
            vals = cost_eval(cost, grid)
            assert np.all(np.diff(vals) > 0)


class TestCostMarginal:
    def test_linear_constant(self):
        assert cost_marginal(LINEAR2, 0.0) == 2.0
        assert cost_marginal(LINEAR2, 7.3) == 2.0

    def test_power_square(self):
        assert cost_marginal(SQUARE, 5.0) == 10.0
        assert cost_marginal(SQUARE, 0.0) == 0.0

    def test_negative_allocation_rejected(self):
        with pytest.raises(ValueError):
            cost_marginal(SQUARE, -0.1)

    def test_matches_finite_difference(self):
        # central difference, h = 1e-6, 1e-4 relative error per family
        h = 1e-6
        for cost in (
            CostFunction(family="linear", r=0.7),
            CostFunction(family="power", c=2.0, q=2.0),
            CostFunction(family="power", c=0.5, q=3.5),
        ):
            for a in np.linspace(0.1, 10.0, 100):
                fd = (cost_eval(cost, a + h) - cost_eval(cost, a - h)) / (2 * h)
                exact = cost_marginal(cost, a)
                assert abs(fd - exact) <= 1e-4 * max(abs(exact), 1e-12)

    def test_nondecreasing(self):
        grid = np.linspace(0.0, 10.0, 100)
        for cost in (LINEAR2, SQUARE, CostFunction(family="power", c=0.3, q=4.0)):
            marg = cost_marginal(cost, grid)
            assert np.all(np.diff(marg) >= 0)

    def test_invalid_families_rejected(self):
        with pytest.raises(ValueError):
            CostFunction(family="linear", r=0.0)
        with pytest.raises(ValueError):
            CostFunction(family="power", c=1.0, q=0.5)
        with pytest.raises(ValueError):
            CostFunction(family="cubic")


class TestCTilde:
    def test_power_square_capacity_5(self):
        prof = MinerProfile(capacity_A=5.0, cost=SQUARE)
        assert c_tilde(prof) == 10.0

    def test_linear_150(self):
        prof = MinerProfile(capacity_A=1.0, cost=CostFunction(family="linear", r=150.0))
        assert c_tilde(prof) == 150.0

    def test_linear_unit(self):
        prof = MinerProfile(capacity_A=7.0, cost=CostFunction(family="linear", r=1.0))
        assert c_tilde(prof) == 1.0

    def test_dominates_marginal_on_capacity_interval(self):
        for cost in (LINEAR2, SQUARE, CostFunction(family="power", c=0.5, q=3.0)):
            prof = MinerProfile(capacity_A=4.0, cost=cost)
            ct = c_tilde(prof)
            for a in np.linspace(0.0, 4.0, 64):
                assert ct >= cost_marginal(cost, a) - 1e-12


class TestPlatformParams:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            PlatformParams(p=0.0, b=1.0, k=1.0)
        with pytest.raises(ValueError):
            PlatformParams(p=1.0, b=-1.0, k=1.0)
        with pytest.raises(ValueError):
            PlatformParams(p=1.0, b=1.0, k=1.0, lam=1.0)
        with pytest.raises(ValueError):
            PlatformParams(p=1.0, b=1.0, k=1.0, window_N=0)
        with pytest.raises(ValueError):
            PlatformParams(p=1.0, b=1.0, k=1.0, eps_k=0.0)


class TestDemand:
    def test_constant_is_degenerate(self):
        model = DemandModel(family="constant", M=40.0)
        rng = substream(0, 1)
        assert all(sample_demand(model, rng) == 40.0 for _ in range(100))
        assert model.mu_F == 40.0

    @staticmethod
    def _draws(model, count, *key):
        """`count` successive sample_demand draws from substream(*key), made
        as one ppf call on the stream's uniforms; the first 1000 are checked
        against sample_demand itself."""
        draws = model.ppf(substream(*key).random(count))
        twin = substream(*key)
        assert np.array_equal(draws[:1000], [sample_demand(model, twin) for _ in range(1000)])
        return draws

    def test_uniform_mean(self):
        model = DemandModel(family="uniform", lo=30.0, hi=50.0)
        assert model.mu_F == 40.0
        mean = np.mean(self._draws(model, 1_000_000, 11, 2))
        assert abs(mean - 40.0) <= 0.1

    def test_lognormal_mean(self):
        # mu chosen so mu_F = exp(mu + sigma^2/2) = 100
        sigma = 0.5
        model = DemandModel(family="lognormal", mu=math.log(100.0) - 0.125, sigma=sigma)
        assert abs(model.mu_F - 100.0) <= 1e-9
        mean = np.mean(self._draws(model, 1_000_000, 12, 3))
        assert abs(mean - 100.0) <= 1.0

    def test_gamma_family_mean(self):
        model = DemandModel(family="gamma", shape=8.0, rate=2.0)
        assert model.mu_F == 4.0
        mean = np.mean(self._draws(model, 200_000, 13, 4))
        assert abs(mean - 4.0) <= 0.02

    def test_samples_positive(self):
        for model in (
            DemandModel(family="uniform", lo=1.0, hi=2.0),
            DemandModel(family="gamma", shape=0.4, rate=1.0),
            DemandModel(family="lognormal", mu=0.0, sigma=1.0),
        ):
            rng = substream(14, 5)
            assert all(sample_demand(model, rng) > 0 for _ in range(1000))

    @given(
        demand=st.one_of(
            _demand(),
            st.fixed_dictionaries({"family": st.just("lognormal"),
                                   "mu": st.floats(-800.0, 800.0),
                                   "sigma": st.floats(0.0, 60.0)}),
            st.fixed_dictionaries({"family": st.just("gamma"),
                                   "shape": st.floats(1e-3, 1e3),
                                   "rate": st.floats(1e-320, 1e300)}),
        ),
        u=st.floats(0.0, U_MAX),
    )
    @settings(max_examples=500, deadline=None)
    def test_model_that_constructs_draws_in_open_interval(self, demand, u):
        try:
            model = DemandModel(**demand)
        except ValueError:
            return
        q = model.ppf(np.array([0.0, U_MIN, U_MAX, u]))
        assert (0 < q).all() and (q < math.inf).all()
        assert 0 < model.ppf(u) < math.inf

    def test_invalid_families_rejected(self):
        with pytest.raises(ValueError):
            DemandModel(family="constant", M=0.0)
        with pytest.raises(ValueError):
            DemandModel(family="uniform", lo=5.0, hi=5.0)
        with pytest.raises(ValueError):
            DemandModel(family="gamma", shape=-1.0)
        with pytest.raises(ValueError):
            DemandModel(family="weibull")

    def test_ppf_matches_analytic_quantiles(self):
        u = np.array([0.1, 0.25, 0.5, 0.75, 0.9])
        uni = DemandModel(family="uniform", lo=30.0, hi=50.0)
        assert np.allclose(uni.ppf(u), 30.0 + 20.0 * u)
        const = DemandModel(family="constant", M=7.0)
        assert np.all(const.ppf(u) == 7.0)
        gam = DemandModel(family="gamma", shape=3.0, rate=2.0)
        assert np.allclose(special.gammainc(3.0, gam.ppf(u) * 2.0), u)
        logn = DemandModel(family="lognormal", mu=1.0, sigma=0.5)
        assert np.allclose(logn.ppf(np.array([0.5])), [math.e], rtol=1e-12)


class TestGammaSample:
    """The engine's Gamma(k * a_i, 1) sampler, at k = 1 so that a_i is the
    shape; one call with a long allocation vector draws in miner order."""

    K1 = PlatformParams(p=1.0, b=1.0, k=1.0)

    def draws(self, shape, count, rng):
        return sample_transcript(self.K1, np.full(count, shape), rng)

    def test_zero_shape_is_point_mass(self):
        assert np.all(self.draws(0.0, 10, substream(1, 1)) == 0.0)

    def test_negative_shape_rejected(self):
        with pytest.raises(ValueError):
            self.draws(-0.5, 1, substream(1, 2))

    def test_shape_20_mean_and_variance(self):
        draws = self.draws(20.0, 1_000_000, substream(7, 20))
        assert abs(draws.mean() - 20.0) <= 0.02
        assert abs(draws.var(ddof=1) - 20.0) <= 0.2

    def test_fractional_shape_cdf(self):
        # empirical CDF at 0.2 vs the regularized incomplete gamma
        draws = self.draws(0.5, 400_000, substream(8, 21))
        assert abs(np.mean(draws <= 0.2) - special.gammainc(0.5, 0.2)) <= 0.005

    def test_mean_variance_within_5_se(self):
        for shape, key in ((0.7, 30), (20.0, 31)):
            draws = self.draws(shape, 1_000_000, substream(9, key))
            n = len(draws)
            se_mean = math.sqrt(shape / n)
            assert abs(draws.mean() - shape) <= 5 * se_mean
            # Var(sample variance) ~ (mu4 - var^2)/n; Gamma mu4 = 3s^2 + 6s
            se_var = math.sqrt((3 * shape**2 + 6 * shape - shape**2) / n)
            assert abs(draws.var(ddof=1) - shape) <= 5 * se_var


class TestStrategyProfile:
    def test_validate_bounds(self):
        # a strategy profile is an allocation vector within [0, A_i]
        profs = [MinerProfile(capacity_A=2.0, cost=LINEAR2)]
        demand = DemandModel(family="constant", M=10.0)

        def estimate(a):
            return expected_payoff_mc("pps", 0, [a], PARAMS_K2, profs, demand, replicas=8, seed=0)

        estimate(1.5)
        with pytest.raises(ValueError):
            estimate(2.5)
        with pytest.raises(ValueError):
            estimate(-0.1)


PARAMS_K2 = PlatformParams(p=1.0, b=1.0, k=2.0)


@pytest.fixture(scope="module")
def transcript_draws():
    """250k transcripts at k=2, a=(10, 30) from a frozen stream."""
    rng = substream(2024, 33)
    allocations = np.array([10.0, 30.0])
    out = np.empty((250_000, 2))
    for j in range(out.shape[0]):
        out[j] = sample_transcript(PARAMS_K2, allocations, rng)
    return out


class TestSampleTranscript:
    def test_zero_allocations_give_zero_output(self):
        d = sample_transcript(PARAMS_K2, [0.0, 0.0], substream(0, 0))
        assert d.tolist() == [0.0, 0.0]

    def test_mean_output_is_k_times_allocation(self, transcript_draws):
        means = transcript_draws.mean(axis=0)
        assert abs(means[0] - 20.0) <= 0.02
        assert abs(means[1] - 60.0) <= 0.05

    def test_share_of_total_follows_allocation_split(self, transcript_draws):
        # D_1/|D| ~ Beta(20, 60), mean 0.25
        totals = transcript_draws.sum(axis=1)
        share = transcript_draws[:, 0] / totals
        assert abs(share.mean() - 0.25) <= 0.002

    def test_total_output_additivity(self, transcript_draws):
        # |D| ~ Gamma(k * sum a) = Gamma(80); CDF at 5 quantiles
        totals = transcript_draws.sum(axis=1)
        for q in (60.0, 70.0, 80.0, 90.0, 100.0):
            assert abs(np.mean(totals <= q) - special.gammainc(80.0, q)) <= 0.005

    def test_negative_allocation_rejected(self):
        with pytest.raises(ValueError):
            sample_transcript(PARAMS_K2, [-1.0], substream(0, 0))

    def test_deterministic_given_stream_key(self):
        t1 = sample_transcript(PARAMS_K2, [1.0, 2.0], substream(42, 3))
        t2 = sample_transcript(PARAMS_K2, [1.0, 2.0], substream(42, 3))
        assert t1.tolist() == t2.tolist()

    @given(
        allocations=hnp.arrays(np.float64, st.integers(0, 6), elements=st.one_of(
            st.sampled_from([0.0, -0.0]), st.floats(1e-6, 50.0),
        )),
        k=st.floats(0.01, 200.0),
        seed=st.integers(0, 2**32),
    )
    @settings(max_examples=200, deadline=None)
    def test_draws_equal_masked_gamma_on_twin_stream(self, allocations, k, seed):
        # the stream layout: one Gamma(k * a_i, 1) draw per positive shape, in
        # miner order, and none for a zero shape
        rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
        params = PlatformParams(p=1.0, b=1.0, k=k)
        d = sample_transcript(params, allocations, rng)
        shapes = k * allocations
        expected = np.zeros_like(shapes)
        pos = shapes > 0
        if pos.any():
            expected[pos] = twin.gamma(shapes[pos])
        assert d.dtype == expected.dtype and d.tobytes() == expected.tobytes()
        assert rng.bit_generator.state == twin.bit_generator.state

    @given(
        allocations=st.lists(st.one_of(
            st.sampled_from([0.0, -0.0]), st.floats(1e-6, 50.0), st.floats(5e-324, 1e-300),
        ), max_size=12),
        k=st.floats(0.01, 200.0),
        seed=st.integers(0, 2**32),
    )
    @settings(max_examples=200, deadline=None)
    def test_list_path_equals_array_path(self, allocations, k, seed):
        # the engine's list path draws the array path's bits from the same stream
        params = PlatformParams(p=1.0, b=1.0, k=k)
        rng, twin = substream(seed, 1), substream(seed, 1)
        listed = sample_transcript(params, allocations, rng, as_list=True)
        arrayed = sample_transcript(params, np.array(allocations), twin)
        assert type(listed) is list and all(type(v) is float for v in listed)
        assert np.array(listed).tobytes() == arrayed.tobytes()
        assert rng.bit_generator.state == twin.bit_generator.state

    def test_list_path_rejects_a_negative_allocation(self):
        with pytest.raises(ValueError, match="nonnegative"):
            sample_transcript(PARAMS_K2, [1.0, -1.0], substream(0, 0), as_list=True)

    def test_zero_d_allocation_returns_a_float(self):
        d = sample_transcript(PARAMS_K2, np.float64(1.5), substream(42, 5))
        twin = substream(42, 5).standard_gamma(3.0)
        assert type(d) is float and d == twin
        assert sample_transcript(PARAMS_K2, 0.0, substream(42, 5)) == 0.0

    def test_negative_zero_d_allocation_rejected(self):
        with pytest.raises(ValueError):
            sample_transcript(PARAMS_K2, -1.0, substream(0, 0))

    def test_nan_shape_draws_nothing(self):
        rng, twin = substream(7, 1), substream(7, 1)
        d = sample_transcript(PARAMS_K2, [math.nan, 1.0, -0.0], rng)
        assert d.tolist() == [0.0, twin.standard_gamma(2.0), 0.0]
        assert rng.bit_generator.state == twin.bit_generator.state

    def test_distinct_stream_keys_differ(self):
        t1 = sample_transcript(PARAMS_K2, [1.0, 2.0], substream(42, 3))
        t2 = sample_transcript(PARAMS_K2, [1.0, 2.0], substream(42, 4))
        assert t1.tolist() != t2.tolist()
