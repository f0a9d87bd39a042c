"""Replica engine: determinism and block layout, summation, quantile sampling."""
import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import special

from poolsim import montecarlo
from poolsim.csvio import ROW_BLOCK
from poolsim.mechanisms import ppss_reward, subsidy_terms
from poolsim.model import CostFunction, DemandModel, MinerProfile, PlatformParams, c_tilde, cost_eval
from poolsim.montecarlo import (
    BLOCK_SIZE,
    exact_mean,
    exact_mean_ci,
    exact_sum,
    gamma_ppf,
    payoff_samples,
)


PARAMS = PlatformParams(p=1.0, b=1.0, k=2.0, window_N=4)
PROFILES = [
    MinerProfile(capacity_A=5.0, cost=CostFunction(family="linear", r=0.5)),
    MinerProfile(capacity_A=5.0, cost=CostFunction(family="linear", r=0.5)),
]
DEMAND = DemandModel(family="uniform", lo=10.0, hi=30.0)
# c~/k = 2.5 > b, so the subsidy pays whenever the window indicator fires
SUBSIDISED = [
    MinerProfile(capacity_A=5.0, cost=CostFunction(family="linear", r=5.0))
    for _ in range(2)
]


def _samples(replicas, mechanism="pps", demand=DEMAND, **kw):
    return payoff_samples(
        mechanism, 0, np.array([4.0, 5.0]), PARAMS, PROFILES, demand,
        replicas, seed=11, **kw,
    )


class TestWorkerDeterminism:
    def test_blocks_are_independent_substreams(self):
        # block b holds replicas [b * BLOCK_SIZE, (b + 1) * BLOCK_SIZE) and
        # draws them from its own substream, so a full block reads the same
        # in any call and the last block is a short block of its own
        replicas = 3 * BLOCK_SIZE + 17
        for mechanism in ("pps", "ppss"):
            whole = _samples(replicas, mechanism)
            assert np.array_equal(whole[:2 * BLOCK_SIZE], _samples(2 * BLOCK_SIZE, mechanism))
            assert not np.array_equal(whole[:BLOCK_SIZE], whole[BLOCK_SIZE:2 * BLOCK_SIZE])
            tail = montecarlo._block_payoffs(
                mechanism, 0, np.array([4.0, 5.0]), PARAMS, PROFILES, DEMAND,
                11, 3, 17,
            )
            assert np.array_equal(whole[3 * BLOCK_SIZE:], tail)

    def test_repeat_call_is_identical(self):
        a = _samples(BLOCK_SIZE + 5)
        b = _samples(BLOCK_SIZE + 5)
        assert np.array_equal(a, b)

    def test_seed_changes_samples(self):
        a = _samples(1000)
        b = payoff_samples(
            "pps", 0, np.array([4.0, 5.0]), PARAMS, PROFILES, DEMAND, 1000, seed=12,
        )
        assert not np.array_equal(a, b)


class TestFixedOverrides:
    def test_fixed_demand_pins_every_replica(self):
        # with M fixed far above supply, payoff variance comes only from D
        fixed = DemandModel(family="constant", M=1000.0)
        a = _samples(2000, demand=fixed)
        b = _samples(2000, demand=fixed)
        assert np.array_equal(a, b)
        mean, _ = exact_mean_ci(a)
        # E[reward] = b*k*a_i = 8, cost 2: payoff ~ 6
        assert abs(mean - 6.0) <= 0.3

    def test_unknown_mechanism_rejected(self):
        with pytest.raises(ValueError):
            _samples(100, mechanism="pplns")


class TestGammaPpf:
    def test_matches_incomplete_gamma_inverse(self):
        u = np.array([0.05, 0.3, 0.5, 0.9])
        out = gamma_ppf(3.5, u)
        assert np.allclose(special.gammainc(3.5, out), u, rtol=1e-10)

    def test_zero_shape(self):
        assert np.all(gamma_ppf(0.0, np.array([0.1, 0.9])) == 0.0)

    def test_negative_shape_rejected(self):
        with pytest.raises(ValueError):
            gamma_ppf(-1.0, np.array([0.5]))


def _outcome(f, x):
    """f(x)'s bits, or its exception's type and message."""
    try:
        return np.float64(f(x)).tobytes()
    except (OverflowError, ValueError) as exc:
        return type(exc), str(exc)


_SUM_ROWS = st.sampled_from([0, 1, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, 2 * ROW_BLOCK + 3])
_SUM_ELEMENTS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1e308, -1e308, 0.1]),
)


class TestExactSum:
    """exact_sum is math.fsum over the whole array's values, bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(x=st.one_of(
        hnp.arrays(np.float64, _SUM_ROWS, elements=_SUM_ELEMENTS),
        hnp.arrays(np.float64, st.tuples(_SUM_ROWS, st.integers(1, 3)), elements=_SUM_ELEMENTS),
    ), view=st.sampled_from(["whole", "transposed", "first column"]))
    def test_equals_fsum_of_the_whole_array(self, x, view):
        if view == "transposed":
            x = x.T
        elif view == "first column" and x.ndim == 2:
            x = x[:, 0]
        assert _outcome(exact_sum, x) == _outcome(lambda v: math.fsum(v.ravel().tolist()), x)

    @pytest.mark.parametrize("values, error", [
        ([math.inf, -math.inf], ValueError),
        ([1e308, 1e308, -1e308], OverflowError),  # intermediate overflow
    ])
    def test_same_exception_as_fsum(self, values, error):
        x = np.concatenate((np.ones(ROW_BLOCK), values, np.ones(ROW_BLOCK)))
        reference = _outcome(lambda v: math.fsum(v.tolist()), x)
        assert reference[0] is error
        assert _outcome(exact_sum, x) == reference


# values of moderate size, at least one of them of magnitude 1 to 4, so that
# neither the samples nor their deviations are subnormal at any scale below
_MODERATE = hnp.arrays(
    np.float64, st.integers(2, 600),
    elements=st.one_of(st.just(0.0), st.floats(1e-3, 4.0), st.floats(-4.0, -1e-3)),
).filter(lambda y: np.abs(y).max() >= 1.0)


class TestExactMean:
    @settings(max_examples=150, deadline=None)
    @given(x=hnp.arrays(np.float64, st.sampled_from([1, ROW_BLOCK + 1, 2 * ROW_BLOCK + 3]),
                        elements=_SUM_ELEMENTS))
    def test_exact_sum_over_count_unless_it_overflows(self, x):
        try:
            plain = exact_sum(x) / len(x)
        except OverflowError:
            assert math.isfinite(exact_mean(x))
        else:
            assert np.float64(exact_mean(x)).tobytes() == np.float64(plain).tobytes()

    def test_overflowing_sum_has_a_finite_mean(self):
        x = np.full(3, 2.0**1023)
        with pytest.raises(OverflowError):
            exact_sum(x)
        assert exact_mean(x) == 2.0**1023
        assert exact_mean(np.full(3, np.finfo(float).max)) == np.finfo(float).max


class TestExactMeanCi:
    @settings(max_examples=200, deadline=None)
    @given(y=_MODERATE, e=st.integers(0, 1021))
    def test_scales_with_a_power_of_two(self, y, e):
        # the squared deviations of y * 2**e overflow from about e = 510, and
        # the plain sum of y * 2**e from about e = 1014; the mean and the
        # half-width still scale exactly
        mean, ci = exact_mean_ci(y)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert exact_mean_ci(y * 2.0**e) == (mean * 2.0**e, ci * 2.0**e)

    def test_matches_numpy_oracle(self):
        rng = np.random.default_rng(1)
        x = rng.normal(3.0, 2.0, 5000)
        mean, ci = exact_mean_ci(x)
        assert mean == pytest.approx(float(np.mean(x)), rel=1e-12)
        expected_ci = 1.96 * float(np.std(x, ddof=1)) / math.sqrt(len(x))
        assert ci == pytest.approx(expected_ci, rel=1e-9)

    def test_single_sample(self):
        mean, ci = exact_mean_ci(np.array([4.0]))
        assert mean == 4.0 and ci == 0.0

    def test_order_independent_reduction(self):
        x = np.array([1e16, 1.0, -1e16, 1.0] * 100)
        mean, _ = exact_mean_ci(x)
        assert mean == pytest.approx(0.5, rel=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(hnp.arrays(
        np.float64, st.integers(2, 600),
        elements=st.floats(-1e9, 1e9, allow_nan=False, allow_infinity=False),
    ))
    def test_variance_matches_scalar_loop(self, x):
        # Reference: the per-element loop with the same arithmetic, exactly.
        # Python's `v ** 2` goes through libm pow, which can miss the
        # correctly rounded v * v by one ulp, so against that older form
        # the half-width agrees to a few ulps rather than bit for bit.
        mean, ci = exact_mean_ci(x)
        vals = x.tolist()
        assert mean == math.fsum(vals) / len(vals)
        var = math.fsum((v - mean) * (v - mean) for v in vals) / (len(vals) - 1)
        assert ci == 1.96 * math.sqrt(var / len(vals))
        pow_var = math.fsum((v - mean) ** 2 for v in vals) / (len(vals) - 1)
        assert ci == pytest.approx(1.96 * math.sqrt(pow_var / len(vals)), rel=1e-14, abs=0)


class TestUniformLayout:
    def test_pps_samples_are_pinned(self):
        # the pps samples' digest from before the warm window became one
        # column, which only ppss draws
        x = payoff_samples(
            "pps", 0, np.array([4.0, 5.0]), PARAMS, SUBSIDISED, DEMAND,
            BLOCK_SIZE + 17, seed=11,
        )
        assert hashlib.sha256(x.tobytes()).hexdigest() == (
            "0b15fa092be2fb02b9d817fd5d53177be14395b31a626ee22757322dcfa2a9c0"
        )

    def test_warm_window_matches_explicit_pre_rounds(self):
        # Reference: N-1 explicit Gamma(k*a_i) pre-round outputs per replica.
        replicas = 40_000
        params = PlatformParams(p=1.0, b=1.0, k=2.0, window_N=4, eps_k=0.1)
        alloc = np.array([4.0, 5.0])
        mean, ci = exact_mean_ci(payoff_samples(
            "ppss", 0, alloc, params, SUBSIDISED, DEMAND, replicas, seed=11,
        ))
        rng = np.random.default_rng(2024)
        shapes = params.k * alloc
        window = sum(
            rng.gamma(shapes[0], size=replicas) for _ in range(params.window_N - 1)
        )
        d = rng.gamma(shapes, size=(replicas, 2))
        M = rng.uniform(DEMAND.lo, DEMAND.hi, replicas)
        prof = SUBSIDISED[0]
        ref, _ = ppss_reward(
            d[:, 0], d.sum(axis=1), M, window, params.window_N - 1,
            *subsidy_terms(prof.capacity_A, c_tilde(prof), params), params,
        )
        ref_mean, ref_ci = exact_mean_ci(ref - cost_eval(SUBSIDISED[0].cost, 4.0))
        assert abs(mean - ref_mean) <= ci + ref_ci

    def test_single_round_window_is_empty(self, monkeypatch):
        seen = []
        real = montecarlo.ppss_reward

        def spy(d, total, M, window_sum, window_len, *rest):
            seen.append((np.asarray(window_sum).copy(), window_len))
            return real(d, total, M, window_sum, window_len, *rest)

        monkeypatch.setattr(montecarlo, "ppss_reward", spy)
        params = PlatformParams(p=1.0, b=1.0, k=2.0, window_N=1)
        out = payoff_samples(
            "ppss", 0, np.array([4.0, 5.0]), params, SUBSIDISED, DEMAND, 500, seed=11,
        )
        assert np.all(np.isfinite(out))
        assert len(seen) == 1
        window_sum, window_len = seen[0]
        assert window_len == 0 and np.all(window_sum == 0.0)
