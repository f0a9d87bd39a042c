import io

import pytest
from hypothesis import strategies as st

from poolsim.config import parse_config


def quiet_parse(data):
    """parse_config with the supply-shortfall warning swallowed."""
    return parse_config(data, warn_stream=io.StringIO())


def _num(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def _miner(draw, myopic=False):
    cap = draw(_num(0.1, 5.0))
    policies = [
        st.fixed_dictionaries({"kind": st.just("static"), "a": _num(0.0, cap)}),
        st.fixed_dictionaries({"kind": st.just("delta_adaptive"),
                               "step": _num(0.1, 0.9), "floor": _num(0.0, cap)}),
    ]
    if myopic:
        policies.append(st.fixed_dictionaries({
            "kind": st.just("myopic_br"),
            "grid": st.integers(2, 128), "replicas": st.integers(1, 5000),
        }))
    policy = draw(st.one_of(policies))
    cost = draw(st.one_of(
        st.fixed_dictionaries({"family": st.just("linear"), "r": _num(0.01, 300.0)}),
        st.fixed_dictionaries({"family": st.just("power"),
                               "c": _num(0.01, 100.0), "q": _num(1.0, 3.0)}),
    ))
    return {"capacity_A": cap, "cost": cost, "policy": policy}


@st.composite
def _demand(draw):
    lo = draw(_num(1.0, 500.0))
    return draw(st.one_of(
        st.just({"family": "constant", "M": lo}),
        st.just({"family": "uniform", "lo": lo, "hi": 2.0 * lo}),
        st.fixed_dictionaries({"family": st.just("gamma"),
                               "shape": _num(0.5, 20.0), "rate": _num(0.05, 2.0)}),
        st.fixed_dictionaries({"family": st.just("lognormal"),
                               "mu": _num(0.0, 6.0), "sigma": _num(0.0, 1.0)}),
    ))


def small_configs(mechanisms=("pps", "ppss"), myopic=False):
    """Config mappings for short runs: 1-3 static or delta_adaptive miners
    under any demand family. myopic_br miners are drawn only with
    `myopic=True`, for properties that do not run the config (they are
    slow to simulate)."""
    return st.fixed_dictionaries({
        "mechanism": st.sampled_from(mechanisms),
        "platform": st.fixed_dictionaries({
            "p": _num(0.1, 10.0), "b": _num(0.1, 10.0),
            "k": _num(0.5, 100.0), "N": st.integers(1, 6),
        }),
        "miners": st.lists(_miner(myopic), min_size=1, max_size=3),
        "demand": _demand(),
        "rounds": st.integers(1, 12),
        "seed": st.integers(0, 2**32 - 1),
    })


@pytest.fixture
def tmp_out(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    return str(out)
