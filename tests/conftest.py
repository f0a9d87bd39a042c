import numpy as np
import pytest
from hypothesis import strategies as st


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
            "grid": st.integers(2, 128),
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


def small_configs(mechanisms=("pps", "ppss"), myopic=False, miners=(1, 3)):
    """Config mappings for short runs: `miners` = (fewest, most) static or
    delta_adaptive miners, 1-3 by default, under any demand family.
    myopic_br miners are drawn only with `myopic=True`: each re-solves its
    best response whenever the announced M changes, so a property that
    simulates them keeps its games to a few rounds."""
    return st.fixed_dictionaries({
        "mechanism": st.sampled_from(mechanisms),
        "platform": st.fixed_dictionaries({
            "p": _num(0.1, 10.0), "b": _num(0.1, 10.0),
            "k": _num(0.5, 100.0), "N": st.integers(1, 6),
        }),
        "miners": st.lists(_miner(myopic), min_size=miners[0], max_size=miners[1]),
        "demand": _demand(),
        "rounds": st.integers(1, 12),
        "seed": st.integers(0, 2**32 - 1),
    })


# Money values whose magnitudes lie in [2**-400, 2**400] scale by 2**j,
# |j| <= 8, without rounding, and so do the products, squares and quotients
# the ledger and the audits form from them: none leaves the normal range.
MONEY_RANGE = (2.0**-400, 2.0**400)


def in_money_range(*arrays):
    """Whether every nonzero value of `arrays` lies in MONEY_RANGE."""
    lo, hi = MONEY_RANGE
    x = np.abs(np.concatenate([np.ravel(a) for a in arrays]))
    return bool(((x == 0) | ((x >= lo) & (x <= hi))).all())


def money_scaled(data, factor):
    """The config mapping `data` with b and every cost coefficient (r, c)
    times `factor`: the same economics in other money units."""
    return {**data, "platform": {**data["platform"], "b": data["platform"]["b"] * factor},
            "miners": [{**m, "cost": {key: v * factor if key in ("r", "c") else v
                                      for key, v in m["cost"].items()}}
                       for m in data["miners"]]}


@pytest.fixture
def tmp_out(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    return str(out)
