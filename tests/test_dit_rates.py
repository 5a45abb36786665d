"""The interval bound of the d-scan against every rate it covers, for both
schemes' erfc families and for random ones."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gkplat import dit_rates
from gkplat.dit_rates import dit_error_prob, dit_rate, dit_rate_bound


def _log_uniform(low, high):
    return st.floats(low, high).map(lambda x: 10.0 ** x)


# (num, c, j, s) of grid qudits, of d-ary signals, and of neither
_FAMILIES = st.one_of(
    st.tuples(_log_uniform(-3.0, 3.0), _log_uniform(-15.0, 1.0)).map(
        lambda t: (math.pi * t[0], 4.0, 1, t[1])),
    _log_uniform(-24.0, 2.0).map(lambda s: (1.5, 1.0, 2, s)),
    st.tuples(_log_uniform(-3.0, 3.0), _log_uniform(-1.0, 1.0), st.sampled_from([1, 2]),
              _log_uniform(-15.0, 3.0)),
)


def _interval(family, at_two, where, width):
    """[a, a + width] with a = 2, or a up to 8 times the d at which the erfc
    argument is 1, below 2**53."""
    num, c, j, s = family
    scale = (num / (c * s)) ** (1.0 / j)
    a = 2 if at_two else 2 + int(min(where * 8.0 * scale, 2.0**52))
    return a, a + width


def _p_prime(d, family):
    """dp/dd of p(d) = erfc(z), z = sqrt(num / (c d^j s)), at real d."""
    num, c, j, s = family
    z = np.sqrt(num / (c * d ** j * s))
    return j * z * np.exp(-z * z) / (d * math.sqrt(math.pi))


@settings(max_examples=150, deadline=None)
@given(family=_FAMILIES, k=st.sampled_from([1, 2]), at_two=st.booleans(),
       where=st.floats(0.0, 1.0), width=st.integers(0, 4096))
@example(family=(1.5, 1.0, 2, 100.0), k=1, at_two=True, where=0.0, width=3)  # p(2) = 0.93
def test_bound_plus_slack_covers_every_computed_rate(family, k, at_two, where, width):
    a, b = _interval(family, at_two, where, width)
    upper = dit_rate_bound(family, k, a, b)
    rates = [dit_rate(d, dit_error_prob(d, family), k) for d in range(a, b + 1)]
    assert max(rates) <= upper + dit_rates._BOUND_SLACK
    if dit_error_prob(a, family) >= (b - 1) / b:  # every rate on [a, b] is 0
        assert upper == 0.0 and set(rates) == {0.0}


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("a,b", [(2, 2), (2, 1000), (100, 5000), (4096, 10**6)])
def test_bound_is_the_top_rate_where_p_is_zero(k, a, b):
    # sigma^2 = 1e-10: p underflows to 0 for d below about 1.05e6, so every
    # rate on [a, b] is log2 d and the bound is the rate at b, bit for bit
    family = (math.pi, 4.0, 1, 1e-10)
    assert dit_error_prob(b, family) == 0.0
    assert dit_rate_bound(family, k, a, b) == math.log2(b) == dit_rate(b, 0.0, k)


@settings(max_examples=150, deadline=None)
@given(family=_FAMILIES, at_two=st.booleans(), where=st.floats(0.0, 1.0),
       width=st.integers(1, 4096))
def test_least_slope_of_p_is_at_an_end(family, at_two, where, width):
    # the mean-value bound takes min(p'(a), p'(b)) for the least p' on [a, b]
    a, b = _interval(family, at_two, where, width)
    ends = min(_p_prime(float(a), family), _p_prime(float(b), family))
    assert _p_prime(np.linspace(a, b, 8193), family).min() >= ends * (1.0 - 1e-12)
