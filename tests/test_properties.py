"""Every model the constructors accept is evaluated right or flagged.

Hypothesis draws models from the whole accepted box, far past the dU <= 12
of the default sweeps: alpha = 1 with dU log-uniform on [0.05, 700], fixed
dV on [2, 60] with alpha on [1, 40], and quartic dU on [0.2, 700], each at
x0 on [0.25, 4].  Every row must come back, every exact value it admits
must lie in the Collatz-Wielandt bracket of `exact.green_splitting`,
agree to 1e-11 with the trapezoid Green's-operator oracle of `helpers`
and stay below the localization bound, the splittings must not depend on
x0, and every failure must say what went wrong.
"""

import math

import pytest
from hypothesis import example, given, settings, strategies as st

from dwsplit import exact, experiments, models

from helpers import richardson_green


def build(family, value, alpha, x0):
    if family == "quartic":
        return models.QuarticMeanFieldModel(du=value, x0=x0)
    sigma = (models.sigma_for_du(value, x0) if family == "simple"
             else models.sigma_for_delta_v(value, alpha, x0))
    return models.TwoGaussianModel(sigma=sigma, x0=x0, alpha=alpha,
                                   allow_out_of_range=True)


log_du = st.floats(math.log(0.05), math.log(700.0)).map(math.exp)
families = st.one_of(
    st.tuples(st.just("simple"), log_du, st.just(1.0)),
    st.tuples(st.just("fixed_dv"), st.floats(2.0, 60.0), st.floats(1.0, 40.0)),
    st.tuples(st.just("quartic"), st.floats(0.2, 700.0), st.just(1.0)))
# (family, dU or dV, alpha, x0)
cases = st.tuples(families, st.floats(0.25, 4.0)).map(lambda c: (*c[0], c[1]))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(cases)
@example(("simple", 400.0, 1.0, 1.0))
@example(("quartic", 659.0, 1.0, 1.0))
def test_every_accepted_model_is_right_or_flagged(case):
    model = build(*case)
    row = experiments.evaluate(model)
    twin = experiments.evaluate(build(*case[:3], 1.0))

    assert all(isinstance(tag, str) and tag for tag in row.failures.values())
    value = row.splittings.get("exact")
    if value is not None:
        # at high barriers the bracket is a few ulps wide, and the value
        # is clamped into it
        view = models.meanfield_view(model)
        lower, upper = exact.green_splitting(view).bracket
        assert lower <= value <= upper
        assert value == pytest.approx(richardson_green(view), rel=1e-11)
        bound = row.splittings.get("localization")
        assert bound is None or bound >= value * (1.0 - 1e-12)
    assert set(row.splittings) == set(twin.splittings)
    for method, split in row.splittings.items():
        assert split == pytest.approx(twin.splittings[method], rel=1e-10)
