"""The shared input rule check_positive: scalars and arrays."""

import math

import numpy as np
import pytest

from casimir.errors import DomainError, check_positive


@pytest.mark.parametrize("value, shown", [
    (-1, "-1"), (0.0, "0.0"), (math.nan, "nan"), (math.inf, "inf"),
    (np.float64(-2.5), "-2.5"),
], ids=["int", "zero", "nan", "inf", "float64"])
def test_scalar_is_named_as_given(value, shown):
    with pytest.raises(DomainError) as excinfo:
        check_positive("temperature", value)
    assert str(excinfo.value) == f"temperature must be finite and > 0, got {shown}"


@pytest.mark.parametrize("value, shown", [
    ([1.0, -3.0, math.nan], "-3.0"),
    (np.array([[1.0, 2.0], [math.inf, 0.0]]), "inf"),
    (np.array([2.0, math.nan]), "nan"),
], ids=["list", "2-d", "array-nan"])
def test_array_names_first_bad_element(value, shown):
    with pytest.raises(DomainError) as excinfo:
        check_positive("zeta", value)
    assert str(excinfo.value) == f"zeta must be finite and > 0, got {shown}"


@pytest.mark.parametrize("value", [300.0, 1, np.float64(5e-324), np.array(2.0),
                                   [5.0], np.geomspace(1e-300, 1e300, 7)],
                         ids=["float", "int", "subnormal", "0-d", "list", "array"])
def test_finite_positive_values_pass(value):
    check_positive("zeta", value)
