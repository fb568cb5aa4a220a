"""WorldConfig rejects out-of-range values when it is built."""

import math

import pytest

from repro.platform import WorldConfig


@pytest.mark.parametrize("field, value", [
    ("scale", 0.0),
    ("scale", -1.0),
    ("scale", math.nan),
    ("scale", math.inf),
    ("baseline_sample_cap", -5),
    ("baseline_sample_cap", 0),
    ("mean_comment_tokens", 0.0),
    ("mean_comment_tokens", -3.0),
    ("mean_comment_tokens", math.nan),
    ("mean_comment_tokens", math.inf),
    ("fault_timeout_rate", -0.01),
    ("fault_timeout_rate", 1.5),
    ("fault_timeout_rate", math.nan),
    ("fault_error_rate", -0.01),
    ("fault_error_rate", 1.01),
    ("fault_error_rate", math.nan),
])
def test_bad_value_rejected(field, value):
    with pytest.raises(ValueError, match=field):
        WorldConfig(**{field: value})


def test_epochs_must_be_ordered():
    with pytest.raises(ValueError, match="epochs"):
        WorldConfig(epoch_dissenter=1_400_000_000.0)


@pytest.mark.parametrize("field, value", [
    ("scale", 1e-4),
    ("baseline_sample_cap", 1),
    ("mean_comment_tokens", 0.5),
    ("fault_timeout_rate", 0.0),
    ("fault_error_rate", 1.0),
])
def test_boundary_values_accepted(field, value):
    assert getattr(WorldConfig(**{field: value}), field) == value
