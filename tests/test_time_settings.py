"""The time-step rules have one owner, `SimulationSettings`, behind two entry points.

The library type and the config's `time` section refuse the same values,
with messages that name the field (`dt: ...` and `time.dt: ...`).  Non-finite
settings once passed the library type and failed inside `Simulator.run`
with an OverflowError or a NaN-to-integer ValueError.
"""

import math

import pytest

from slabflow.config import ConfigError, parse_config
from slabflow.simulate import SimulationSettings

GOOD = {"dt": 0.002, "horizon": 0.01, "output_interval": 5, "scheme": "backward-euler"}


def raw(time):
    return {"density": {"family": "area"}, "grid": {"n": 2, "N": 16, "M_v": 12}, "time": time}


@pytest.mark.parametrize("field", ["dt", "horizon"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_library_refuses_non_finite(field, value):
    with pytest.raises(ValueError, match=f"^{field}: "):
        SimulationSettings(**{**GOOD, field: value})


@pytest.mark.parametrize("field, value", [
    ("dt", 0.0),
    ("dt", -1.0),
    ("horizon", 0.001),
    ("output_interval", 0),
    ("scheme", "leapfrog"),
])
def test_one_rule_two_entry_points(field, value):
    bad = {**GOOD, field: value}
    with pytest.raises(ValueError, match=f"^{field}: ") as lib:
        SimulationSettings(**bad)
    with pytest.raises(ConfigError, match=f"^time.{field}: ") as cfg:
        parse_config(raw(bad))
    assert str(cfg.value) == f"time.{lib.value}"


def test_record_ed_is_not_a_config_key():
    with pytest.raises(ConfigError, match=r"^time: unknown key\(s\) \['record_ed'\]$"):
        parse_config(raw({"record_ed": False}))


def test_time_section_is_the_library_settings():
    time = parse_config(raw(GOOD)).time
    assert type(time) is SimulationSettings
    assert time == SimulationSettings(**GOOD)
    assert parse_config(raw({})).time == SimulationSettings()
