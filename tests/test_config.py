import re
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from timelens import units
from timelens.config import ConfigError, parse_config_text

import oracles

GOOD = """
[input]
signal_center = 811.006 nm
signal_bandwidth = 1.840 THz
herald_center = 740.194 nm
herald_bandwidth = 2.034 THz
correlation = -0.9776

[escort]
center = 774.6 nm
bandwidth = 2.766 THz
chirp = -344e3 fs^2

[lens]
signal_chirp = 696e3 fs^2
output_chirp = solve

[phasematching]
sigma = infinite

[delay]
tau = 0.5 ps
sweep_start = -2 ps
sweep_stop = 2 ps
sweep_points = 5

[grid]
n = 256
span = 6

[analysis]
resolution_signal = 0.136 nm
resolution_herald = 0.148 nm
trials = 100
seed = 7
"""


def test_parse_good_config():
    cfg = parse_config_text(GOOD)
    assert cfg.state.omega1 == pytest.approx(oracles.OMEGA1, rel=1e-12)
    assert cfg.state.sigma1 == pytest.approx(4.909e12, rel=1e-3)
    assert cfg.state.sigmah == pytest.approx(5.427e12, rel=1e-3)
    assert cfg.state.rho == -0.9776
    assert cfg.lens.signal_chirp == pytest.approx(6.96e-25, rel=1e-12)
    assert cfg.lens.escort.chirp == pytest.approx(-3.44e-25, rel=1e-12)
    assert cfg.lens.escort.sigma == pytest.approx(7.380e12, rel=1e-3)
    assert cfg.lens.output_chirp == pytest.approx(6.8018e-25, rel=1e-4)
    assert cfg.lens.phasematching.is_infinite
    assert cfg.tau == pytest.approx(0.5e-12)
    assert cfg.sweep == (pytest.approx(-2e-12), pytest.approx(2e-12), 5)
    assert cfg.grid.n == 256
    assert cfg.analysis.resolution_signal_nm == pytest.approx(0.136)
    assert cfg.analysis.trials == 100


def test_sigma_keys_instead_of_bandwidth():
    text = GOOD.replace("bandwidth = 2.766 THz", "sigma = 7.38e12 rad/s")
    cfg = parse_config_text(text)
    assert cfg.lens.escort.sigma == 7.38e12


def test_missing_unit_names_key():
    text = GOOD.replace("chirp = -344e3 fs^2", "chirp = -344e3")
    with pytest.raises(ConfigError, match=r"\[escort\] chirp"):
        parse_config_text(text)


def test_unknown_unit_rejected():
    text = GOOD.replace("signal_chirp = 696e3 fs^2", "signal_chirp = 696e3 furlongs")
    with pytest.raises(ConfigError, match="signal_chirp"):
        parse_config_text(text)


def test_unknown_key_rejected():
    text = GOOD.replace("n = 256", "n = 256\nmystery = 1")
    with pytest.raises(ConfigError, match="mystery"):
        parse_config_text(text)


def test_unknown_section_rejected():
    with pytest.raises(ConfigError, match="detector"):
        parse_config_text(GOOD + "\n[detector]\nefficiency = 0.5\n")


def test_missing_required_section():
    text = GOOD.replace("[escort]", "[_escort_disabled]", 1)
    with pytest.raises(ConfigError):
        parse_config_text(text)


def test_missing_required_key():
    text = GOOD.replace("correlation = -0.9776\n", "")
    with pytest.raises(ConfigError, match="correlation"):
        parse_config_text(text)


def test_both_width_forms_rejected():
    text = GOOD.replace(
        "signal_bandwidth = 1.840 THz",
        "signal_bandwidth = 1.840 THz\nsignal_sigma = 4.9e12 rad/s",
    )
    with pytest.raises(ConfigError, match="not both"):
        parse_config_text(text)


def test_dimensionless_with_unit_rejected():
    text = GOOD.replace("correlation = -0.9776", "correlation = -0.9776 nm")
    with pytest.raises(ConfigError, match="correlation"):
        parse_config_text(text)


def test_invalid_rho_rejected():
    text = GOOD.replace("correlation = -0.9776", "correlation = -1.5")
    with pytest.raises(ConfigError, match="input"):
        parse_config_text(text)


def test_incomplete_sweep_rejected():
    text = GOOD.replace("sweep_points = 5\n", "")
    with pytest.raises(ConfigError, match="sweep"):
        parse_config_text(text)


def test_sweep_points_above_maximum_rejected():
    # each delay is one convolution, so an unbounded count meant hours of run time
    most = GOOD.replace("sweep_points = 5", "sweep_points = 10000")
    assert parse_config_text(most).sweep[2] == 10000
    message = r"\[delay\] sweep_points: at most 10000 points, got 10001"
    with pytest.raises(ConfigError, match=message):
        parse_config_text(GOOD.replace("sweep_points = 5", "sweep_points = 10001"))


def test_too_few_trials_rejected():
    with pytest.raises(ConfigError, match="trials"):
        parse_config_text(GOOD.replace("trials = 100", "trials = 1"))


@pytest.mark.parametrize("value", ["15", "8", "0", "-4"])
@pytest.mark.parametrize("key", ["n", "herald_n", "output_n"])
def test_grid_below_16_samples_rejected(key, value):
    text = GOOD.replace("n = 256", f"{key} = {value}")
    with pytest.raises(ConfigError, match=rf"\[grid\] {key}: need at least 16 samples"):
        parse_config_text(text)
    assert getattr(parse_config_text(GOOD.replace("n = 256", f"{key} = 16")).grid, key) == 16


@pytest.mark.parametrize("value", ["-1", "-3"])
def test_negative_seed_rejected(value):
    with pytest.raises(ConfigError, match=r"\[analysis\] seed: need at least 0"):
        parse_config_text(GOOD.replace("seed = 7", f"seed = {value}"))
    assert parse_config_text(GOOD.replace("seed = 7", "seed = 0")).analysis.seed == 0


@pytest.mark.parametrize("dropped", ["resolution_signal", "resolution_herald"])
def test_resolutions_come_in_pairs(dropped):
    text = "\n".join(ln for ln in GOOD.splitlines() if not ln.startswith(dropped))
    with pytest.raises(ConfigError, match="give both resolution_signal and resolution_herald"):
        parse_config_text(text)


def test_resolutions_in_nm_read_bit_for_bit():
    # a resolution given in nm is the value --res-signal reads from the same
    # digits; an nm -> m -> nm round trip read 0.0741 as 0.07410000000000001
    text = (resources.files("timelens") / "configs" / "experimental.cfg").read_text()
    assert "resolution_signal = 0.0741 nm" in text and "resolution_herald = 0.148 nm" in text
    analysis = parse_config_text(text).analysis
    assert analysis.resolution_signal_nm == 0.0741
    assert analysis.resolution_herald_nm == 0.148
    text = GOOD.replace("resolution_signal = 0.136 nm", "resolution_signal = 0.14 nm")
    text = text.replace("resolution_herald = 0.148 nm", "resolution_herald = 0.0741 um")
    analysis = parse_config_text(text).analysis
    assert analysis.resolution_signal_nm == 0.14
    assert analysis.resolution_herald_nm == pytest.approx(74.1, rel=1e-15)


@pytest.mark.parametrize("fwhm_nm", [3.0, 0.14])
def test_bandwidth_in_nm_read_bit_for_bit(fwhm_nm):
    # an nm -> m -> nm round trip read 3 nm as 3.0000000000000004
    text = GOOD.replace("signal_bandwidth = 1.840 THz", f"signal_bandwidth = {fwhm_nm} nm")
    state = parse_config_text(text).state
    center_nm = units.angular_to_wavelength(state.omega1) * 1e9
    assert state.sigma1 == units.fwhm_nm_to_sigma_rad(fwhm_nm, center_nm)


def test_auto_grid():
    text = GOOD.replace("n = 256", "n = auto")
    assert parse_config_text(text).grid.n is None


def test_phasematching_finite():
    text = GOOD.replace("sigma = infinite", "sigma = 9.1e12 rad/s")
    cfg = parse_config_text(text)
    assert cfg.lens.phasematching.sigma == 9.1e12


@pytest.mark.parametrize("value", ["1 THz", "1 nm", "6.28e12"])
def test_phasematching_sigma_only_in_rad_s(value):
    # a THz value was once read as a FWHM; the width is a sigma in rad/s
    text = GOOD.replace("sigma = infinite", f"sigma = {value}")
    with pytest.raises(ConfigError, match=r"\[phasematching\] sigma: .*rad/s or 'infinite'"):
        parse_config_text(text)


def test_bundled_configs_parse():
    for name in ("experimental.cfg", "ideal.cfg", "filterlimit.cfg", "longcrystal.cfg"):
        text = (resources.files("timelens") / "configs" / name).read_text()
        cfg = parse_config_text(text)
        assert cfg.state.sigma1 > 0


_BUNDLED = tuple(
    (resources.files("timelens") / "configs" / name).read_text()
    for name in ("experimental.cfg", "ideal.cfg", "filterlimit.cfg", "longcrystal.cfg")
)

# numbers that get past the number parser but not the physics
_EDGE_NUMBERS = ["0", "-0.0", "-1", "1e-300", "1e300", "nan", "inf", "-inf"]
_NUMBER = st.one_of(
    st.sampled_from(_EDGE_NUMBERS), st.floats(allow_nan=True, allow_infinity=True).map(repr)
)
_UNIT = st.sampled_from(
    ["", "nm", "um", "m", "THz", "rad/s", "fs", "ps", "s", "fs^2", "ps^2", "s^2", "Hz"]
)


def _keyed_lines(text):
    """(line index, key, unit of the bundled value) of every key line."""
    lines = text.splitlines()
    for i, line in enumerate(lines):
        if " = " in line and not line.startswith("#"):
            key, value = line.split(" = ", 1)
            yield i, key, " ".join(value.split("#")[0].split()[1:])


def _with_value(text, i, key, value):
    lines = text.splitlines()
    lines[i] = f"{key} = {value}"
    return "\n".join(lines)


def _parses_or_config_error(text):
    try:
        parse_config_text(text)
    except ConfigError:
        pass


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.text())
def test_arbitrary_text_parses_or_config_error(text):
    _parses_or_config_error(text)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_bundled_config_with_one_value_replaced(data):
    text = data.draw(st.sampled_from(_BUNDLED))
    i, key, unit = data.draw(st.sampled_from(list(_keyed_lines(text))))
    value = data.draw(
        st.one_of(
            st.text(),
            st.builds("{} {}".format, _NUMBER, _UNIT),
            _NUMBER.map(lambda number: f"{number} {unit}"),
        )
    )
    _parses_or_config_error(_with_value(text, i, key, value))


@pytest.mark.parametrize("number", _EDGE_NUMBERS)
def test_edge_number_in_every_bundled_key(number):
    # each key keeps its unit, so the number reaches the physics checks
    for text in _BUNDLED:
        for i, key, unit in _keyed_lines(text):
            _parses_or_config_error(_with_value(text, i, key, f"{number} {unit}"))


@pytest.mark.parametrize("number", ["nan", "inf", "-inf"])
def test_non_finite_number_in_every_bundled_key(number):
    # each key keeps its unit; the number parser refuses the value and
    # names the key, before any unit conversion or physics sees it
    for text in _BUNDLED:
        for i, key, unit in _keyed_lines(text):
            with pytest.raises(ConfigError, match=rf"\] {re.escape(key)}: expected a finite number"):
                parse_config_text(_with_value(text, i, key, f"{number} {unit}"))
