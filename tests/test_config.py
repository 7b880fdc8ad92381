import json
import logging
import re
import tracemalloc

import pytest
from helpers import invoke_cli, write_config

from abreu1d.cli import write_json
from abreu1d.config import ConfigError, RunConfig, load_config


def _base_doc(**overrides):
    doc = {
        "grid": {"n": 64, "a": -0.5, "b": 0.5},
        "phi": [-1.0, 0.0, 1.0],
        "lagrangian": {"preset": "rochet_chone", "eta0": [1.0]},
        "rho_minus": 0.5,
        "rho_plus": 0.5,
        "eps_schedule": [0.1, 0.05, 0.025],
        "tolerances": {"newton_tol_scale": 1e-10, "kkt_tol": 1e-8},
        "outputs": "out",
    }
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(doc.get(key), dict):
            doc[key] = {k: v for k, v in {**doc[key], **value}.items() if v is not None}
        else:
            doc[key] = value
    return doc


def test_round_trip_is_lossless(tmp_path):
    cfg = RunConfig.from_dict(_base_doc(eps_schedule=[0.1, 0.037, 1.25e-3]))
    path = tmp_path / "cfg.json"
    write_json(path, cfg.to_dict())
    cfg2 = load_config(path)
    assert cfg.to_dict() == cfg2.to_dict()
    assert cfg2.eps_schedule == [0.1, 0.037, 1.25e-3]


def test_zero_preset_round_trips_without_eta0(tmp_path):
    cfg = RunConfig.from_dict(_base_doc(lagrangian={"preset": "zero", "eta0": None}))
    assert "eta0" not in cfg.to_dict()["lagrangian"]
    write_json(tmp_path / "cfg.json", cfg.to_dict())
    assert load_config(tmp_path / "cfg.json").to_dict() == cfg.to_dict()


def test_schedule_forms():
    cfg = RunConfig.from_dict(
        _base_doc(eps_schedule={"start": 0.1, "ratio": 0.5, "stages": 4})
    )
    assert cfg.schedule() == [0.1, 0.05, 0.025, 0.0125]
    cfg = RunConfig.from_dict(_base_doc())
    assert cfg.schedule() == [0.1, 0.05, 0.025]


def test_build_setup_from_config():
    cfg = RunConfig.from_dict(_base_doc())
    setup = cfg.build_setup()
    assert setup.eps == 0.1
    assert setup.grid.n == 64
    assert setup.c0 == pytest.approx(2.0)


# Misspelled keys outside `tolerances`, with the key the error must name.
UNKNOWN_KEYS = [
    ({"tolerance": {"kkt_tol": 1e-30}}, "tolerance"),
    ({"grid": {"nn": 8}}, "nn"),
    ({"lagrangian": {"eta": [2.0]}}, "eta"),
    ({"eps_schedule": {"start": 0.1, "ratio": 0.5, "stages": 4, "stage": 3}}, "stage"),
]


NAN, INF = float("nan"), float("inf")
BIG = 10**400  # a JSON integer that no float holds

# Values that must not be ignored or truncated, with the field the error must name.
FIELD_ERRORS = [
    ({"lagrangian": {"preset": "zero", "eta0": [-5.0]}}, "eta0"),
    ({"lagrangian": {"preset": "custom:quartic"}}, "eta0"),
    ({"lagrangian": {"eta0": None}}, "eta0"),
    ({"grid": {"n": 64.9}}, "grid.n"),
    ({"grid": {"n": "64"}}, "grid.n"),
    ({"eps_schedule": {"start": 0.1, "ratio": 0.5, "stages": 3.7}}, "stages"),
    # JSON's NaN and Infinity, and tolerances that are not finite and > 0
    ({"rho_minus": NAN}, "rho_minus"),
    ({"phi": [-1.0, 0.0, NAN]}, "phi"),
    ({"lagrangian": {"eta0": [INF]}}, "eta0"),
    ({"grid": {"a": -INF}}, "grid.a"),
    ({"tolerances": {"kkt_tol": NAN}}, "kkt_tol"),
    ({"tolerances": {"newton_tol_scale": INF}}, "newton_tol_scale"),
    ({"tolerances": {"el_residual_tol": 0.0}}, "el_residual_tol"),
    ({"tolerances": {"convexity_floor_scale": -1e-3}}, "convexity_floor_scale"),
    # JSON booleans and strings are not numbers
    ({"rho_minus": True}, "rho_minus"),
    ({"rho_minus": "0.5"}, "rho_minus"),
    ({"phi": ["-1", 0, 1]}, "phi"),
    ({"grid": {"a": "-0.5"}}, "grid.a"),
    ({"tolerances": {"kkt_tol": "1e-8"}}, "kkt_tol"),
    ({"eps_schedule": {"start": "0.1", "ratio": 0.5, "stages": 4}}, "eps_schedule.start"),
    ({"eps_schedule": {"start": 0.1, "ratio": "0.5", "stages": 4}}, "eps_schedule.ratio"),
    ({"eps_schedule": [0.1, "0.05"]}, "eps_schedule"),
    # integers beyond the float range
    ({"rho_minus": BIG}, "rho_minus"),
    ({"phi": [-1.0, 0.0, BIG]}, "phi"),
    ({"lagrangian": {"eta0": [BIG]}}, "eta0"),
    ({"grid": {"a": -BIG}}, "grid.a"),
    ({"tolerances": {"kkt_tol": BIG}}, "kkt_tol"),
    ({"eps_schedule": {"start": 0.1, "ratio": BIG, "stages": 4}}, "eps_schedule.ratio"),
]

# Documents that `RunConfig.from_dict` rejects.
INVALID_PATCHES = [
    {"lagrangian": {"preset": "unknown"}},
    {"eps_schedule": [0.1, 0.2]},
    {"eps_schedule": [0.1, 0.05, 1.5]},
    {"eps_schedule": "oops"},
    {"eps_schedule": ["0.1", "x"]},
    {"eps_schedule": [0.1, None]},
    {"tolerances": {"kkt_tol": "tight"}},
    {"tolerances": {"newton_tol": 1e-30}},
    *(patch for patch, _ in UNKNOWN_KEYS),
    *(patch for patch, _ in FIELD_ERRORS),
    {"eps_schedule": []},
    {"eps_schedule": {"start": 0.1, "ratio": 0.5, "stages": 0}},
    # schedules refused before their 10**400 values would be listed
    {"eps_schedule": {"start": 0.1, "ratio": 0.5, "stages": BIG}},
    {"eps_schedule": {"start": 0.1, "ratio": 1.0, "stages": BIG}},
    {"eps_schedule": {"start": 1.5, "ratio": 0.5, "stages": BIG}},
]


@pytest.mark.parametrize("patch", INVALID_PATCHES)
def test_invalid_configs_rejected(patch):
    with pytest.raises(ConfigError):
        RunConfig.from_dict(_base_doc(**patch))


@pytest.mark.parametrize("stages", [3_000_000, BIG], ids=["3e6", "1e400"])
def test_underflowing_schedule_is_refused_before_it_is_listed(stages):
    # its last value underflows to 0; listing 3 000 000 values took 143 MB
    doc = _base_doc(eps_schedule={"start": 0.1, "ratio": 0.5, "stages": stages})
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match=re.escape("must lie in (0, 1), got 0.0")):
            RunConfig.from_dict(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize(
    "patch, key", [*UNKNOWN_KEYS, ({"tolerances": {"newton_tol": 1e-30}}, "newton_tol")]
)
def test_unknown_key_is_named(patch, key):
    with pytest.raises(ConfigError, match=rf"^unknown \w+ keys: {key}$"):
        RunConfig.from_dict(_base_doc(**patch))


@pytest.mark.parametrize("patch, name", FIELD_ERRORS)
def test_malformed_field_is_named(patch, name):
    with pytest.raises(ConfigError, match=rf"\b{name}\b"):
        RunConfig.from_dict(_base_doc(**patch))


def _without_phi():
    doc = _base_doc()
    del doc["phi"]
    return doc


def test_missing_field_rejected():
    with pytest.raises(ConfigError):
        RunConfig.from_dict(_without_phi())


# Rules that only `build_setup` enforces, through the grid, Lagrangian and
# setup builders, with the builder's message the ConfigError must carry.
SETUP_ERRORS = {
    "odd-n": ({"grid": {"n": 63}}, "need even n >= 16"),
    "n-8": ({"grid": {"n": 8}}, "need even n >= 16"),
    "window-at-boundary": ({"grid": {"a": -0.999}}, "window endpoints snapped to the boundary"),
    "window-too-small": ({"grid": {"a": -0.01, "b": 0.01}}, "window too small"),
    "negative-weight": ({"lagrangian": {"eta0": [-1.0]}}, "negative weight"),
    "nonvanishing-obstacle": ({"phi": [-1.0, 0.0, 2.0]}, "must vanish at the boundary"),
    "flat-obstacle": ({"phi": [0.0]}, "not uniformly convex"),
    "nonpositive-rho": ({"rho_minus": 0.0}, "boundary data must be positive: rho+- > 0"),
    "reversed-window": ({"grid": {"a": 0.5, "b": 0.4}}, "bad domain: need -1 < a < b < 1"),
    "window-outside-domain": ({"grid": {"a": -1.5}}, "bad domain: need -1 < a < b < 1"),
    "n-beyond-float-range": ({"grid": {"n": BIG}},
                             "n is too large for numpy to hold n + 1 float nodes"),
    "empty-obstacle": ({"phi": []}, "phi must have at least one coefficient"),
    "empty-weight": ({"lagrangian": {"eta0": []}}, "eta0 must have at least one coefficient"),
    # phi'' >= 5.4e-3 at the nodes, but the one-sided d2 at node 16 is -7.0e-4,
    # and Newton starts from phi
    "obstacle-d2-nonpositive": (
        {"grid": {"n": 16}, "phi": [-0.113911, 0.066617, 0.096184, -0.066617, 0.017727]},
        "obstacle is not convex on the grid: d2(phi) = -0.0007",
    ),
    # eta0 = (x - 1/16)^2 - 1e-3 is >= 2.9e-3 at the nodes of n = 16, but the
    # oracle's cell quadrature evaluates it at the midpoint x = 1/16
    "negative-weight-at-midpoint": (
        {"grid": {"n": 16}, "lagrangian": {"eta0": [1.0 / 256.0 - 1e-3, -0.125, 1.0]}},
        "negative weight: eta0(0.0625) = -0.001",
    ),
}


@pytest.mark.parametrize("patch, message", SETUP_ERRORS.values(), ids=SETUP_ERRORS.keys())
def test_setup_rule_rejected_at_build_setup(patch, message):
    cfg = RunConfig.from_dict(_base_doc(**patch))
    with pytest.raises(ConfigError, match=re.escape(message)) as exc:
        cfg.build_setup()
    assert not isinstance(exc.value.__cause__, ConfigError)
    assert str(exc.value) == str(exc.value.__cause__)


# Files that `load_config` rejects before `from_dict` sees a field, with the
# start of the error.
INVALID_FILES = {
    "not-json": (b"{not json", "config is not valid JSON"),
    "integer-over-4300-digits": (b'{"rho_minus": 1' + b"0" * 4300 + b"}",
                                 "config is not valid JSON"),
    "not-utf8": (b'{"outputs": "\xff"}', "config is not valid JSON"),
    "nested-too-deep": (b"[" * 100_000 + b"]" * 100_000, "config is not valid JSON"),
    "list": (b"[]", "config must be a mapping$"),
    "string": (b'"text"', "config must be a mapping$"),
    "number": (b"3", "config must be a mapping$"),
}


def test_unreadable_or_invalid_json(tmp_path):
    with pytest.raises(ConfigError, match="^cannot read config"):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    for data, message in INVALID_FILES.values():
        bad.write_bytes(data)
        with pytest.raises(ConfigError, match=f"^{message}"):
            load_config(bad)


# Every document this module rejects, as the bytes of a config file.
REJECTED_FILES = {
    **{f"from_dict-{k}": json.dumps(_base_doc(**patch)).encode()
       for k, patch in enumerate(INVALID_PATCHES)},
    "from_dict-missing-phi": json.dumps(_without_phi()).encode(),
    **{f"build_setup-{name}": json.dumps(_base_doc(**patch)).encode()
       for name, (patch, _) in SETUP_ERRORS.items()},
    **{f"load_config-{name}": data for name, (data, _) in INVALID_FILES.items()},
}


@pytest.mark.parametrize("data", REJECTED_FILES.values(), ids=REJECTED_FILES.keys())
def test_rejected_config_is_one_logged_error(tmp_path, caplog, data):
    path = tmp_path / "cfg.json"
    path.write_bytes(data)
    with caplog.at_level(logging.ERROR, logger="abreu1d"):
        assert invoke_cli("sweep", "--config", path, "--out", tmp_path / "out") == 1
    [record] = caplog.records
    assert record.levelname == "ERROR" and record.exc_info is None
    assert not (tmp_path / "out").exists()


def test_write_config_helper_round_trips(tmp_path):
    path = write_config(tmp_path / "cfg.json")
    cfg = load_config(path)
    assert cfg.grid_n == 64
    assert cfg.schedule()[0] == 0.1
