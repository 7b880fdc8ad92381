import re

import pytest
from helpers import write_config

from abreu1d.config import ConfigError, RunConfig, load_config, save_config


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
    save_config(cfg, path)
    cfg2 = load_config(path)
    assert cfg.to_dict() == cfg2.to_dict()
    assert cfg2.eps_schedule == [0.1, 0.037, 1.25e-3]


def test_zero_preset_round_trips_without_eta0(tmp_path):
    cfg = RunConfig.from_dict(_base_doc(lagrangian={"preset": "zero", "eta0": None}))
    assert "eta0" not in cfg.to_dict()["lagrangian"]
    save_config(cfg, tmp_path / "cfg.json")
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
]


@pytest.mark.parametrize(
    "patch",
    [
        {"rho_minus": 0.0},
        {"grid": {"a": 0.5, "b": 0.4}},
        {"grid": {"a": -1.5}},
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
    ],
)
def test_invalid_configs_rejected(patch):
    with pytest.raises(ConfigError):
        RunConfig.from_dict(_base_doc(**patch))


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


def test_missing_field_rejected():
    doc = _base_doc()
    del doc["phi"]
    with pytest.raises(ConfigError):
        RunConfig.from_dict(doc)


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
}


@pytest.mark.parametrize("patch, message", SETUP_ERRORS.values(), ids=SETUP_ERRORS.keys())
def test_setup_rule_rejected_at_build_setup(patch, message):
    cfg = RunConfig.from_dict(_base_doc(**patch))
    with pytest.raises(ConfigError, match=re.escape(message)) as exc:
        cfg.build_setup()
    assert not isinstance(exc.value.__cause__, ConfigError)
    assert str(exc.value) == str(exc.value.__cause__)


def test_unreadable_or_invalid_json(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(bad)
    for text in ("[]", '"text"', "3"):
        bad.write_text(text, encoding="utf-8")
        with pytest.raises(ConfigError, match="^config must be a mapping$"):
            load_config(bad)


def test_write_config_helper_round_trips(tmp_path):
    path = write_config(tmp_path / "cfg.json")
    cfg = load_config(path)
    assert cfg.grid_n == 64
    assert cfg.schedule()[0] == 0.1
