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


def test_nonvanishing_obstacle_rejected_at_setup():
    cfg = RunConfig.from_dict(_base_doc(phi=[-1.0, 0.0, 2.0]))
    with pytest.raises(ConfigError):
        cfg.build_setup()


def test_unreadable_or_invalid_json(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(bad)


def test_write_config_helper_round_trips(tmp_path):
    path = write_config(tmp_path / "cfg.json")
    cfg = load_config(path)
    assert cfg.grid_n == 64
    assert cfg.schedule()[0] == 0.1
