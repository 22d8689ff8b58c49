import pytest

from overparam.config import (
    ConfigError,
    RunConfig,
    apply_overrides,
    config_to_text,
    parse_config_text,
)

SAMPLE = """\
# glm fitting run
model.family = glm
model.n = 20
model.p = 50
model.activation = tanh_linear
model.activation_scale = 0.3
model.data_seed = 7

optimizer.kind = gd
optimizer.eta = auto
optimizer.iters = 2000
optimizer.seed = 1

diag.nu = 8
diag.lambda = 0.5
"""


def test_parse_sample():
    cfg = parse_config_text(SAMPLE)
    assert cfg.family == "glm"
    assert cfg.n == 20 and cfg.p == 50
    assert cfg.activation_scale == 0.3
    assert cfg.eta is None
    assert cfg.iters == 2000
    assert cfg.nu == 8.0


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config_text("model.family = glm\nmodel.bogus = 3\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("model.n = 3\nmodel.n = 4\n")


def test_malformed_line_rejected():
    with pytest.raises(ConfigError, match="key = value"):
        parse_config_text("model.family glm\n")


def test_bad_value_types_rejected():
    with pytest.raises(ConfigError):
        parse_config_text("model.n = three\n")
    with pytest.raises(ConfigError):
        parse_config_text("diag.anchors = maybe\n")
    with pytest.raises(ConfigError):
        parse_config_text("optimizer.eta = fast\n")


def test_domain_validation():
    with pytest.raises(ConfigError):
        parse_config_text("model.family = cubic\n")
    with pytest.raises(ConfigError):
        parse_config_text("optimizer.kind = adam\n")
    with pytest.raises(ConfigError):
        parse_config_text("diag.lambda = 1.5\n")


def test_round_trip_lossless():
    cfg = parse_config_text(SAMPLE)
    text = config_to_text(cfg)
    again = parse_config_text(text)
    assert again == cfg
    assert config_to_text(again) == text


def test_round_trip_with_numeric_eta_and_bools():
    cfg = RunConfig(family="linear", eta=0.5, anchors=True, identity_X=True)
    text = config_to_text(cfg)
    again = parse_config_text(text)
    assert again == cfg
    assert again.eta == 0.5
    assert "diag.anchors = on" in text
    assert "model.identity = on" in text


def test_overrides():
    cfg = parse_config_text(SAMPLE)
    new = apply_overrides(cfg, {"optimizer.eta": "0.25", "optimizer.iters": "10"})
    assert new.eta == 0.25
    assert new.iters == 10
    with pytest.raises(ConfigError):
        apply_overrides(cfg, {"nonsense.key": "1"})


def test_tol_auto():
    cfg = parse_config_text(SAMPLE)
    assert cfg.tol is None
    cfg2 = apply_overrides(cfg, {"optimizer.tol": "1e-8"})
    assert cfg2.tol == 1e-8


def test_comments_and_blank_lines_ignored():
    cfg = parse_config_text("\n# hi\nmodel.n = 5  # trailing comment\n\n")
    assert cfg.n == 5


def test_explicit_numbers_are_canonical():
    a = parse_config_text("optimizer.eta = 1e-3\ndiag.probe_radius = 2.50\n")
    b = parse_config_text("optimizer.eta = 0.001\ndiag.probe_radius = 2.5\n")
    assert a == b
    assert config_to_text(a) == config_to_text(b)
    assert "optimizer.eta = 0.001\n" in config_to_text(a)


def test_auto_round_trips_through_file_and_overrides():
    auto_keys = ("optimizer.eta", "optimizer.tol", "diag.probe_radius", "diag.anchor_count")
    cfg = parse_config_text("".join(f"{key} = auto\n" for key in auto_keys))
    assert (cfg.eta, cfg.tol, cfg.probe_radius, cfg.anchor_count) == (None,) * 4
    text = config_to_text(cfg)
    assert all(f"{key} = auto\n" in text for key in auto_keys)
    assert parse_config_text(text) == cfg == RunConfig()
    explicit = apply_overrides(cfg, dict(zip(auto_keys, ("0.5", "0", "1.5", "3"))))
    assert (explicit.eta, explicit.tol, explicit.probe_radius, explicit.anchor_count) == (
        0.5, 0.0, 1.5, 3)
    assert apply_overrides(explicit, {key: "auto" for key in auto_keys}) == cfg


@pytest.mark.parametrize("key", ["model.data_seed", "optimizer.seed"])
def test_negative_seeds_rejected_naming_the_key(key):
    with pytest.raises(ConfigError, match=f"^{key} must be >= 0, got -3$"):
        parse_config_text(f"{key} = -3\n")
    with pytest.raises(ConfigError, match=f"^{key} must be >= 0, got -1$"):
        apply_overrides(RunConfig(), {key: "-1"})
    assert apply_overrides(RunConfig(), {key: "0"}) == RunConfig()


@pytest.mark.parametrize("field, value", [
    ("eta", "x"), ("eta", "auto"), ("tol", True), ("probe_radius", [1.0]),
    ("anchor_count", 2.5), ("anchor_count", True),
])
def test_direct_construction_rejects_non_numbers(field, value):
    with pytest.raises(ConfigError):
        RunConfig(**{field: value})

