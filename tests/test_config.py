import re
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from overparam.cli import build_model
from overparam.config import (
    MODEL_FAMILIES,
    OPTIMIZER_KINDS,
    REGIMES,
    ConfigError,
    RunConfig,
    apply_overrides,
    config_to_text,
    load_config,
    parse_config_text,
    save_config,
)
from overparam.models import ACTIVATIONS

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
    for text, message in (
        ("model.n = 0\n", "model.n must be >= 1, got 0"),
        ("model.family = glm\nmodel.p = 0\n", "model.p must be >= 1, got 0"),
        ("model.family = lowrank\nmodel.d = 0\nmodel.r = 1\n", "model.d must be >= 1, got 0"),
        ("model.family = lowrank\nmodel.d = 3\nmodel.r = 4\n",
         "model.r must be in [1, model.d = 3], got 4"),
        ("model.family = net\nmodel.d = 3\nmodel.k = 0\n", "model.k must be >= 1, got 0"),
        ("model.family = glm\nmodel.activation = cubic\n", "model.activation must be one of "),
        ("model.family = net\nmodel.d = 3\nmodel.k = 2\nmodel.activation_scale = 1.5\n",
         "model.activation_scale must be valid for tanh_linear "
         "(tanh_linear needs 0 <= c < 1, got 1.5)"),
    ):
        with pytest.raises(ConfigError) as refused:
            parse_config_text(text)
        assert str(refused.value).startswith(message)
    # Keys a family does not read are not checked.
    parse_config_text("model.family = linear\nmodel.activation = cubic\nmodel.d = -1\n")


def test_round_trip_lossless(tmp_path):
    cfg = parse_config_text(SAMPLE)
    text = config_to_text(cfg)
    again = parse_config_text(text)
    assert again == cfg
    assert config_to_text(again) == text
    save_config(cfg, tmp_path / "saved.cfg")
    assert (tmp_path / "saved.cfg").read_text(encoding="utf-8") == text
    assert load_config(tmp_path / "saved.cfg") == cfg


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


_CONFIG_KEYS = {line.split(" = ")[0] for line in config_to_text(RunConfig()).splitlines()}
_SIZES = st.integers(-1, 6)


@settings(max_examples=200, deadline=None)
@given(family=st.sampled_from(MODEL_FAMILIES), n=_SIZES, p=_SIZES, d=_SIZES, r=_SIZES,
       k=_SIZES, activation=st.sampled_from([*ACTIVATIONS, "cubic"]),
       scale=st.floats(-0.5, 1.5), identity=st.booleans())
def test_model_config_is_refused_at_load_or_builds(family, n, p, d, r, k, activation, scale,
                                                   identity):
    """A model config either fails to load, naming a key, or builds with its sizes."""
    text = (f"model.family = {family}\nmodel.n = {n}\nmodel.p = {p}\nmodel.d = {d}\n"
            f"model.r = {r}\nmodel.k = {k}\nmodel.activation = {activation}\n"
            f"model.activation_scale = {scale!r}\n"
            f"model.identity = {'on' if identity else 'off'}\n")
    try:
        cfg = parse_config_text(text)
    except ConfigError as exc:
        assert str(exc).split(" ")[0] in _CONFIG_KEYS
        return
    model, theta0 = build_model(cfg)
    expected_p = {"linear": p, "glm": p, "lowrank": d * r, "net": k * d}[family]
    assert (model.n, model.p, theta0.shape) == (n, expected_p, (expected_p,))
    assert min(model.n, model.p) >= 1


# ---------------------------------------------------------------------------
# The schema: each key declared once, on its RunConfig field
# ---------------------------------------------------------------------------

# Every key in canonical order with its default; the last line ends in "= ".
DEFAULT_TEXT = """\
model.family = linear
model.n = 10
model.p = 20
model.d = 0
model.r = 0
model.k = 0
model.activation = tanh_linear
model.activation_scale = 0.29999999999999999
model.identity = off
model.data_seed = 0
optimizer.kind = gd
optimizer.eta = auto
optimizer.iters = 200
optimizer.tol = auto
optimizer.seed = 0
optimizer.record_every = 1
diag.probe_samples = 64
diag.probe_radius = auto
diag.nu = 8
diag.lambda = 0.5
diag.regime = bounded
diag.anchor_count = auto
diag.anchors = off
""" + "output.dir = \n"
SCHEMA_KEYS = [f.metadata["key"] for f in fields(RunConfig)]


def test_every_field_has_one_key_and_the_defaults_print_canonically():
    assert all(set(f.metadata) == {"key"} for f in fields(RunConfig))
    assert len(SCHEMA_KEYS) == len(set(SCHEMA_KEYS)) == 24
    assert config_to_text(RunConfig()) == DEFAULT_TEXT
    assert [line.split(" = ")[0] for line in DEFAULT_TEXT.splitlines()] == SCHEMA_KEYS
    assert parse_config_text(DEFAULT_TEXT) == RunConfig()


# What `key = auto` does for each key that is not typed X | None: a number or an
# on/off key refuses it as its type, a word key reads it as the word.
_INTEGER_KEYS = ("model.n", "model.p", "model.d", "model.r", "model.k", "model.data_seed",
                 "optimizer.iters", "optimizer.seed", "optimizer.record_every",
                 "diag.probe_samples")
_AUTO_REFUSED = {
    **{key: f"{key} must be an integer, got 'auto'" for key in _INTEGER_KEYS},
    **{key: f"{key} must be a number, got 'auto'"
       for key in ("model.activation_scale", "diag.nu", "diag.lambda")},
    **{key: f"{key} must be on/off, got 'auto'" for key in ("model.identity", "diag.anchors")},
    "model.family": f"model.family must be one of {MODEL_FAMILIES}, got 'auto'",
    "optimizer.kind": f"optimizer.kind must be one of {OPTIMIZER_KINDS}, got 'auto'",
    "diag.regime": f"diag.regime must be one of {REGIMES}, got 'auto'",
}
_AUTO_AS_A_WORD = {"model.activation": "activation", "output.dir": "out_dir"}
_AUTO_TAKEN = {"optimizer.eta": "eta", "optimizer.tol": "tol",
               "diag.probe_radius": "probe_radius", "diag.anchor_count": "anchor_count"}


def test_auto_is_taken_by_exactly_the_fields_typed_x_or_none():
    optional = {f.metadata["key"] for f in fields(RunConfig) if "None" in str(f.type)}
    assert optional == set(_AUTO_TAKEN)
    assert sorted([*_AUTO_REFUSED, *_AUTO_AS_A_WORD, *_AUTO_TAKEN]) == sorted(SCHEMA_KEYS)


@pytest.mark.parametrize("key", SCHEMA_KEYS)
def test_each_key_reads_auto_as_it_always_has(key):
    if key in _AUTO_REFUSED:
        for load in (lambda: parse_config_text(f"{key} = auto\n"),
                     lambda: apply_overrides(RunConfig(), {key: "auto"})):
            with pytest.raises(ConfigError) as refused:
                load()
            assert str(refused.value) == _AUTO_REFUSED[key]
        return
    cfg = parse_config_text(f"{key} = auto\n")
    assert cfg == apply_overrides(RunConfig(), {key: "auto"})
    if key in _AUTO_TAKEN:
        assert getattr(cfg, _AUTO_TAKEN[key]) is None
        assert f"{key} = auto\n" in config_to_text(cfg)
    else:
        assert getattr(cfg, _AUTO_AS_A_WORD[key]) == "auto"


_RAW_VALUES = st.one_of(
    st.sampled_from(["auto", "on", "off"]),
    st.integers().map(str),
    st.floats().map(repr),  # nan, inf and -inf included
    st.sampled_from([*MODEL_FAMILIES, *OPTIMIZER_KINDS, *REGIMES, *ACTIVATIONS]),
    st.from_regex(r"[A-Za-z_]{1,12}", fullmatch=True),
)


@settings(max_examples=300, deadline=None)
@given(key=st.sampled_from(SCHEMA_KEYS), raw=_RAW_VALUES)
def test_a_key_value_is_refused_naming_a_key_or_prints_a_fixed_point(key, raw):
    """A value either fails to load, naming a key, the same from a file and as an
    override, or loads to a config whose canonical text parses back to itself."""
    try:
        cfg = parse_config_text(f"{key} = {raw}\n")
    except ConfigError as exc:
        assert str(exc).split(" ")[0] in SCHEMA_KEYS
        with pytest.raises(ConfigError, match=f"^{re.escape(str(exc))}$"):
            apply_overrides(RunConfig(), {key: raw})
        return
    text = config_to_text(cfg)
    assert config_to_text(apply_overrides(RunConfig(), {key: raw})) == text
    assert config_to_text(parse_config_text(text)) == text


def test_readme_names_every_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    missing = [key for key in SCHEMA_KEYS
               if not re.search(rf"(?<![\w.]){re.escape(key)}(?![\w])", readme)]
    assert missing == []
