import math
from pathlib import Path

import pytest

from meshseg.config import (
    ConfigKeyError,
    apply_overrides,
    format_config,
    parse_config_file,
)
from meshseg.model import ModelConfig
from meshseg.training import TrainConfig
from meshseg.verify import desk_model_config, desk_train_config

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def parse(tmp_path, text):
    path = tmp_path / "settings.cfg"
    path.write_text(text)
    return parse_config_file(path)


def test_parse_basic_settings(tmp_path):
    text = """
    # comment line
    model.num_classes = 5
    model.stream_widths = 8,16,32   # inline comment
    model.streams = coords_only
    train.epochs = 12
    train.lr0 = 5e-4
    train.augment = false
    """
    mc, tc = parse(tmp_path, text)
    assert mc.num_classes == 5
    assert mc.stream_widths == (8, 16, 32)
    assert mc.streams == "coords_only"
    assert tc.epochs == 12
    assert tc.lr0 == pytest.approx(5e-4)
    assert tc.augment is False


def test_defaults_survive_partial_files(tmp_path):
    mc, tc = parse(tmp_path, "train.epochs = 3\n")
    assert mc == ModelConfig()
    assert tc.epochs == 3
    assert tc.batch_size == TrainConfig().batch_size
    assert tc.rotation_range == pytest.approx(math.pi / 6)


def test_unknown_key_names_the_key(tmp_path):
    with pytest.raises(ConfigKeyError) as exc:
        parse(tmp_path, "model.nonsense = 1\n")
    assert "nonsense" in str(exc.value)
    with pytest.raises(ConfigKeyError):
        parse(tmp_path, "wrong.section = 1\n")
    with pytest.raises(ConfigKeyError):
        parse(tmp_path, "model.num_classes = not_an_int\n")


def test_overrides_apply_after_file(tmp_path):
    mc, tc = parse(tmp_path, "train.epochs = 3\n")
    mc, tc = apply_overrides(mc, tc, ["train.epochs=9", "model.k_neighbors=6"])
    assert tc.epochs == 9
    assert mc.k_neighbors == 6
    with pytest.raises(ConfigKeyError):
        apply_overrides(mc, tc, ["no_equals_sign"])


def test_format_round_trips(tmp_path):
    mc, tc = parse(
        tmp_path, "model.stream_widths = 4,8\nmodel.num_classes = 3\ntrain.seed = 42\n"
    )
    text = format_config(mc, tc)
    mc2, tc2 = parse(tmp_path, text)
    assert mc2 == mc
    assert tc2 == tc


def test_desk_cfg_is_the_acceptance_setup():
    assert parse_config_file(CONFIGS / "desk.cfg") == (desk_model_config(),
                                                        desk_train_config())
