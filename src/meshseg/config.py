"""Key/value config files mirroring ModelConfig and TrainConfig.

Format: one `section.key = value` per line, `#` comments, sections are
`model` and `train`.  Integer tuples are comma-separated.  Command-line
overrides use the same `section.key=value` spelling.
"""

from __future__ import annotations

from dataclasses import fields, replace

from meshseg.mesh import read_lines
from meshseg.model import ModelConfig
from meshseg.training import TrainConfig


class ConfigKeyError(ValueError):
    """Unknown config key or unparseable value."""


def _coerce(key, raw, default):
    try:
        if isinstance(default, bool):
            if raw.lower() in ("true", "1", "yes"):
                return True
            if raw.lower() in ("false", "0", "no"):
                return False
            raise ValueError(raw)
        if isinstance(default, int):
            return int(raw)
        if isinstance(default, float):
            return float(raw)
        if isinstance(default, tuple):
            return tuple(int(p) for p in raw.split(",") if p.strip())
        return raw
    except ValueError:
        raise ConfigKeyError(f"cannot parse value {raw!r} for key {key!r}")


def _field_defaults(cls):
    probe = cls()
    return {f.name: getattr(probe, f.name) for f in fields(cls)}


_MODEL_FIELDS = _field_defaults(ModelConfig)
_TRAIN_FIELDS = _field_defaults(TrainConfig)


def apply_setting(model_cfg, train_cfg, dotted_key, raw_value):
    """One `section.key=value` setting applied to the config pair."""
    if "." not in dotted_key:
        raise ConfigKeyError(f"key {dotted_key!r} must be model.<name> or train.<name>")
    section, key = dotted_key.split(".", 1)
    if section == "model":
        if key not in _MODEL_FIELDS:
            raise ConfigKeyError(f"unknown model config key {key!r}")
        return replace(model_cfg, **{key: _coerce(dotted_key, raw_value,
                                                  _MODEL_FIELDS[key])}), train_cfg
    if section == "train":
        if key not in _TRAIN_FIELDS:
            raise ConfigKeyError(f"unknown train config key {key!r}")
        return model_cfg, replace(train_cfg, **{key: _coerce(dotted_key, raw_value,
                                                             _TRAIN_FIELDS[key])})
    raise ConfigKeyError(f"unknown config section {section!r}")


def _parse_lines(lines, where, model_cfg, train_cfg):
    """Apply each setting of `lines`; an error names `where` plus the line."""
    model_cfg = model_cfg or ModelConfig()
    train_cfg = train_cfg or TrainConfig()
    for lineno, line in enumerate(lines, start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            if "=" not in line:
                raise ConfigKeyError(f"expected key = value, got {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            model_cfg, train_cfg = apply_setting(model_cfg, train_cfg, key, value)
        except ConfigKeyError as exc:
            raise ConfigKeyError(f"{where}{lineno}: {exc}") from None
    return model_cfg, train_cfg


def parse_config_text(text, model_cfg=None, train_cfg=None):
    return _parse_lines(text.splitlines(), "line ", model_cfg, train_cfg)


def parse_config_file(path, model_cfg=None, train_cfg=None):
    """Settings of a config file; an error names it as `path:line`."""
    return _parse_lines(read_lines(path, ConfigKeyError), f"{path}:", model_cfg,
                        train_cfg)


def apply_overrides(model_cfg, train_cfg, overrides):
    for item in overrides or ():
        if "=" not in item:
            raise ConfigKeyError(f"override {item!r} must be section.key=value")
        key, value = item.split("=", 1)
        model_cfg, train_cfg = apply_setting(model_cfg, train_cfg,
                                             key.strip(), value.strip())
    return model_cfg, train_cfg


def format_config(model_cfg, train_cfg):
    """Fully resolved settings, re-parseable by parse_config_text."""

    def fmt(value):
        if isinstance(value, tuple):
            return ",".join(str(v) for v in value)
        return str(value)

    lines = []
    for name in _MODEL_FIELDS:
        lines.append(f"model.{name} = {fmt(getattr(model_cfg, name))}")
    for name in _TRAIN_FIELDS:
        lines.append(f"train.{name} = {fmt(getattr(train_cfg, name))}")
    return "\n".join(lines) + "\n"
