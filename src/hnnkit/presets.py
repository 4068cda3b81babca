"""Shipped group descriptions, one spec file per named preset."""

from __future__ import annotations

import os
from typing import Union

from .base_groups import BaseGroupOracle
from .hnn import HnnSpec
from .specfile import load_spec_text

PRESET_NAMES = ("wise", "g2", "z2_abcd", "z2_ab", "f2")


class UnknownPresetError(ValueError):
    def __init__(self, name: str):
        super().__init__(
            f"unknown preset {name!r}; valid presets: {', '.join(PRESET_NAMES)}"
        )


def preset_text(name: str) -> str:
    if name not in PRESET_NAMES:
        raise UnknownPresetError(name)
    path = os.path.join(os.path.dirname(__file__), "presets", f"{name}.hnn")
    with open(path, encoding="utf-8") as f:
        return f.read()


def preset(name: str) -> Union[HnnSpec, BaseGroupOracle]:
    """Load a shipped preset; HNN presets return an HnnSpec, base presets an oracle."""
    return load_spec_text(preset_text(name), name=name)
