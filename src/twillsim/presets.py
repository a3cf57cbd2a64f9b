"""Access to the packaged platform/model/mix data files.

All lookups honor the TWILLSIM_CONFIG_DIR environment variable, which
points at a directory with the same layout as the packaged ``data/``
tree (platform.json, dla_matrix.json, models/, mixes/, scenarios/).
Files missing from the override directory fall back to the packaged
copies, so a config dir only needs to carry what it changes.
"""

from __future__ import annotations

import os
from pathlib import Path

CONFIG_ENV_VAR = "TWILLSIM_CONFIG_DIR"

_PACKAGED = Path(__file__).resolve().parent / "data"


class PresetError(FileNotFoundError):
    """Raised when a named preset cannot be found."""


def _resolve(relative: str) -> Path:
    override = os.environ.get(CONFIG_ENV_VAR)
    if override:
        candidate = Path(override) / relative
        if candidate.is_file():
            return candidate
    candidate = _PACKAGED / relative
    if candidate.is_file():
        return candidate
    raise PresetError(f"no packaged data file {relative!r}"
                      + (f" (also checked {override})" if override else ""))


def read_data(relative: str) -> str:
    """Return the text of a data file by path relative to the data root."""
    return _resolve(relative).read_text()


def platform_text() -> str:
    return read_data("platform.json")


def matrix_text() -> str:
    return read_data("dla_matrix.json")


def model_text(name: str) -> str:
    return read_data(f"models/{name}.json")


def mix_text(name: str) -> str:
    return read_data(f"mixes/{name}.json")


def scenario_text(name: str) -> str:
    return read_data(f"scenarios/{name}.json")


def mix_or_scenario_text(name: str) -> str:
    """Text of the packaged mix `name`, else of the packaged scenario."""
    try:
        return mix_text(name)
    except PresetError:
        try:
            return scenario_text(name)
        except PresetError:
            raise PresetError(
                f"no packaged mix or scenario named {name!r} "
                f"(available: {', '.join(available_mixes())})") from None


def _names_in(subdir: str) -> list[str]:
    seen = set()
    override = os.environ.get(CONFIG_ENV_VAR)
    roots = [Path(override) / subdir] if override else []
    roots.append(_PACKAGED / subdir)
    for root in roots:
        if root.is_dir():
            seen.update(p.stem for p in root.glob("*.json"))
    return sorted(seen)


def available_models() -> list[str]:
    return _names_in("models")


def available_mixes() -> list[str]:
    return _names_in("mixes")


def available_scenarios() -> list[str]:
    return _names_in("scenarios")
