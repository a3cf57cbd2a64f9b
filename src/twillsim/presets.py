"""Access to the packaged platform, model, mix and scenario data.

The platform, DLA matrix, mixes and scenarios are JSON files under the
packaged ``data/`` tree.  The model descriptors are generated by
``twillsim/zoo.py`` from architecture code.

All lookups honor the TWILLSIM_CONFIG_DIR environment variable, which
points at a directory with the same layout as the packaged ``data/``
tree (platform.json, dla_matrix.json, models/, mixes/, scenarios/).
A file there replaces the packaged copy of the same name, and a
``models/<name>.json`` there adds a model to the zoo or replaces one.
Anything missing from the override directory falls back to the
packaged copy, so a config dir only needs to carry what it changes.
"""

from __future__ import annotations

import os

from . import zoo

CONFIG_ENV_VAR = "TWILLSIM_CONFIG_DIR"

_PACKAGED = os.path.join(os.path.dirname(os.path.realpath(__file__)), "data")


class PresetError(FileNotFoundError):
    """Raised when a named preset cannot be found, or an input file is
    not UTF-8 text."""


def _override(relative: str) -> str | None:
    """The config-dir copy of a data file, if there is one."""
    override = os.environ.get(CONFIG_ENV_VAR)
    if override and os.path.isfile(os.path.join(override, relative)):
        return os.path.join(override, relative)
    return None


def _not_found(what: str) -> PresetError:
    override = os.environ.get(CONFIG_ENV_VAR)
    return PresetError(f"no packaged {what}"
                       + (f" (also checked {override})" if override else ""))


def _resolve(relative: str) -> str:
    path = _override(relative) or os.path.join(_PACKAGED, relative)
    if os.path.isfile(path):
        return path
    raise _not_found(f"data file {relative!r}")


def read_file(path: str | os.PathLike) -> str:
    """The text of the UTF-8 input file at `path`, a `str` or any
    `os.PathLike` such as a `pathlib.Path`; any other bytes are a
    PresetError."""
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except UnicodeDecodeError as e:
        raise PresetError(f"{path}: {e}") from None


def read_data(relative: str) -> str:
    """Return the text of a data file by path relative to the data root."""
    return read_file(_resolve(relative))


def platform_text() -> str:
    return read_data("platform.json")


def matrix_text() -> str:
    return read_data("dla_matrix.json")


def model_text(name: str) -> str:
    """Descriptor text of model `name`: a config-dir file, else the zoo's."""
    path = _override(f"models/{name}.json")
    if path is not None:
        return read_file(path)
    if name in zoo.MODELS:
        return zoo.descriptor_text(name)
    raise _not_found(f"model {name!r}")


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
                f"(mixes: {', '.join(available_mixes())}; scenarios: "
                f"{', '.join(available_scenarios())})") from None


def _names_in(subdir: str) -> list[str]:
    seen = set()
    override = os.environ.get(CONFIG_ENV_VAR)
    roots = [os.path.join(override, subdir)] if override else []
    roots.append(os.path.join(_PACKAGED, subdir))
    for root in roots:
        if os.path.isdir(root):
            seen.update(name[:-len(".json")] for name in os.listdir(root)
                        if name.endswith(".json"))
    return sorted(seen)


def available_models() -> list[str]:
    return sorted({*_names_in("models"), *zoo.MODELS})


def available_mixes() -> list[str]:
    return _names_in("mixes")


def available_scenarios() -> list[str]:
    return _names_in("scenarios")
