"""Dataset files: the bundled examples and the JSON reader."""

from __future__ import annotations

import json
import os

from .errors import UsageError

BUILTIN = ("whitehead.json", "trefoil.json", "kappa_zero.json", "l10n36_conway.json")


def builtin_path(name):
    """Filesystem path of a bundled dataset."""
    if name not in BUILTIN:
        raise UsageError(f"no bundled dataset named {name!r}; choices: {', '.join(BUILTIN)}")
    return os.path.join(os.path.dirname(__file__), "data", name)


def resolve_input(path):
    """An existing path as given, else the bundled dataset of that name."""
    if os.path.exists(path):
        return path
    base = os.path.basename(path)
    if base in BUILTIN:
        return builtin_path(base)
    raise UsageError(f"input file not found: {path}")


def read_json(path):
    """The parsed contents of a JSON dataset file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise UsageError(f"{path}: not valid JSON ({exc})") from exc
