"""The repository's scripts, loaded by path."""

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load(relative: str):
    """The script at ``relative`` under the repository's root, executed once and left out of
    ``sys.modules``; it is registered there while it runs, since a dataclass looks up the
    module that defines it."""
    path = ROOT / relative
    name = f"{path.parent.name}_{path.stem}"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[name]
    return module
