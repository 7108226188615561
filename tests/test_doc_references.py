"""Every backticked ``repro.…`` dotted name in the prose docs resolves.

The docs name modules, classes and functions by their dotted import
path; a rename that misses one leaves a reader hunting for code that
does not exist.  This imports the longest importable module prefix of
each name and resolves the rest as attributes.
"""

import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DOCS = [
    ROOT / "README.md",
    ROOT / "DESIGN.md",
    ROOT / "EXPERIMENTS.md",
    *sorted((ROOT / "docs").glob("*.md")),
]
#: a backtick followed by a dotted name, e.g. `repro.api.simulate(...)`
DOTTED_NAME = re.compile(r"`(repro(?:\.\w+)+)")


def _resolve(dotted: str):
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        module_name = ".".join(parts[:cut])
        try:
            target = importlib.import_module(module_name)
        except ModuleNotFoundError as exc:
            if exc.name != module_name:
                raise  # the module exists but a dependency is missing
            continue
        for attribute in parts[cut:]:
            target = getattr(target, attribute)
        return target
    raise ModuleNotFoundError(dotted)


def test_every_backticked_repro_name_resolves():
    names = {
        (path.relative_to(ROOT).as_posix(), name)
        for path in DOCS
        for name in DOTTED_NAME.findall(path.read_text())
    }
    assert len(names) > 50  # the scan found the docs
    broken = []
    for doc, name in sorted(names):
        try:
            _resolve(name)
        except (AttributeError, ModuleNotFoundError) as exc:
            broken.append(f"{doc}: {name} ({exc})")
    assert broken == []
