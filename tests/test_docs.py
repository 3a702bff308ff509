"""The README states every size cap with its current value, and every
dotted name it gives for the package's code still exists."""

import dataclasses
import importlib
import pkgutil
import re
from pathlib import Path

import gelfand_lab

README = Path(__file__).resolve().parent.parent / "README.md"
MODULES = {info.name for info in pkgutil.iter_modules(gelfand_lab.__path__)}


def test_every_cap_is_in_readme_with_its_value():
    caps = [f"`{name}.{cap} = {value}`"
            for name in MODULES
            for cap, value in vars(importlib.import_module(
                f"gelfand_lab.{name}")).items()
            if cap.startswith("MAX_")]
    assert len(caps) >= 8
    text = README.read_text(encoding="utf-8")
    assert [cap for cap in caps if cap not in text] == []


def _resolves(owner: object, parts: list[str]) -> bool:
    """True when owner.parts[0].parts[1]... is an attribute, or the last
    part is a field of the dataclass before it."""
    for k, part in enumerate(parts):
        if hasattr(owner, part):
            owner = getattr(owner, part)
        else:
            return (k == len(parts) - 1 and dataclasses.is_dataclass(owner)
                    and part in {f.name for f in dataclasses.fields(owner)})
    return True


def test_every_dotted_name_in_readme_resolves():
    # `owner.name`, optionally called (`State.moment(m)`), where the owner
    # is a module of the package or a class it exports
    spans = re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)(?:\([^`]*\))?`",
                       README.read_text(encoding="utf-8"))
    classes = {name for name, value in vars(gelfand_lab).items()
               if isinstance(value, type)}
    names = sorted({s for s in spans if s.split(".")[0] in MODULES | classes})
    assert len(names) >= 24
    stale = []
    for name in names:
        owner, *parts = name.split(".")
        obj = (importlib.import_module(f"gelfand_lab.{owner}") if owner in MODULES
               else getattr(gelfand_lab, owner))
        if not _resolves(obj, parts):
            stale.append(name)
    assert stale == []
