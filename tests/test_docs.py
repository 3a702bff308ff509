"""The README states every size cap with its current value."""

import importlib
import pkgutil
from pathlib import Path

import gelfand_lab

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_cap_is_in_readme_with_its_value():
    caps = [f"`{info.name}.{name} = {value}`"
            for info in pkgutil.iter_modules(gelfand_lab.__path__)
            for name, value in vars(importlib.import_module(
                f"gelfand_lab.{info.name}")).items()
            if name.startswith("MAX_")]
    assert len(caps) >= 8
    text = README.read_text(encoding="utf-8")
    assert [cap for cap in caps if cap not in text] == []
