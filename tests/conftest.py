import os
from pathlib import Path

from hypothesis import settings

settings.register_profile("suite", deadline=None, derandomize=True)
settings.load_profile("suite")

# The CLI tests start `python -m gelfand_lab.cli` as child processes; give
# them the same source tree that pyproject's pytest pythonpath gives the suite.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
