"""Make ``src`` importable by the CLI subprocesses that some tests start.

The ``pythonpath`` setting in ``pyproject.toml`` puts ``src`` on this
process's ``sys.path``; ``python -m padic_fourier.cli`` children see only
the environment, so ``src`` goes on their ``PYTHONPATH`` too.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [_SRC, os.environ.get("PYTHONPATH")])
)
