"""Shared test set-up: subprocesses import spinboost from this checkout's src/."""

import os
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture(autouse=True, scope="session")
def _src_on_subprocess_path():
    # pyproject's pythonpath reaches only this interpreter; tests that run
    # ``python -m spinboost.cli`` need it in the environment too
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
        yield
