import os
import subprocess
import sys

import pytest

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@pytest.fixture(scope="session")
def fixture_path() -> str:
    return os.path.join(DATA_DIR, "fixture.jsonl")


@pytest.fixture(scope="session")
def tempo_instance_path() -> str:
    return os.path.join(DATA_DIR, "tempo_instance.json")


@pytest.fixture(scope="session")
def python_child():
    """Run `python ARGS` in a child process that imports yumalab from src/.
    The child's standard streams are block buffered, as under a pipe, so a
    byte that the program fails to flush before it ends is lost."""

    def run_child(*args, **kwargs) -> subprocess.CompletedProcess:
        env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC_DIR, os.environ.get("PYTHONPATH"))))
        return subprocess.run([sys.executable, *args], env=env, **kwargs)

    return run_child
