import os
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, settings

import hypergon

sys.path.insert(0, os.path.dirname(__file__))

settings.register_profile(
    "pkg",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("pkg")


@pytest.fixture
def run_module():
    """Run `python -m hypergon *argv` in a child that imports the same hypergon as this process.

    The child is killed after `timeout` seconds, so an input that never
    returns fails its test instead of hanging the suite.
    """
    src = os.path.dirname(os.path.dirname(hypergon.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def run(*argv: str, timeout: float = 30) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, "-m", "hypergon", *argv],
                              capture_output=True, text=True, env=env, timeout=timeout)

    return run
