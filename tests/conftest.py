import shutil
import tempfile

import pytest
from hypothesis.configuration import set_hypothesis_home_dir

from proofinfo import builtin_example, builtin_world, proof_measure


def pytest_configure(config):
    # Hypothesis writes a cache of the constants in the source files, and a
    # patch for each failing example, under its storage directory; keep those
    # out of the working tree (the tests keep no example database)
    home = tempfile.mkdtemp(prefix="hypothesis-")
    set_hypothesis_home_dir(home)
    config.add_cleanup(lambda: shutil.rmtree(home, ignore_errors=True))


@pytest.fixture(scope="session")
def ks():
    return builtin_example()


@pytest.fixture(scope="session")
def measure(ks):
    return proof_measure(ks)


@pytest.fixture(scope="session")
def world():
    return builtin_world()
