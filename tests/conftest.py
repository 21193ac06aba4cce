import pytest
from hypothesis import settings

from hyperwalk import presets


@pytest.fixture(scope="session")
def c4():
    return presets.c4_hypergroup()


@pytest.fixture(scope="session")
def z3():
    return presets.z3_hypergroup()


@pytest.fixture(scope="session")
def s3_classes():
    return presets.s3_class_hypergroup()


@pytest.fixture(scope="session")
def zlattice8():
    return presets.zlattice_hypergroup(8)


# Property tests draw a fixed sequence of examples and keep no database, so
# every run of the suite checks the same cases.
settings.register_profile("tier1", derandomize=True, database=None, deadline=None,
                          max_examples=150)
settings.load_profile("tier1")
