import sys
from pathlib import Path

import pytest
from hypothesis import settings

# Every run draws the same examples: seeded from each test, and no example
# database replaying what an earlier run found.  max_examples stays per test.
settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")

sys.path.insert(0, str(Path(__file__).parent))

from ghw import BinaryMatrix, Code

import known_codes as kc


def make_code(rows):
    return Code.from_generator(BinaryMatrix.from_strings(rows))


@pytest.fixture(scope="session")
def toy63():
    return make_code(kc.TOY63_ROWS)


@pytest.fixture(scope="session")
def worked63():
    return make_code(kc.WORKED63_ROWS)


@pytest.fixture(scope="session")
def hamming74():
    return make_code(kc.HAMMING74_ROWS)


@pytest.fixture(scope="session")
def code149():
    return make_code(kc.CODE149_ROWS)


@pytest.fixture(scope="session")
def code107():
    return make_code(kc.CODE107_ROWS)
