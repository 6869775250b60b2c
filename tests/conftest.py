from pathlib import Path

import pytest

from hcconfl import parse_tiny

DATA_DIR = Path(__file__).parent / "data"
ORLIB_DIR = Path(__file__).parent.parent / "data" / "orlib"


@pytest.fixture(scope="session")
def tiny1_text() -> str:
    return (DATA_DIR / "tiny1.txt").read_text()


@pytest.fixture(scope="session")
def tiny1(tiny1_text):
    return parse_tiny(tiny1_text, name="tiny1")
