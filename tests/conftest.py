"""One witness recorder per session: each case runs once, whoever asks."""

import json

import pytest

from tests import witness


@pytest.fixture(scope="session")
def recorder():
    return witness.Recorder()


@pytest.fixture(scope="session")
def pinned():
    with open(witness.FIXTURE, encoding="utf-8") as fh:
        return json.load(fh)
