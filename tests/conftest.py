import json
import pathlib
import random

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURE_PATH = REPO_ROOT / "src" / "signelim" / "fixtures" / "color_gate.json"


@pytest.fixture(scope="session")
def color_gate_path():
    return FIXTURE_PATH


@pytest.fixture(scope="session")
def color_gate():
    from signelim import load_gate

    return load_gate(FIXTURE_PATH)


@pytest.fixture()
def rng():
    return random.Random(0xC0FFEE)


def random_total_sign(rng, n, allow_undetermined=True):
    alphabet = (-1, 0, 1, 2) if allow_undetermined else (-1, 0, 1)
    while True:
        t = tuple(rng.choice(alphabet) for _ in range(n))
        if any(e in (-1, 1) for e in t):
            return t


def write_gate(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path
