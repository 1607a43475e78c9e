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


def closed_form_union(rows):
    """|eliminated(rows)| of total-sign rows, "u" allowed: oracles.union_count
    over the package's closed-form intersection count."""
    import oracles
    from signelim import SignMatrix, count_eliminated_intersection

    return oracles.union_count(
        rows, lambda reduced: count_eliminated_intersection(SignMatrix.from_rows(reduced))
    )


def write_gate(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path


def fail_if_called(*args, **kwargs):
    """Stand-in for a worker that a cap must stop before it starts."""
    raise AssertionError("work ran before its cap was checked")
