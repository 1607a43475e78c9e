"""Exact stdout bytes of `gate analyze` and `gate certify`.

The expected files under tests/golden/ were written by the CLI before the
document assembly worked from masks, with the value of "timing_seconds"
replaced by 0. Any change to a byte of the output, other than the timing,
fails here.
"""

import pathlib
import re

import pytest

from signelim.cli import main

from conftest import FIXTURE_PATH

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
GATES = {
    "color": FIXTURE_PATH,
    # additive (3, 2) gate, three outputs: certificates at 4 of 6 base points
    "additive": GOLDEN / "additive_gate.json",
    # random (3, 2) gate, two outputs: no certificate, 6 subsets cross-checked
    "random": GOLDEN / "random_gate.json",
}
EXIT_CODES = {
    ("color", "analyze"): 0,
    ("color", "certify"): 0,
    ("additive", "analyze"): 0,
    ("additive", "certify"): 0,
    ("random", "analyze"): 0,
    ("random", "certify"): 2,
}


@pytest.mark.parametrize("gate, command", sorted(EXIT_CODES))
def test_stdout_matches_the_recorded_bytes(capsys, gate, command):
    code = main(["gate", command, str(GATES[gate])])
    out = capsys.readouterr().out
    masked = re.sub(r'"timing_seconds": [^\n,}]+', '"timing_seconds": 0', out)
    assert code == EXIT_CODES[gate, command]
    assert masked == (GOLDEN / f"{gate}_{command}.out").read_text()
