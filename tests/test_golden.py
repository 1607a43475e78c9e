"""Exact stdout bytes of every command that prints JSON.

The expected files under tests/golden/ were written by the CLI, with the
value of "timing_seconds" replaced by 0: those of `gate analyze` and
`gate certify` on the default family before the document assembly worked
from masks, the two with a custom family before witness lists were rendered
from per-functional text, `additive_data_analyze` before the reports were
rendered as text in one pass, the others while the output still went through
`json.dumps(payload, indent=2)`. Any change to a byte of the output, other
than the timing, fails here.
"""

import pathlib
import re
from fractions import Fraction
from itertools import product

import pytest

from signelim import sensitivity
from signelim.cli import main
from signelim.gates import Gate, MultilinearExpansion, evaluate, expand, load_gate

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
FUNCTIONALS = GOLDEN / "additive_functionals.json"
# every other command that prints JSON; each exits 0
COMMANDS = {
    "zs": ["zs", "--n", "3"],
    "ze": ["ze", "--t", "+u-", "--t", "0+-"],
    "count_single": ["count", "single", "--x", "+0-", "--verify"],
    "count_intersect": [
        "count", "intersect", "--x", "+0-", "--x", "++0", "--x", "0+-", "--verify"
    ],
    "count_set": ["count", "set", "--x", "+0-", "--x", "++0", "--x", "0+-", "--verify"],
    "count_pair": ["count", "pair", "--x", "+0-+", "--y", "++0-", "--verify"],
    "covers": ["covers", "--n", "2", "--max-size", "4"],
    "gate_expand": ["gate", "expand", str(GATES["additive"])],
    # a family with negative, non-integer and large entries: three of its six
    # functionals are negated by the sign normalization
    "additive_functionals_analyze": [
        "gate", "analyze", str(GATES["additive"]), "--functionals", str(FUNCTIONALS),
    ],
    "additive_functionals_certify": [
        "gate", "certify", str(GATES["additive"]), "--functionals", str(FUNCTIONALS),
    ],
    # the same records through analyze: every report's data_upper is an object
    "additive_data_analyze": [
        "gate", "analyze", str(GATES["additive"]),
        "--data", str(GOLDEN / "additive_records.csv"), "--eps", "1/12",
    ],
    # records at the additive gate's exact values on a 4 x 3 interior grid
    "data_bound": [
        "data", "bound", str(GATES["additive"]),
        str(GOLDEN / "additive_records.csv"), "--eps", "1/12",
    ],
    "selftest": ["selftest", "--quick"],
}


def _masked_stdout(capsys) -> str:
    out = capsys.readouterr().out
    return re.sub(r'"timing_seconds": [^\n,}]+', '"timing_seconds": 0', out)


@pytest.mark.parametrize("gate, command", sorted(EXIT_CODES))
def test_stdout_matches_the_recorded_bytes(capsys, gate, command):
    code = main(["gate", command, str(GATES[gate])])
    masked = _masked_stdout(capsys)
    assert code == EXIT_CODES[gate, command]
    assert masked == (GOLDEN / f"{gate}_{command}.out").read_text()


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_json_command_stdout_matches_the_recorded_bytes(capsys, name):
    code = main(COMMANDS[name])
    masked = _masked_stdout(capsys)
    assert code == 0
    assert masked == (GOLDEN / f"{name}.out").read_text()


def test_no_golden_input_builds_the_bool_view_of_a_swept_set(capsys, monkeypatch):
    # the packed row is the one set format from the kernel to the document
    def refuse(record):
        raise AssertionError("a swept set was unpacked into its bool view")

    monkeypatch.setattr(sensitivity._LowerSet, "mask", property(refuse))
    for gate, command in sorted(EXIT_CODES):
        assert main(["gate", command, str(GATES[gate])]) == EXIT_CODES[gate, command]
        assert _masked_stdout(capsys) == (GOLDEN / f"{gate}_{command}.out").read_text()
    for name in sorted(COMMANDS):
        assert main(COMMANDS[name]) == 0
        assert _masked_stdout(capsys) == (GOLDEN / f"{name}.out").read_text()
    for path in GATES.values():
        expansion = expand(load_gate(path))
        assert sensitivity.analyze_gate(expansion).reports
        sensitivity.reversibility_certificate(expansion)
    gate = load_gate(GATES["additive"])
    records = sensitivity.parse_experiment_csv(GOLDEN / "additive_records.csv", gate)
    bound = sensitivity.data_upper_bound(records, expand(gate), eps=Fraction(1, 12))
    analysis = sensitivity.analyze_gate(expand(gate), records=records, eps=Fraction(1, 12))
    assert bound is not None and bound == analysis.data


def test_no_golden_analysis_builds_the_dict_view_of_a_gate(capsys, monkeypatch):
    # the integer tensor is the one stored gate form: only `gate expand` and
    # the serializers build the dict of Fractions
    def refuse(form):
        raise AssertionError("a gate's table was built as a dict")

    monkeypatch.setattr(MultilinearExpansion, "coefficients", property(refuse))
    monkeypatch.setattr(Gate, "table", property(refuse))
    for gate, command in sorted(EXIT_CODES):
        assert main(["gate", command, str(GATES[gate])]) == EXIT_CODES[gate, command]
        assert _masked_stdout(capsys) == (GOLDEN / f"{gate}_{command}.out").read_text()
    for name in sorted(COMMANDS):
        if COMMANDS[name][:2] in (["gate", "analyze"], ["gate", "certify"], ["data", "bound"]):
            assert main(COMMANDS[name]) == 0
            assert _masked_stdout(capsys) == (GOLDEN / f"{name}.out").read_text()
    # the packaged gate's exact values on a 3 x 3 x 3 interior grid
    expansion = expand(load_gate(FIXTURE_PATH))
    grid = [(Fraction(k, 4), 1 - Fraction(k, 4)) for k in range(1, 4)]
    records = [sensitivity.ExperimentRecord(p, evaluate(expansion, p)) for p in product(grid, repeat=3)]
    bound = sensitivity.data_upper_bound(records, expansion, eps=Fraction(1, 8))
    assert (bound.collisions, bound.heuristic) == (37, True)


def test_no_golden_command_builds_the_witness_pairs_of_a_report(capsys, monkeypatch):
    # a report stores its int8 total-sign bytes, which the document renders
    def refuse(report):
        raise AssertionError("a report's witness pairs were built")

    monkeypatch.setattr(sensitivity.BasePointReport, "witnesses", property(refuse))
    for gate, command in sorted(EXIT_CODES):
        assert main(["gate", command, str(GATES[gate])]) == EXIT_CODES[gate, command]
        assert _masked_stdout(capsys) == (GOLDEN / f"{gate}_{command}.out").read_text()
    for name in sorted(COMMANDS):
        if COMMANDS[name][:2] in (["gate", "analyze"], ["gate", "certify"]):
            assert main(COMMANDS[name]) == 0
            assert _masked_stdout(capsys) == (GOLDEN / f"{name}.out").read_text()
