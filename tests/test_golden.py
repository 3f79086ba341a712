"""Golden output hashes: the CLI's data output must not change by a byte.

The hashes were recorded before the EMLN round layers were vectorised, from
the loop implementations kept in tests/reference_emln.py. Criterion 11 only
compares two runs of the same code; these pin the output across versions.
Change a hash only together with a stated reason for the new output.
"""

import hashlib

import pytest

from gathersim.cli import main

GOLDEN = {
    "emln-per-round": (
        ["--protocol", "emln", "--per-round", "--trials", "3",
         "--initial-energy", "0.03", "--seed", "1"],
        "c5a46335497afb3c3d5adf85203b419ee6d199c9d5a8977e0ce8af686e4e1423"),
    "compare": (
        ["--compare", "--trials", "4", "--initial-energy", "0.05", "--seed", "1"],
        "17682b0ea1eddf8895ed23865f47e2c4ef985885954a566be12bf17c27cc3d58"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_cli_output_matches_golden_hash(name, tmp_path):
    argv, expected = GOLDEN[name]
    out = tmp_path / "out.csv"
    assert main(argv + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == expected
