"""Golden output hashes: the CLI's data output must not change by a byte.

The first two hashes were recorded before the EMLN round layers were
vectorised, from the loop implementations kept in tests/reference_emln.py.
The third was recorded before the graph and the chain moved from all-pairs
arrays to a grid of cells, from the dense versions kept in
tests/reference_network.py. The four energy-exhausted baseline hashes were
recorded before the LEACH and PEGASIS rounds moved from per-node loops to
arrays, from the versions kept in tests/reference_baselines.py. The two
2,000-node PEGASIS hashes were recorded before the greedy chain moved from a
scan of every alive node at every step to neighbour lists, from the scan kept
in tests/reference_network.py. The range-sweep and JSON compare hashes were
recorded before the CLI ran every mode as one ``run_grid`` call, from the
per-mode runners of that time. The four long PEGASIS hashes were recorded
before chain leaders were computed from PCG64 states without loading a
Generator, when every leader was a Generator's ``integers`` draw. Criterion
11 only compares two runs of the same code; these pin the output across versions.
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
    # 400 nodes on 200 x 200 m: many range-25 cells, so a grid-cell graph or
    # chain that loses a pair across a cell boundary shows here
    "compare-400": (
        ["--compare", "--nodes", "400", "--width", "200", "--height", "200",
         "--sink-x", "100", "--sink-y", "400", "--trials", "2",
         "--initial-energy", "0.05", "--seed", "1"],
        "7f73cbf725db2beb0d88d68fb064f77c602d8b2a48301708a6b5bdd127509ebe"),
    # range 15 leaves one trial of three disconnected
    "sweep": (
        ["--sweep", "15,25,35", "--trials", "3", "--initial-energy", "0.03", "--seed", "1"],
        "ed98a9e87ee79e962ea498d4daeae41343fda3017b8d87b5bd6b4112b74e8d4b"),
    "compare-json": (
        ["--compare", "--format", "json", "--trials", "3", "--initial-energy", "0.05",
         "--seed", "2"],
        "e262985ebd74790d47659865635be2d4106bb6bdbc74eacfae7bf5bd9d14a605"),
}
# rounds after the first death: the alive sub-chain shrinks and the LEACH
# eligible pool resets early
EXHAUSTED = ["--per-round", "--stop-rule", "energy-exhausted", "--trials", "2",
             "--initial-energy", "0.05", "--seed", "7"]
GOLDEN.update({
    f"{protocol}-exhausted": (["--protocol", protocol] + EXHAUSTED, digest)
    for protocol, digest in (
        ("leach", "d7e84531853682020d8193dd57987c0a7e039ee4b0d822bebd811c3f251551e4"),
        ("pegasis-tdma", "8a705bec1fc0bdfe014f0aef891bd9a4f5dcb27f259fffa3a264b9eeea1fd710"),
        ("pegasis-cdma", "61db18ce764137006037b58586deaeb07e4de9c99b6c64f2e59fb670b4eaa2d8"),
        ("direct", "839c541bdd316544acc1217c42f7c1612e092f469ec6ec779687ce10b4c9bfe7"))
})

# 2,000 nodes at the default density: the greedy chain takes about 2,000
# steps, so a neighbour-list chain that picks one wrong node shows here
LARGE = ["--per-round", "--nodes", "2000", "--width", "447.2", "--height", "447.2",
         "--sink-x", "223.6", "--sink-y", "647.2", "--trials", "2",
         "--initial-energy", "0.2", "--seed", "3"]
GOLDEN.update({
    f"{protocol}-2000": (["--protocol", protocol] + LARGE, digest)
    for protocol, digest in (
        ("pegasis-tdma", "17ac4356542b3d1b53913dda173f3afbada8544dc05074ed5589814ac779b271"),
        ("pegasis-cdma", "72ec2d5bcb4d7128776da64d1dbf3e71a5785fcb37917d5419ba376172e921a0"))
})

# hundreds of rounds, so the leaders cross many 64-attempt seed blocks
LONG = ["--per-round", "--trials", "2", "--initial-energy", "0.5", "--seed", "5"]
GOLDEN.update({
    f"{protocol}-long": (["--protocol", protocol] + LONG, digest)
    for protocol, digest in (
        ("pegasis-tdma", "b1114bfc7cde0ffbef56359f3839f3122249ac97cc2a52bc05ed6a30e2fb41ca"),
        ("pegasis-cdma", "b7b116b438ca4437045dd20b6a8f2ae4891602a4a25cdc80e785743e256b6fc5"))
})
# leaders drawn until the alive chain is down to 2 nodes
LONG_EXHAUSTED = ["--per-round", "--stop-rule", "energy-exhausted", "--trials", "1",
                  "--initial-energy", "0.2", "--seed", "11"]
GOLDEN.update({
    f"{protocol}-long-exhausted": (["--protocol", protocol] + LONG_EXHAUSTED, digest)
    for protocol, digest in (
        ("pegasis-tdma", "0f24624823f7d4a818be83763d5daf58445ed80bd0c4a74457ed6d3135037106"),
        ("pegasis-cdma", "254afa6228014db4b31416e60435d5ca74814a3cdd6a05f663e15c9e1b75a8d2"))
})


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_cli_output_matches_golden_hash(name, tmp_path):
    argv, expected = GOLDEN[name]
    out = tmp_path / "out.csv"
    assert main(argv + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == expected
