"""Report bytes of the CLI on the bundled inputs, pinned by digest.

A change that claims to keep the reports byte-identical (every speed change
does) must keep these digests.  When a report changes on purpose, the new
digests are taken with `scw ... --report PATH` and `sha256sum`.
"""

import hashlib
import pathlib

import pytest

from scw import cli

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "src" / "scw" / "fixtures"

# argv -> ((sha256, bytes) of the text report, (sha256, bytes) of the JSON report)
GOLDEN = {
    ("paper-suite", "--seed", "0"): (
        ("040f9dc2136461d4086d1de3f6f6413a41cc2d865ed99bdcbd32f3a8d5ca2ab3", 20892),
        ("d4a9823067fd567016c5c214094eaf2edb17a5bb8486f6eafec024abfd3fb8c2", 36329)),
    ("paper-suite", "--seed", "9"): (
        ("828e5ff9c85474887ab3984da3a740976769671cd0480abea4dc07dddd090cdd", 20892),
        ("757679b9a85c02f64feea110c97ff1b58d1875996bf5ab4c837d26bc259c0d67", 36329)),
    ("verify", "inoue_bidouble.json"): (
        ("d330dc8fb5fbfc02fbf0b8b6257d136d898b12ca4c4f4cc4f8f6d86f0d51ba88", 7034),
        ("707b191a539aa4c86cc351ccf114e2cc2576d7d42aa5269c1b0469139339c190", 11618)),
    ("verify", "inoue_z2z4.json"): (
        ("2a5a96b2e1585fd65be6a62553ad65ae2c75d7865a3794b0135fad31290273f3", 8302),
        ("e211892ce853a88254914871c8f553b23e6dbe392bc4c7c15a2256e0715f9fe4", 13534)),
}


def _digest(data: bytes):
    return hashlib.sha256(data).hexdigest(), len(data)


@pytest.mark.parametrize("argv", sorted(GOLDEN), ids=" ".join)
def test_report_bytes(argv, tmp_path, capsysbinary):
    command, *rest = argv
    if command == "verify":
        rest = [str(FIXTURES / rest[0])]
    report = tmp_path / "report.json"
    assert cli.main([command, *rest, "--report", str(report)]) == cli.EXIT_OK
    text, json_report = GOLDEN[argv]
    assert _digest(capsysbinary.readouterr().out) == text
    assert _digest(report.read_bytes()) == json_report
