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

# argv -> ((sha256, bytes) of the text report, (sha256, bytes) of the JSON report);
# `verify` names a bundled fixture, and the arguments of `paper-suite` and
# `lefschetz <key>` go to the command as they are
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
    ("verify", "inoue_z2z4.json", "--seed", "5"): (
        ("0a873f705d77065db7575b9ab4933b2f32fafbac2c86a59f3ca4ba76ad756871", 8302),
        ("61a94f794e37f8f26d97dda2bcb00a63a0ab3cf9b5ec05a251afb19f111727c3", 13534)),
    ("lefschetz", "corollary-1.3", "--seed", "0"): (
        ("7764f85c9a014c96bba1ce4a9a8bf878ed35321b91875c8f5b6bf0e311476bd7", 294),
        ("aa7337494b757346e1997995753f8d23bf54d4ad603182ca9ff1c495e659edea", 586)),
    ("lefschetz", "lemma-2.2", "--seed", "0"): (
        ("a31413fc8b0e793fd42a353035ca453a6439d082caecf925961e912effc45310", 446),
        ("4aed68bb661be7657f632cc203576464a9ac9d67ade61daebdc310fd2ef2062c", 900)),
    ("lefschetz", "lemma-3.1", "--seed", "0"): (
        ("ca30a8fb3d26122c39b9d83b4f21fa467cd5b58216d298b6325dd0593016eb98", 130),
        ("197b9df27860791c21e529c84ed121a0246f58c769f81e752f647e4a0ea8d830", 260)),
    ("lefschetz", "lemma-3.2", "--seed", "0"): (
        ("205d30853abaa6b90903735684f68894150c1e441115ef34833cdae0e8c7faa0", 198),
        ("8e336e8fb21d3910022cc02ec40674996dc26c7379d04700ca8161059191335b", 409)),
    ("lefschetz", "lemma-3.4", "--seed", "0"): (
        ("4f09dbf3fe8d8c61bffbe721bd9ca3d3003b21eb0be4a44d8ac1f888b088f217", 262),
        ("2f6daa82fd402ad6a8b1a924d84cc2a4dc7428a7da8b455fb356915adefd7117", 554)),
    ("lefschetz", "lemma-4.1", "--seed", "0"): (
        ("a86ad4cd46c4abfbecb3703db9d3b1e96854cc6cf2a565ab1fa4c95ed140775d", 131),
        ("cb4335cec8698fea35c34f140eefe9f97135edf348f8e36f0d2903f8959a4663", 261)),
    ("lefschetz", "prop-2.2", "--seed", "0"): (
        ("9c252f8fadfc324b916897f294cbffd4bd75e04b77cde5edd6b7f55a9fa62257", 279),
        ("7bba9bcf98d55e8f95fe6cbcaf61a77ddf1c85aa5c032706b213f724dddf5d85", 571)),
    ("lefschetz", "prop-3.5", "--seed", "0"): (
        ("c591689f08c72a3295ac0e57d4dac304b5c980848b0787aff0131b3b0bfe437e", 182),
        ("deb8cba541f7db68184175218f242e1d5fc4c0b42a23a189413f57e2c3ebb3a1", 393)),
    ("lefschetz", "prop-3.7", "--seed", "0"): (
        ("f7583b5dbc0c245c96be0b9920b188991fcf0c396a236fca2405432f1014fe8e", 130),
        ("fb23eaa439b4a01226cb670cfea9146b9de7ee445b8fd20594f55523f1d9058b", 260)),
    ("lefschetz", "section-3-quotient", "--seed", "0"): (
        ("7b182691dc11bcb3ee2240405c5d8e82dde43ad3326642b6426d9b10c239eb3d", 124),
        ("08205a3e832a8b687efb42f2e052b5a0dda94bc6b1f04ff89b36fb0712e6d883", 254)),
    ("lefschetz", "theorem-1.1:a", "--seed", "0"): (
        ("414f321f03fc7764687841b62f84a351e16afd34f93f881620cb9bc42a7be27c", 1390),
        ("420b18a7e2aa85a126f097bcc753f99dab741f80ab37bf6c64d32ce87e38446f", 2734)),
    ("lefschetz", "theorem-1.1:b", "--seed", "0"): (
        ("a3883d33a660c1ac9dc4b3d223404a65950a5709feda9f6fc04ec9046b54034c", 1390),
        ("d4aafaf2cc3743c1f91c26028a932bb06cf73f6e81ce3b2e2d013838f94fe6fd", 2734)),
    ("lefschetz", "theorem-1.1:c", "--seed", "0"): (
        ("f7625903a438ff42e5c552a9c10c5f6c47decb32c52964eb230b90f6773b51a6", 1390),
        ("3815838cf62a61497d20060dd908e612f7aa5f1dc0c0adad635f6d52090315f8", 2734)),
}


def _digest(data: bytes):
    return hashlib.sha256(data).hexdigest(), len(data)


@pytest.mark.parametrize("argv", sorted(GOLDEN), ids=" ".join)
def test_report_bytes(argv, tmp_path, capsysbinary):
    command, *rest = argv
    if command == "verify":
        rest = [str(FIXTURES / rest[0]), *rest[1:]]
    report = tmp_path / "report.json"
    assert cli.main([command, *rest, "--report", str(report)]) == cli.EXIT_OK
    text, json_report = GOLDEN[argv]
    assert _digest(capsysbinary.readouterr().out) == text
    assert _digest(report.read_bytes()) == json_report


# the README's h^0 example: (sha256, bytes) of what it prints and of the
# realizations its --audit writes, which pin the draws the oracle accepts
H0_CLASS = '{"L": 2, "Q": -1, "Q1": -1, "Q2": -1, "Q3": -1}'
H0_GOLDEN = (
    ("53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3", 2),
    ("7676cc5abd2c3bfd324cc610f5ae69d5a9560f697979616289e29f5849c40914", 2914))


# the same at --seed 5, whose realizations are drawn from other seeds
H0_SEED_5_GOLDEN = (
    ("53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3", 2),
    ("e37f50e830dff8c1ce03f8ad96261aed456381a8595b0eddbeb0915e89669370", 2929))


def _h0_audit(tmp_path, capsysbinary, *options):
    audit = tmp_path / "audit.json"
    argv = ["h0", str(FIXTURES / "inoue_z2z4.json"), "Y", H0_CLASS, *options,
            "--audit", str(audit)]
    assert cli.main(argv) == cli.EXIT_OK
    return _digest(capsysbinary.readouterr().out), _digest(audit.read_bytes())


def test_h0_audit_bytes(tmp_path, capsysbinary):
    assert _h0_audit(tmp_path, capsysbinary) == H0_GOLDEN


def test_h0_audit_bytes_at_seed_5(tmp_path, capsysbinary):
    assert _h0_audit(tmp_path, capsysbinary, "--seed", "5") == H0_SEED_5_GOLDEN
