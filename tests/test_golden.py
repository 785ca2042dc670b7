"""Golden CLI outputs: sha256 digests of the exact bytes each command prints.

A refactor or a faster solver path must leave every one of them unchanged:
the named reports, the reference scenario, seeded fuzz findings for each
family, the commands whose cost the value path or a reused solve now
supplies, decompositions that are one of several optima, the boxes the
samplers and the parametric families build, and text reports in and outside
the 16-box hull, whose C different programs prove.  Every command in GOLDEN
exits 0; a fuzz run that the CORRBOX_FUZZ_CORRUPT harness check makes fail
pins the witness bytes and the slack strings of a failing box.
"""

from __future__ import annotations

import hashlib

import pytest

from corrbox.cli import main

GOLDEN = [
    ("repro", "24e0cf04857e698d7ab782889efb1287b155becf3597ff68a1d27513ec962641"),
    ("analyze d0_0", "8b87aceeafb63509e4e8e0f1e81a12b9e96d67a01990b1da0f2987a45b8f976b"),
    ("analyze d1_0", "fec7176ee4a57ef7e4fbb5eb380ac02d213a3e4c4c30356b52afa726a4285031"),
    ("analyze d2_0", "af5360d3b58b94a2101ab3d392c4ca4103530583eb3fc681aaaa3768170696dc"),
    ("analyze d3_0", "b61e4266d92f92176d52063010dcf326659f3a163defa28ecda866cdfcb3665e"),
    ("analyze d4_0", "4d5fa794bef1f8eb20a38de51514dfb5ba12085765c5f57d9d7d3a26cd7f2662"),
    ("analyze d5_0", "0364500cd6e9b8f936930384e2b3768b0ad04c1719d600bcb69e4fc7926a9f82"),
    ("analyze d6_0", "914c37bdd64e4bb99f12f2bc7eaef92b473c6e071690c1405db150627b54b0f4"),
    ("analyze d7_0", "0c4d7c591e7b055e27fafd3017b8e8cd5755ed4ea44bd3981d78f3331f235baa"),
    ("analyze d0_1", "cc3bb34e204ef2bf3b2cb9e00f23c9632313800b06bd1cfd267c1b1278f53f62"),
    ("analyze d1_1", "f760fb8f030bd5fa89f500788c5d4e6df7f66c050bdf434fd828e7c4d6aa98a1"),
    ("analyze d2_1", "433c4ac77e9d4ade438c608899929ae3843848e30e9603b76ad3f2637db35573"),
    ("analyze d3_1", "b7521575a3057dbecf1e10ba3057e61d789ffdae610f528bb5a8bbf6158ff889"),
    ("analyze d4_1", "c4e1476edfd0ef4bcc6c996ddaf7ac55fdbc61bd732f9f13a0a7658730555b99"),
    ("analyze d5_1", "2b262a22748a46115303844936e3f2c8629572d53bf299dd66058c5c50196db7"),
    ("analyze d6_1", "0bf01e1dfabaa01ab84ae9746322cfe093521c890f76bb31d7776a9da6a5947a"),
    ("analyze d7_1", "cee394e4ceaa67c41f707134562b89f204b2d371b7a78181a39b0307b4a0c4d5"),
    ("analyze pr", "c992852b68f12e1039c09e40363101a867de5f68de8f092d0b593496df16d3b5"),
    ("analyze noise", "21d1863215c7e2f937fd8c7f157c486c4f293bbdad07c22b7598a4c658441154"),
    ("fuzz --family general --seed 7 --count 200", "a8714011365b9aae9f77e7603df9555454b6476f87d41d63c5db3b5446151d76"),
    ("fuzz --family no_signaling --seed 7 --count 200", "a98d3eef7c0b8ea3050b95e4653924b209bd28efd02f24e26913d6a151d550e7"),
    ("fuzz --family chsh16_mixture --seed 7 --count 200", "e0f7d0f94958e2ec2ecde926f0e08ac4feeaf7587183f066fa943bc8f09ae120"),
    ("fuzz --family oneway_slice --seed 7 --count 200", "5066578f9a58895efc66425e7e5143a4e48b223897e5de2613b9eb143cc0dc01"),
    ("decompose d3_1 --alt", "6a69b5933397725173f86ef329f6df753a29fb468eba14b0f7ed966ca525431d"),
    ("decompose noise --alt", "96dcee389769db90afe4258633492a2d9041ae54debf611dd58562f405b60d75"),
    ("analyze pr --dim 2", "eded0eb30b43327544973bb828829ffd76795d024c976bb7417a020ea563da22"),
    ("analyze isotropic --v 3/4 --text --dim 3", "2bc1d27e8f6f7241bfa66750e162872a1a117b0e39a399905c9d0fb8ecf60727"),
    ("sweep --steps 10", "9c628a0a55d1a898e2a9c5459f7f3d95a2a00e897ff0f7588015146798aee1a5"),
    ("decompose pr --alt", "a606ff883f9b7046436910c80556381134da8935bb7c0e435eb3968b5f7aad38"),
    ("decompose isotropic --v 7/10 --basis chsh16 --alt", "4963c4cd49e13aa3d45a7f8a666c3737f37a61447fe502061fc89c50804d42b5"),
    ("decompose quantum --angles tsirelson --alt", "c6a2df1075728653de69fa1874ccdce66a94edeb246f818c15735cd806770e50"),
    ("decompose pr --basis chsh16", "60b3c077245f0c69551e22de5d6f77c91ae28e5b7b75ea381cad2d77f6e5fd78"),
    ("analyze quantum --angles tsirelson", "77dff6598e1ffd32b16ee67020350c43c1204f80cfa371c0cfd9f54b103b93a4"),
    ("gen --family general --seed 7", "3df0952fa9790f3c88f00514f1200c444ef0497d9777d6fa4ff85a1335d7549b"),
    ("gen --family chsh16_mixture --seed 7", "7265eb5d24da73a2bce0b479c31881d83a1c80d5559f274be16aa349f81178c1"),
    ("gen --family oneway_slice --seed 7", "5f6aae86fec3ddba39f3421e7b824c5ec93af6a524b52fa83601c1851e3508d5"),
    ("gen --family no_signaling --seed 7", "92ec53932eb5c942e0881ef1f366502a5d4575c69560cf755e6f76c7b6a7b99f"),
    ("gen --kind isotropic --v 7/10", "9dfb005f23475ec85b1b3309fd09ae9138748f876a9eaf166f79a1e20ba485a0"),
    ("gen --kind quantum --angles tsirelson", "ed0a65e3b83005dacfae10a1cb42bd2a05d53f2c010c6d69eee1e306f5f81f06"),
    ("analyze pr --text", "042c629eab5137ee3649906fe25bc6237ad3347e57ffcdcf399ed6341c34593d"),
    ("analyze noise --text", "0cae12e8cb90e23e80750d0228dbb1cfc5a4d7b1e9e47167a113d01da3c55dee"),
    ("analyze quantum --angles tsirelson --text", "bea99302db28604712aa07a6383c9474bd65a714cf6b1cd8655a3378457c4889"),
]


@pytest.mark.parametrize("command,digest", GOLDEN, ids=[c for c, _ in GOLDEN])
def test_output_bytes_unchanged(capsys, command, digest):
    code = main(command.split())
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_every_canonical_name_is_covered():
    from corrbox.generators import canonical_names

    commands = {command for command, _ in GOLDEN}
    assert all(f"analyze {name}" in commands for name in canonical_names())


def test_corrupted_fuzz_witness_bytes_unchanged(capsys, monkeypatch):
    monkeypatch.setenv("CORRBOX_FUZZ_CORRUPT", "1")
    code = main("fuzz --family oneway_slice --seed 7 --count 50".split())
    out = capsys.readouterr().out
    assert code == 1
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "87bae46211afa09d1f10bb3dd017ec582c6d5a85f372dddcf83d4b39f4b6ffd8"
    )
