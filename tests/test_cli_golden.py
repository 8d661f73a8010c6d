"""Golden CLI matrix: the sha256 of stdout, pinned for every subcommand.

Each invocation runs at two seeds; those that take --jobs run at --jobs 1
and 2 and must print the same bytes. The pins were taken before the game
layer was collapsed onto one trial driver, so any refactor that changes a
report's bytes fails here. Regenerate a pin only for a change that is meant
to change output, and say so where the change is recorded.
"""

import contextlib
import hashlib
import io

from subvertlab import cli, games

STEGO = ["--ml", "4", "--s", "16", "--outl", "24", "--stego-kappa", "16"]
FAB = ["--sig", "coin-extractable", "--sig-ml", "16", "--tag-bits", "8", "--fab-ml", "8"]

# label -> (argv, runs at --jobs 1 and 2); {dir} is a per-test directory
MATRIX = {
    "channel sample ses": (["channel", "sample", "--depth", "3", "--count", "4"], False),
    "channel sample signed": (["channel", "sample", "--channel", "signed", "--count", "3"], False),
    "channel entropy exact": (
        ["channel", "entropy", "--channel", "ses", "--r", "2", "--ell", "2", "--depths", "0,1,3"],
        False,
    ),
    "channel entropy estimate": (
        ["channel", "entropy", "--mode", "estimate", "--channel", "rand-alg", "--r", "4",
         "--depth", "2", "--samples", "300"],
        False,
    ),
    "stego embed": (
        ["stego", "embed", "--channel", "uniform", "--doc-bits", "16", *STEGO, "--message", "a",
         "--out", "{dir}/stego.jsonl"],
        False,
    ),
    "stego embed schedule": (
        ["stego", "embed", *STEGO, "--message", "5", "--schedule", "10,4,10"],
        False,
    ),
    "stego extract": (["stego", "extract", "--file", "{dir}/stego.jsonl"], False),
    "stego roundtrip": (["stego", "roundtrip", *STEGO, "--trials", "6"], True),
    "stego roundtrip sampled": (
        ["stego", "roundtrip", *STEGO, "--history-mode", "sampled", "--trials", "6"],
        True,
    ),
    "stego roundtrip reboot": (["stego", "roundtrip", *STEGO, "--reboot", "--trials", "6"], True),
    "stego roundtrip reboot schedule": (
        ["stego", "roundtrip", *STEGO, "--reboot", "--schedule", "8,8,8", "--trials", "4"],
        True,
    ),
    "asa build": (["asa", "build", *STEGO], False),
    "asa run": (["asa", "run", *STEGO, "--out", "{dir}/asa.jsonl"], False),
    "asa extract": (["asa", "extract", "--file", "{dir}/asa.jsonl"], False),
    "asa queries": (["asa", "queries", *STEGO, "--trials", "20"], False),
    "game cpa repeat": (["game", "cpa", "--r", "2", "--trials", "30", "--out", "{dir}/cpa.jsonl"], True),
    "game cpa chi2": (["game", "cpa", "--adversary", "chi2", "--trials", "20"], True),
    "game enc-asa repeat": (
        ["game", "enc-asa", *STEGO, "--trials", "12", "--out", "{dir}/enc-asa.jsonl"],
        True,
    ),
    "game enc-asa chi2": (
        ["game", "enc-asa", *STEGO, "--adversary", "chi2", "--queries", "8", "--trials", "10"],
        True,
    ),
    "game enc-asa det": (["game", "enc-asa", *STEGO, "--host", "det", "--trials", "8"], True),
    "game ss-cha repeat": (["game", "ss-cha", *STEGO, "--trials", "12"], True),
    "game ss-cha chi2": (
        ["game", "ss-cha", *STEGO, "--channel", "uniform", "--adversary", "chi2", "--queries", "8",
         "--trials", "10"],
        True,
    ),
    "game rasa enc": (["game", "rasa", *STEGO, "--trials", "12"], True),
    "game rasa chi2": (
        ["game", "rasa", *STEGO, "--adversary", "chi2", "--queries", "8", "--trials", "10"],
        True,
    ),
    "game rasa force-embed": (
        ["game", "rasa", *STEGO, "--host", "det", "--force-embed", "--trials", "8"],
        True,
    ),
    "game rasa fabricating": (
        ["game", "rasa", "--rasa-host", "signed", "--attack", "fabricating", *FAB,
         "--budget", "512", "--trials", "10"],
        True,
    ),
    "game forge replay": (["game", "forge", "--adversary", "replay", "--trials", "10"], True),
    "game forge random": (["game", "forge", "--tag-bits", "4", "--trials", "20"], True),
    "game forge search": (
        ["game", "forge", "--adversary", "search", "--tag-bits", "6", "--budget", "32",
         "--trials", "10"],
        True,
    ),
    "game forge universal": (
        ["game", "forge", "--adversary", "universal", *STEGO, "--trials", "6"],
        True,
    ),
    "game forge fabricating": (
        ["game", "forge", "--adversary", "fabricating", *FAB, "--budget", "512", "--trials", "8"],
        True,
    ),
    "game unrel enc-asa": (["game", "unrel", *STEGO, "--trials", "6"], True),
    "game unrel enc-asa equal": (
        ["game", "unrel", *STEGO, "--message-mode", "equal", "--trials", "6"],
        True,
    ),
    "game unrel stego": (
        ["game", "unrel", "--target", "stego", *STEGO, "--history-mode", "sampled", "--trials", "6"],
        True,
    ),
    "game unrel stego-reboot": (
        ["game", "unrel", "--target", "stego-reboot", *STEGO, "--trials", "6"],
        True,
    ),
    "game unrel rasa": (["game", "unrel", "--target", "rasa", *STEGO, "--trials", "6"], True),
    "game unrel rasa fabricating": (
        ["game", "unrel", "--target", "rasa", "--rasa-host", "signed", "--attack", "fabricating",
         *FAB, "--budget", "512", "--trials", "6"],
        True,
    ),
    "lowerbound phi": (["lowerbound", "phi", "--ml", "64", "--outl", "1", "--query", "4"], False),
    "lowerbound forger fabricating": (
        ["lowerbound", "forger", *FAB, "--budget", "512", "--trials", "8"],
        True,
    ),
    "lowerbound forger universal": (
        ["lowerbound", "forger", "--attack", "universal", *STEGO, "--trials", "6"],
        True,
    ),
    "lowerbound rate fabricating": (
        ["lowerbound", "rate", *FAB, "--budget", "1024", "--trials", "8"],
        True,
    ),
    "lowerbound rate universal": (
        ["lowerbound", "rate", "--attack", "universal", *STEGO, "--query", "3", "--trials", "4"],
        True,
    ),
    "report merge": (
        ["report", "merge", "{dir}/cpa.jsonl", "{dir}/enc-asa.jsonl", "{dir}/cpa.jsonl"],
        False,
    ),
}

SEEDS = ("1", "8")

# sha256 of stdout by (label, seed)
PINS = {
    ('channel sample ses', '1'): '2571dbe7a2c0646d32f069f5085b5a84acd89222e3c6b057dd6a5c03b483ac4c',
    ('channel sample signed', '1'): 'c76e2c22be91be6a634c73934ed966bd2ebb7fa75db3382bd5523fa46f832f91',
    ('channel entropy exact', '1'): 'af056b5f149725d411e2359bee940dca0ff9fbb91785c0fa807655325eb7b93d',
    ('channel entropy estimate', '1'): 'fe307478230df4dae7c4c25a7e6f3757670e63d544cb61c67edf60090779440c',
    ('stego embed', '1'): 'c1819518416f46f52598ed4bfb9b21dd21099c270e12f90a3b700897f1271c21',
    ('stego embed schedule', '1'): '9f8751e10e6779cabcc68ddd0447fae6dab0a894f5bb00e3c29878772bc1a65f',
    ('stego extract', '1'): '9473b2b6ef91a67df2efd8df0a612f8c620887f543c4ae0402f996162d209954',
    ('stego roundtrip', '1'): 'c14d22ca8c2b1254668cb6eaec64183997ca280fb89d33c90a87700e176894a2',
    ('stego roundtrip sampled', '1'): '20dd560d2d9fc981ffd437d7700b74a6fe9d4ecc526095c1938b050f02ff8611',
    ('stego roundtrip reboot', '1'): '0c60cb4c93abcbf554cea2d69c8e5fe060453f5068f0764c59b6d31689daf6d5',
    ('stego roundtrip reboot schedule', '1'): 'ca39301ec2eb2ee5342b9cbc1aec2e3b82ab6a315de4bad53d2a3b2e597563fb',
    ('asa build', '1'): 'e6439ebfb6e781025875f7ab859b3ebd3728750883edc052afc88d53286ccecd',
    ('asa run', '1'): '9d17f50ff0bc79e9e68975ad8eefdc2003f5bfeb73a2483d8c5d60827c11604a',
    ('asa extract', '1'): '6cf8f3450d8688476bf939c2a7ea160760b0997658d92c51d7b988757927ccd7',
    ('asa queries', '1'): 'e097580986881bc8076767d594e2f2dec9fdb05fc2507b93461369f847793548',
    ('game cpa repeat', '1'): '548a72fa6c3f7ae4e4773e71d9d1ca6f5fab6fa977d1ac9cdb773096686941d3',
    ('game cpa chi2', '1'): '1a7148fe550d5347d6d47b6cd5a738aff6cd87707ca8454c652215b58ef3eeed',
    ('game enc-asa repeat', '1'): '6ed4a69f5e3be6773b2812fb42183a36d5b83bfc1d7804a01afa4b4615d18f1c',
    ('game enc-asa chi2', '1'): 'b28e2145b2d03378362321f6e7531db6bafaf045cb46318ab88ae2551b0c3e59',
    ('game enc-asa det', '1'): 'dc21f1b0dae5be78ea92add99ce08908068b9d235e65ef021150be58a565159f',
    ('game ss-cha repeat', '1'): '48bc17120d313950db46c4ff7f8251525451a7332a02590cdc0aa3cc5630a51d',
    ('game ss-cha chi2', '1'): '63a8a03ec665e1a177ffd37c2ef27581d589d218bb3d98d86c3e49a729735d6c',
    ('game rasa enc', '1'): 'b55f0f86b369b420f787259b1dcaef95d23279faea07509e37975be164680122',
    ('game rasa chi2', '1'): 'ab0d62ae41f2a84b78cc5c198312cc54807e931d5692282cf9236f4f6ca0e7c5',
    ('game rasa force-embed', '1'): '28aa5d27f32b1a9831d1d3975da928d0ec7819d09819cee73cd8173337e844aa',
    ('game rasa fabricating', '1'): 'e85f839a3c313ef3bd106f75fed43671b98d036f3b6f72b3c1ea0f613b175237',
    ('game forge replay', '1'): '718d5309263d901e620aa5893578411adc7a98b373d7c8931a923054c10416c5',
    ('game forge random', '1'): 'd514aa0f6c0210c9def8a50ca9ca3761edbbeab7460b2b28df0cd6e82065fc62',
    ('game forge search', '1'): 'ddcdda314e377f521599eab80c91c3786cecb51e83fabb634cf7877369c338ce',
    ('game forge universal', '1'): 'ba237384334d772b3ebe49c70a21bc26403c6f5f6370dc2b2fe4e638c95d8c9e',
    ('game forge fabricating', '1'): '71534f782ee5018aadc9ac49b60a2a056893cc961a2797e71c659b22c3fe1bac',
    ('game unrel enc-asa', '1'): '528af47b3aee10f9d065f5b142bc87cb7cc5998308764a550d3455b23e0472d1',
    ('game unrel enc-asa equal', '1'): '94692ece209f5ae9ebe14181eb02316948a77fcb0b96c1d4db51f9c858a9f731',
    ('game unrel stego', '1'): '20dd560d2d9fc981ffd437d7700b74a6fe9d4ecc526095c1938b050f02ff8611',
    ('game unrel stego-reboot', '1'): '0c60cb4c93abcbf554cea2d69c8e5fe060453f5068f0764c59b6d31689daf6d5',
    ('game unrel rasa', '1'): '80a4101d4f7ea4990aa7194f5ffdfa5e5cce48b9c15cfdf778d470a27eb20357',
    ('game unrel rasa fabricating', '1'): '2c723869ff730a73e6f71f0d8e78b2cea6355f112f74ac5c7b1b051f75c62ca6',
    ('lowerbound phi', '1'): '7c9a3956a44f7cb8b19f42c39e9d8588bab5fe215242ee6faef6abd2c5d1958f',
    ('lowerbound forger fabricating', '1'): '71534f782ee5018aadc9ac49b60a2a056893cc961a2797e71c659b22c3fe1bac',
    ('lowerbound forger universal', '1'): 'ba237384334d772b3ebe49c70a21bc26403c6f5f6370dc2b2fe4e638c95d8c9e',
    ('lowerbound rate fabricating', '1'): '8688096d40d9dd660aa53795305d6e5c22c0cf2de40fa6da673dcb3a2e81a77a',
    ('lowerbound rate universal', '1'): '7b2cd98fbdf9ac548e67528953f850369d4425496e0aa8361079b6abb04e9b11',
    ('report merge', '1'): '54222692dab43a66b2bbe341c67c2398478f099c2e6c7389f0619dee0c52aee6',
    ('channel sample ses', '8'): '79dc5290fda5ba5cad3c3cd0d2d66e7fd9edb8cbc86ae9619e527974841e6f54',
    ('channel sample signed', '8'): 'a8c9aeab9778b86c975d98002cc92fa7254ca9d7f622a7d59f3112bc20cd4a69',
    ('channel entropy exact', '8'): '2f50657e0f16bc724eebd150c55bb3a417d28380bdf0e9843f8f4bfe42eaf01a',
    ('channel entropy estimate', '8'): 'fd48f1dbbcad974d1d4817b643b539998c7c2ef3eb1735e8fccb59b8ed5c65f9',
    ('stego embed', '8'): 'dc565f457f8e9e73faa8f0f43a6e7ba39e999771546381d4a9a0a6ad429194a2',
    ('stego embed schedule', '8'): '15e4c9e3bab7a56bf7e3211b29a191ea4221d3744d0042f17f4d50c7716f39a1',
    ('stego extract', '8'): '9473b2b6ef91a67df2efd8df0a612f8c620887f543c4ae0402f996162d209954',
    ('stego roundtrip', '8'): 'b875a0286331858a396df5add99c52dcd361998ca4e4550ec4882fec8170e41f',
    ('stego roundtrip sampled', '8'): '704deacb1857384e75044142e02bde084e2e22c56f86aa9eaebdc11d820c8f24',
    ('stego roundtrip reboot', '8'): 'f2a9466a17c5f71eb2667f2de07498b3ee71093233844d46e6dfedd576139a26',
    ('stego roundtrip reboot schedule', '8'): '3c4d63d2ab5af3eeabb3019566b62916ca73a453b3a1dfb419f6a0350992dddb',
    ('asa build', '8'): 'e6439ebfb6e781025875f7ab859b3ebd3728750883edc052afc88d53286ccecd',
    ('asa run', '8'): 'c2c79c17309f0b7d9f48da6dc859346d8e05cdfd9808f0581082ffb1cb0768a7',
    ('asa extract', '8'): '8af34aa65d9e1c6a9320c7d181ce3a55651ba1487edbfdd530af05b5418d2a95',
    ('asa queries', '8'): '4838a45a76868d2d8b482ec60dc53bb94b2fe5ed5f2f64672206cfc0fc54f8fd',
    ('game cpa repeat', '8'): '6eda0178be41647f1e39902a1f92accb63b30b3251b61b82426d9b2fd24571ca',
    ('game cpa chi2', '8'): 'c891b6931d3da9bd2fa991601bc2085afde120267ee03a9ae93412b2a72919e1',
    ('game enc-asa repeat', '8'): '1a3064c448399c1d2938fe2d6fbc073003d5137df716bb24cf4a89314af39f79',
    ('game enc-asa chi2', '8'): '09cd080d5a1f36343cf4b92d1e2fc5f88164bb3b05894637cd346f83483d4705',
    ('game enc-asa det', '8'): 'c07218d818b4d9136e0cdd66aed9a3635ca6b9176e2749a5e3bd4bacb4b61c7c',
    ('game ss-cha repeat', '8'): '17f278d2fca8a10d84d14b76ec4fb6f309f665791290dca20a29b6d6c29856bb',
    ('game ss-cha chi2', '8'): 'f83951495973d0b4bc8339ae485f19a3f11724fa5491943702e9104238e065f9',
    ('game rasa enc', '8'): '28d4828074856a2c088120ce732b6bcc1ec47b37822f027b422e4c5761249094',
    ('game rasa chi2', '8'): 'f66e62d4d9226ee5e92e44ea71bb1e25f100e678375424ef1d95c289a4384f60',
    ('game rasa force-embed', '8'): '15246872e784eab8c3c57bb82963c24c0ea025de4fb5bb2cd6c0087434ec71d1',
    ('game rasa fabricating', '8'): '4757713d17b011cd83791cd070e342a9d6e6d3825cb82a864ae7351bd4278021',
    ('game forge replay', '8'): 'bad30e7e59cfc4ee89cc618b30a6f7be1f72030b4258c454b536712d03dc4fa9',
    ('game forge random', '8'): '5b543cddbd451bf4de099686f031a465317b80244f774cae86abc533e55f9101',
    ('game forge search', '8'): 'daa862163624c554debe8d6d093e091f7f2df1bce4b067471c238cdd427bdfc9',
    ('game forge universal', '8'): 'f101d8be48db2449c1d0eef15c623676bc2ef90ac67f9b08b5e4111468379fe4',
    ('game forge fabricating', '8'): '3e5b00e9d8fd63600c91047710fb9bbf16439f95b3bae8d23910de171370b93c',
    ('game unrel enc-asa', '8'): '0de036c449e1cc305eac3af055b989affdd6900a754cbac16c8db422fcf9b4e3',
    ('game unrel enc-asa equal', '8'): '5de680ce015251202810eebc5f478836a45f345fd5a00b6ce7b6d79ef38e1564',
    ('game unrel stego', '8'): '704deacb1857384e75044142e02bde084e2e22c56f86aa9eaebdc11d820c8f24',
    ('game unrel stego-reboot', '8'): 'f2a9466a17c5f71eb2667f2de07498b3ee71093233844d46e6dfedd576139a26',
    ('game unrel rasa', '8'): '0d1538f9af8d9886d83dd93fa2da356f58beed0bc5a9b545eaa2e6c7e39cbf55',
    ('game unrel rasa fabricating', '8'): 'd0acf3dd89f30dcaecfd6805c6e73912d2dfd875e68d680b2079714c8bc6046a',
    ('lowerbound phi', '8'): '7c9a3956a44f7cb8b19f42c39e9d8588bab5fe215242ee6faef6abd2c5d1958f',
    ('lowerbound forger fabricating', '8'): '3e5b00e9d8fd63600c91047710fb9bbf16439f95b3bae8d23910de171370b93c',
    ('lowerbound forger universal', '8'): 'f101d8be48db2449c1d0eef15c623676bc2ef90ac67f9b08b5e4111468379fe4',
    ('lowerbound rate fabricating', '8'): '101b5da2bd5fd8f47a50259ec8ff2271bc671aa5348c65cff672c7d206a7cc78',
    ('lowerbound rate universal', '8'): '8c515aec5cb4b878dae438871f2a84fc9171b0c59add20bcc9e1a2b72474311d',
    ('report merge', '8'): '682c2f90bd7386821faef45ecd87fda55abe37b8af7d682dce57f8aa46fc4ca6',
}


def _stdout(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    assert rc == 0, argv
    return buf.getvalue()


def test_every_subcommand_is_in_the_matrix():
    parser = cli.build_parser()
    covered = {tuple(argv[:2]) for argv, _ in MATRIX.values()}
    commands = {
        (name, sub)
        for name, group in parser._subparsers._group_actions[0].choices.items()
        for sub in group.filled()._subparsers._group_actions[0].choices
    }
    assert commands == covered


def test_stdout_matches_the_pins(tmp_path, monkeypatch):
    monkeypatch.setattr(games, "_usable_cpus", lambda: 2)
    got = {}
    for seed in SEEDS:
        # files written earlier in the matrix are read later at the same seed
        for label, (argv, parallel) in MATRIX.items():
            argv = [a.format(dir=tmp_path) for a in argv] + ["--seed", seed]
            outs = {_stdout(argv + ["--jobs", j]) for j in "12"} if parallel else {_stdout(argv)}
            assert len(outs) == 1, (label, seed)
            got[label, seed] = hashlib.sha256(outs.pop().encode()).hexdigest()
    assert got == PINS
