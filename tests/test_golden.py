"""Bit-identity of the command-line outputs: the sha256 of stdout of
`resrings resolve` (the resolution and its validation report), and of
`omega`, `table` at both scales and `disc --orders`, on fixed inputs.

A change to any of these hashes is a change in the program's output, and
they must not move under changes meant to be speed-ups.  The `resolve`
hashes were taken before syzygy systems were assembled as sparse integer
rows; the others, and the Table 1 reports, before brackets, omega and
braces were read from integer coefficient arrays.  The `classical` and
`verify` pins, with their exit codes, were taken before the verdicts of
every check moved onto one `Report` type.
"""

import hashlib
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from io import StringIO

import pytest

from resrings import cli
from resrings.cli import main
from resrings.configs import from_etale, random_points_config, standard_config
from resrings.resolution import build_resolution
from resrings.ringalg import Table1Report, table1_check
from resrings.symcore import Polynomial, PolyMatrix

GOLDEN = {
    "standard 3": "615a6bfa7421b38a3a4e092185a23ef7e0791ef36f3c2f4a1261a9434f0bec36",
    "standard 4": "3d0cfc3b40e0be01dd355a581341664711d126089a7b3ec35fd02aeae5fd0ee5",
    "standard 5": "af57f9a19ecafb99e96070d3ecc1035aa51ca2c6fedf45b46015a2f977cc0b6e",
    "standard 6": "10e06cf1bf3dc6c5944b02d02566f6f34bb74208b43a988b61128c505e6628e1",
    "standard 7": "14be1c594537b3a9aa278c56c385fa0a03d451fa18182e5262119e06d9bb1285",
    "standard 8": "1d1806a8af55bf6ebd248af37cf545474efc672863fea0cd4b0412d7e2aa6de4",
    "etale t^4-t-1": "cb3cd2898197a4be282efdbc8ac3ece73af34999d1f7d0a2701a8ccfef3f776a",
    "etale t^5-t-1": "466f7145e560c6ea11870178f333231cfb8fd915f4676e7910ebe5a73bfe3d53",
    "etale t^6-t-1": "601c2981021f627c5ea2e45e875ed01deb1051cc57e3bb4625cf6b6a67a59c17",
    # random_points_config(n, random.Random(seed), bound)
    "points 5 5 1000000": "c53c70de42b4e8029ae2291359d188ae4ca214e9b551cca3eb57e96aec42509d",
    "points 6 6 1000": "66c971ccc47bc7e2851354a83fa3bdbcf94a14bbe5d16c89a5fed13b5e3554fa",
    "points 7 7 1": "518ad7d61cbde5437825ed69a4943c455fc90e0f3da04a151f3855cadd5fd158",
    # five seeds for each n at the default bound 4, taken before validate read
    # the complex check off the syzygy systems
    "points 4 1 4": "fb12f81ca992af7c0197f905d1cfffcf4dc2f2117df8460e35b6ea29ba5ae03c",
    "points 4 2 4": "d1196ad6e95fab9d9e8dca3acebcad614a2ac7b6d6cc763f9c55ac78085e1c3a",
    "points 4 3 4": "0dae99452c7f132afb3b838524b74db18699b82441daac3841466dd483a2e149",
    "points 4 4 4": "72fd7948b8622747317518707176b67b2ffb372f66b4f503801ecd6549517f2e",
    "points 4 5 4": "fd62a37dc5a35c40eff9c14320a9385f7375699af6f61d06d96e3db81c827435",
    "points 5 1 4": "85f3a93ed437529fbf781866c1a8ccc44c395fccb495abf5e86345ad53227e1e",
    "points 5 2 4": "1c95891a257b11cde78804dc3d607660f335b785447c77adb2026ecdc161679e",
    "points 5 3 4": "7ec206e1044cdd8a3abca61bd21a892342928e902e2e0e6649ac2542e1097856",
    "points 5 4 4": "aa702a49acbec416a46b00da3f2126ca29c7b5c0bd66532fe83b6d5e1415034a",
    "points 5 5 4": "0e003226c137429c97eee81d6433b08a9edc8fc2821f3ffcd89d6395b9497d40",
    "points 6 1 4": "ef21cab8a020d6bab595b63c73df377949f2bca289e3762689e15ce2f42c51e8",
    "points 6 2 4": "e4d74e587e63d2fc502b7475abd8ab2cd2dcfcb3935fc99c1cb8fdc2aa96254b",
    "points 6 3 4": "5809976498b1d592a814ae9899e37cdfc472280fd0c2eea3c19efd4192a27509",
    "points 6 4 4": "7f8ce9208aafd48aeb5303352379e7293b7e8a57ee7b57a6dc4fc0d1e0713d08",
    "points 6 5 4": "81ef24272402d617ad5b50e4d06858cb345929314f8e1db7e08c24b6e78761eb",
    "points 7 1 4": "8b113c33f9ede49e74ce8d9e306acfad332ea3dee90669b53b06fdb29491d8b2",
    "points 7 2 4": "fd47b7efdbab794c83804010d52fe75d3f4fe5b957c443fc511b178ddf4e7c8c",
    "points 7 3 4": "8e8b3bdbccb9e6dda02664cfbb315b4cde5c2ff37ba72a9e69b5a4cdf7816b42",
    "points 7 4 4": "d73ea57ee97b1881868c3c2bc43c5c42aa5cf6cc212a87b93940e44fa12001f7",
    "points 7 5 4": "f2b5c79918490e7aa75611864918cd2bdb92cbfef3b21d3aa64133866b5af1c4",
}


def _config_args(case, tmp_path):
    kind, *args = case.split()
    if kind == "standard":
        return ["--standard", args[0]]
    if kind == "etale":
        return ["--etale", args[0]]
    n, seed, bound = (int(a) for a in args)
    path = tmp_path / "points.json"
    path.write_text(json.dumps(random_points_config(n, random.Random(seed), bound=bound).to_json()))
    return [str(path)]


def _stdout_sha256(argv):
    out = StringIO()
    with redirect_stdout(out):
        assert main(argv) == 0
    return hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


@pytest.mark.parametrize("case", list(GOLDEN))
def test_resolve_output_is_bit_identical(case, tmp_path):
    assert _stdout_sha256(["resolve"] + _config_args(case, tmp_path)) == GOLDEN[case]


COMMANDS = {
    "omega": ["omega"],
    "table hessian": ["table", "--scale", "hessian"],
    "table bhargava": ["table", "--scale", "bhargava"],
    "disc orders": ["disc", "--orders"],
}

# "<command> | <input>", the inputs as in GOLDEN
CALCULUS_GOLDEN = {
    "omega | standard 3": "4d87c07d74a82d1c3ae2a01cc2615a0b3f313968224a267394e9b2ff7947d834",
    "omega | standard 4": "4780c5c0c337e5775ce5a7c24755c09be65d48300b08f31d6266e490fa617b10",
    "table hessian | standard 4": "6fb125764fef90733a877cb05bcb1fdfdbe1761d87b69650025202bd852686a1",
    "table bhargava | standard 4": "b73a59b032b3cf339d36a9a07e7b6e222f480dc588ba89b4a441a0868c5c7f5b",
    "disc orders | standard 4": "bc427cfbcdf42f8ad57cf345088cf749879cb3c573b659134acc5ac5d1cd765e",
    "omega | standard 5": "dc50d0be685de4f949b7c8f34c016fd3d207e7ff11c046caafb3053cf10fe550",
    "table hessian | standard 5": "01bd7ff4877363b9499f3679a4893cc33c670c20688e57dfe6909aa58b290613",
    "table bhargava | standard 5": "15b91119535df807de382a1d430770a68ec74c682d47f597d40bdd0f9a3d5bf4",
    "disc orders | standard 5": "3de695918a853427a0b5bae299f8454ca623f845b70850b064b5cc20e30eb816",
    "omega | standard 6": "e5406f8ad07c8f772a53ab023163ab98c37f5cbaf1d2ce3c90d427f80767bd63",
    "table hessian | standard 6": "421e38643a7c4c65062ccd4bf411882ddd8a304abe2a4484bc26753328cb30d1",
    "table bhargava | standard 6": "41be2bf9e8ce6891b8912ef464ba400ef147409d2b64d41920396942e336b3ca",
    "disc orders | standard 6": "4ffa0c3e675019ad8eae2ba78478961d75dcada2f1d355176be59a489dd62f0f",
    "omega | standard 7": "1b97590a1cc1bd6b4deafd053c669328f4a8422822c0a01f487535c5bede79f3",
    "table hessian | standard 7": "edf5e4ffee45436b88c1665e2ffab5ab670de2a520fcabccb79a1adf0baac190",
    "table bhargava | standard 7": "14ddbf176869b5a03f66034a61fc4229b91b00c8f57947d19a06b7dc4106b57f",
    "disc orders | standard 7": "92dbb62cee0d9de0aed41560da0eef492afb4817f5842e64d898c8cfd8562163",
    "omega | standard 8": "0588d010b2dc65b0b650875930a015f563689bfa09335e9124a8260f0d0072a6",
    "table hessian | standard 8": "48245d95a7895bef6a3521d6ff0ef372de1f493dbb9cfb4bb22dba35729f3965",
    "table bhargava | standard 8": "1e3f6f5a9dd94a338e380649a17445229bf29d065d620d1cf2d3d82a334c6c96",
    "disc orders | standard 8": "f7680049aa735932bbd904ea2a72960c78141f1008897bfcd82bd586e504e66a",
    "omega | etale t^4-t-1": "6aa9821125ee922ee7bb1653eb80a31bc4e778e6b2225b79c9cde20399b76de1",
    "table hessian | etale t^4-t-1": "9d59276774dbbf038df19a218a91feadc9b8cc34d1d274b91c6a47f07554775c",
    "table bhargava | etale t^4-t-1": "44b2ade2e26cdc76ea0f6d2c3e8737c0aea4f38720fe7e41cf90708a8be1aa1b",
    "disc orders | etale t^4-t-1": "97d18980e4aa5bd597be1a6f3e65a980c4ac6ccc62777dff4f504676ce55ae6e",
    "omega | etale t^5-t-1": "e690f695a4a57f8bf802410eca27795c1cba682856814c065f2eeebc1ec278c1",
    "table hessian | etale t^5-t-1": "4d3a327c7ed6eb010fa97b62a4f7f8e23b050815eefe24da0f27db0829e49f9c",
    "table bhargava | etale t^5-t-1": "d4fdbc4bd0176dccf1188dd41f94ef416ed35b74aebbf26149b1a92c724d6d5f",
    "disc orders | etale t^5-t-1": "8450a8b377e539de4674dd6443c4796811fdab0cd037e166d22572d3ee623f75",
    "omega | etale t^6-t-1": "ffab530f32e2195f29a29060b5e74f8e534c0d55de104220b81582dd667fb37b",
    "table hessian | etale t^6-t-1": "478219b13b56944c4706a739a570563fab2c61e08ebbd01eb0cc6c69da75de17",
    "table bhargava | etale t^6-t-1": "ce7085e9b2a835290ab5eda671eaa07ea17c6096eecbb183d062b16e279eca63",
    "disc orders | etale t^6-t-1": "271820b2a55f3990a5d8462eed901f637fb4b14e577bec77951b7bf83775d3a3",
    "omega | points 5 5 1000000": "bfd4d217abdd8345899eb6568b727940b3996aa36c13e87af3d83cc4ef5473fa",
    "table hessian | points 5 5 1000000": "33bee2ecd31e402c8de8299a59ae5a5fd3794de6c04fe93a04fb6edf1df58115",
    "table bhargava | points 5 5 1000000": "0d2d5ed2ec531df74c545604e17e435a09d49aae0199a1bc451e402a80affade",
    "disc orders | points 5 5 1000000": "d2cdbfa036643b8af8b30ee31ef33641ce1086cd53349a285d9da29fa6237c89",
    "omega | points 6 6 1000": "f1f4a7ed9ac15b94183eb643e9f345022705555ddd480b613c41127a15dace64",
    "table hessian | points 6 6 1000": "c46eb45a357bdc9af8c4960b989005f6d96f89006513bdb22dc71eb0326c5139",
    "table bhargava | points 6 6 1000": "46f20e3a383b3c10924051dd6490f992acb5545d7cdefe0aef44b251b96a1bf7",
    "disc orders | points 6 6 1000": "11b30c12d1557daa7da4db30baa18737fd8410698b223f1f1df2b66204570412",
    "omega | points 7 7 1": "2030aff53157b42044a069907b8cda937aec7dd0e6113b82433262d1f445e050",
    "table hessian | points 7 7 1": "561acd74a3053e25c57e523a4e050d76852d9724bb946544563eb6921528bf03",
    "table bhargava | points 7 7 1": "f5021bc402b9db568088c32fd1fef23134f3cf043694c986b4a32769fa15d02a",
    "disc orders | points 7 7 1": "20a6f638089f90e19f59ec630cd9cbf7a98e4ccff35b93ab25a760cced40840d",
}


@pytest.fixture(scope="module")
def _memoized_build():
    """build_resolution that builds each configuration once per module,
    keyed on the configuration's JSON."""
    memo = {}

    def build(c):
        key = json.dumps(c.to_json(), sort_keys=True)
        if key not in memo:
            memo[key] = build_resolution(c)
        return memo[key]

    return build


@pytest.fixture(autouse=True)
def _calculus_builds_once(request, monkeypatch, _memoized_build):
    # the four calculus commands of one input share its resolution; the
    # resolve goldens keep building fresh
    if request.function.__name__ == "test_calculus_output_is_bit_identical":
        monkeypatch.setattr(cli, "build_resolution", _memoized_build)


@pytest.mark.parametrize("key", list(CALCULUS_GOLDEN))
def test_calculus_output_is_bit_identical(key, tmp_path):
    command, case = key.split(" | ")
    argv = COMMANDS[command] + _config_args(case, tmp_path)
    assert _stdout_sha256(argv) == CALCULUS_GOLDEN[key]


def test_brace_output_is_bit_identical():
    digest = _stdout_sha256(["omega", "--standard", "6", "--brace", "1,1,2,3,4,5"])
    assert digest == "7b5e169686d0b82a19c708983c6e35101882009765035cb496d0e5842c399b9c"


@pytest.mark.parametrize("config, triples", [
    (lambda: from_etale("t^7-t-1"), 120),
    (lambda: standard_config(5), 24),
    (lambda: standard_config(6), 60),
    (lambda: standard_config(7), 120),
], ids=["etale t^7-t-1", "standard 5", "standard 6", "standard 7"])
def test_table1_report_is_unchanged(config, triples):
    cfg = config()
    assert table1_check(build_resolution(cfg)) == Table1Report(cfg.n, triples, ())


def _alternating(upper):
    """The 5x5 alternating matrix of linear forms in x1..x4 whose entries
    above the diagonal, in row-major order, have the given coefficients."""
    entries = [[Polynomial.zero(4) for _ in range(5)] for _ in range(5)]
    coefficients = iter(upper)
    for i in range(5):
        for j in range(i + 1, 5):
            p = Polynomial(4, {tuple(int(t == s) for t in range(4)): Fraction(c)
                               for s, c in enumerate(next(coefficients))})
            entries[i][j], entries[j][i] = p, -p
    return PolyMatrix(entries)


_x1, _x2, _x3 = (Polynomial.variable(3, j) for j in (1, 2, 3))

# JSON input files, named in the argv of CLI_GOLDEN
CLI_FILES = {
    # the pencil through the four standard points of P^2
    "pencil.A": lambda: (_x1 * (_x2 - _x3)).to_json(),
    "pencil.B": lambda: (_x2 * (_x1 - _x3)).to_json(),
    "generic.Phi": lambda: _alternating([
        [2, 0, 0, 2], [-2, 1, -1, -2], [-1, -2, 0, 1], [-1, 1, 2, -2], [2, -1, -2, -1],
        [1, 0, -1, 1], [-1, -2, -1, 2], [2, 1, -1, -1], [-2, -2, -1, -1], [-1, -1, 0, 0],
    ]).to_json(),
    # every entry x1: the Pfaffians are all +-x1^2, so validation fails (exit 2)
    "degenerate.Phi": lambda: _alternating([[1, 0, 0, 0]] * 10).to_json(),
}

# argv -> (exit code, sha256 of stdout)
CLI_GOLDEN = {
    "classical cubic 1 0 -1 -1": (0, "54dd0724417cc75c747507f120da16f4bf6ff772cbb77178ff32271d163eb7e0"),
    "classical cubic 2 -3 5 7": (0, "9fe56eaf7ccabf93ece277865d213142ef43ff372833c4231312fb83a8ee4374"),
    "classical quartic pencil.A pencil.B": (0, "474d095be4df3cbfbbcc5ece58193eeece9151df74b5b5e4ec777d1a9377528e"),
    "classical quintic generic.Phi": (0, "b961814f06c978f87dd66fd9948d2a2c715434659179a52ee01fe60ee402b6e8"),
    "classical quintic degenerate.Phi": (2, "17c9d1149546e61c37fec12215db58f51cfd07c6b58119f59c3d508cbff0f634"),
    "verify --suite symmetries --n 5 --cases 3": (0, "7c317b5b1318d11f08b183490dc00483908f585c86cf536525de4c3693c19e86"),
    "verify --suite koszul --n 5": (0, "b20ff7227856c3ba04b163ac2bcc23588d58c463687bf1ab26258f41fa98650c"),
    "verify --suite table1 --n 5 --cases 1": (0, "6687c0f6660b4fa156f1d9ac05e7df850e6893d8907c62b3df7b8c2af1d6453c"),
    "verify --suite endtoend --n 4..5 --cases 1": (0, "69b6795aa7f08d13e4056006a7431d7f9fa3c4af84a42e135eb1b9ec392d91d6"),
    "verify --suite classical --cases 5": (0, "cf442f8f97d6fee31b3318a8e177f23900fa8deff4971df098c81915e0683db3"),
    "verify --suite orders --n 4": (0, "0477f6341b8b3d87ccc55120c6c449ebc62036c84a6792d31d2ab5f42786f760"),
    "verify --suite all --n 5 --cases 2": (0, "9f535dc3984683dd59a4850e56b0b8eb3c9ca7a7daa6dec23cf3935fb51c1ac6"),
}


@pytest.mark.parametrize("case", list(CLI_GOLDEN))
def test_classical_and_verify_output_is_bit_identical(case, tmp_path):
    argv = []
    for arg in case.split():
        if arg in CLI_FILES:
            path = tmp_path / arg
            path.write_text(json.dumps(CLI_FILES[arg]()))
            arg = str(path)
        argv.append(arg)
    out = StringIO()
    with redirect_stdout(out), redirect_stderr(StringIO()):
        code = main(argv)
    assert (code, hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()) == CLI_GOLDEN[case]
