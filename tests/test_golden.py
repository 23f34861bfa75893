"""Golden CLI outputs: stdout, stderr and exit code of a fixed argv list.

Each case is pinned by its exit code and the sha256 of ``stdout + "\\0" +
stderr``, so any byte that changes in a command's output or error message
fails the test.  Regenerate only for a deliberate output change:

    PYTHONPATH=src python tests/test_golden.py

and keep ``PAST_THE_LIMIT`` in the three seq cases past the int-to-str
limit, whose message depends on the interpreter.
"""

import hashlib
import io
import json
import sys
import tempfile
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from balchain.cli import main

KINDS = (
    "balancing",
    "balancing-q",
    "pell-ratio",
    "lucas",
    "lucas-q",
    "lucas-cobalancing",
    "truncated-infinite",
    "truncated-infinite-q",
    "balancing-like",
    "balancing-like-q",
)
PARAMS = {
    "balancing-q": ("--q", "1/7"),
    "lucas-q": ("--q", "1/10"),
    "truncated-infinite-q": ("--q", "1/9"),
    "balancing-like": ("--a", "4"),
    "balancing-like-q": ("--a", "4", "--q", "1/5"),
}
# placeholders for matrix files written by ``chain ... --format json --out``;
# the second is the benchmark's round-trip size
MATRIX_FILES = {
    "{matrix_file}": ("lucas-cobalancing", "--n", "6"),
    "{matrix_file_150}": ("truncated-infinite-q", "--n", "150", "--q", "1/12"),
}


def _cases() -> list[tuple[str, ...]]:
    cases = []
    for kind in KINDS:
        extra = PARAMS.get(kind, ())
        for n in ("4", "70"):
            for fmt in ("csv", "json"):
                cases.append(("chain", kind, "--n", n, *extra, "--format", fmt))
        for method in ("exact", "power", "simulate"):
            steps = ("--steps", "2000") if method == "simulate" else ()
            cases.append(
                ("solve", kind, "--n", "6", *extra, "--method", method, *steps, "--format", "json")
            )
        cases.append(("verify", kind, "--max-n", "9", *extra))
    for method in ("exact", "power", "simulate"):
        steps = ("--steps", "2000") if method == "simulate" else ()
        cases.append(("solve", "--matrix-file", "{matrix_file}", "--method", method, *steps))
    for fmt in ("csv", "json"):
        cases.append(("chain", *MATRIX_FILES["{matrix_file_150}"], "--format", fmt))
    cases.append(("solve", "--matrix-file", "{matrix_file_150}", "--format", "json"))
    cases += [
        ("verify", "--all", "--max-n", "12", "--format", "json"),
        ("verify", "--all", "--max-n", "6"),
        ("verify", "--beta-powers", "--max-n", "20"),
        ("limit", "--sizes", "5,10"),
        ("limit", "--ratio", "--max-n", "6", "--format", "json"),
        # error messages: missing parameters, size minimums, q bounds
        ("chain", "balancing-like", "--n", "5"),
        ("chain", "balancing-q", "--n", "5"),
        ("chain", "balancing-like-q", "--n", "5", "--a", "4"),
        ("chain", "balancing", "--n", "2"),
        ("chain", "lucas-cobalancing", "--n", "3"),
        ("chain", "balancing-like", "--n", "2", "--a", "1"),
        ("chain", "balancing-like", "--n", "5", "--a", "1"),
        ("chain", "balancing-q", "--n", "5", "--q", "1/5"),
        ("chain", "lucas-q", "--n", "5", "--q", "0"),
        ("chain", "balancing-like-q", "--n", "5", "--a", "4", "--q", "1/3"),
        ("solve", "truncated-infinite-q", "--n", "5", "--q", "-1/7"),
        ("verify", "balancing-q", "--n", "5", "--q", "1/0"),
    ]
    # sequences up to the default int-to-str limit, and the first count past it
    for kind in ("balancing", "lucas-balancing", "cobalancing", "lucas-cobalancing"):
        for fmt in ("csv", "json"):
            cases.append(("seq", kind, "--count", "5617", "--format", fmt))
    cases += [
        ("seq", "pell", "--count", "11235"),
        ("seq", "balancing", "--count", "5618"),
        ("seq", "balancing", "--count", "5619"),
        ("seq", "lucas-cobalancing", "--count", "5618"),
        ("seq", "pell", "--count", "11236"),
    ]
    return cases


@contextmanager
def default_int_digits():
    """The interpreter's default int-to-str limit, which the seq lines pin
    (interpreters older than the limit, before 3.10.7, have none to set)."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def past_the_int_str_limit() -> str | None:
    """The digest of seq's exit-2 line past the int-to-str limit.  Its
    message is the interpreter's own ValueError text, which 3.10 words
    "(4300)" and later versions "(4300 digits)", so it is derived here and
    not pinned; None where there is no limit."""
    with default_int_digits():
        try:
            str(10 ** getattr(sys.int_info, "default_max_str_digits", 0))
        except ValueError as exc:
            stderr = json.dumps({"error": {"code": 2, "message": str(exc)}}) + "\n"
            return hashlib.sha256(("\0" + stderr).encode()).hexdigest()  # stdout is empty
    return None


PAST_THE_LIMIT = past_the_int_str_limit()


def run(argv: tuple[str, ...], matrix_files: dict[str, str]) -> tuple[int, str]:
    argv = [matrix_files.get(a, a) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), default_int_digits():
        code = main(argv)
    digest = hashlib.sha256((out.getvalue() + "\0" + err.getvalue()).encode()).hexdigest()
    return code, digest


def write_matrix_files(directory: Path) -> dict[str, str]:
    paths = {}
    for i, (placeholder, chain) in enumerate(MATRIX_FILES.items()):
        paths[placeholder] = path = str(directory / f"chain{i}.json")
        with redirect_stdout(io.StringIO()):
            assert main(["chain", *chain, "--format", "json", "--out", path]) == 0
    return paths


@pytest.fixture(scope="module")
def matrix_files(tmp_path_factory):
    return write_matrix_files(tmp_path_factory.mktemp("golden"))


GOLDEN = {
    "chain balancing --n 4 --format csv": (0, 'e02f548290c58332f55cd6dd6382deaf7c7c2893efcc1fdb474c33b1e3315b4f'),
    "chain balancing --n 4 --format json": (0, 'ea67a384615b874fc4f266fd09b0fa1dbc996d5c167502b03a9a8712aee3b067'),
    "chain balancing --n 70 --format csv": (0, '1d3e8b5a07fb31a32e98962606abcf1235681f762fa845ee38e4a5e260a64ccb'),
    "chain balancing --n 70 --format json": (0, '8667fbd1b6c1c46863303a505f918f7c463685c5ba32656cd4b5546b38ec4d65'),
    "solve balancing --n 6 --method exact --format json": (0, '2ce59ac8a1eea296504811287c4ec608b708c865ba0da2ef09ac79f847a0eeb3'),
    "solve balancing --n 6 --method power --format json": (0, '454ccaff6d09788831cff57d01afcedd689292bdf6fa6f0a0dc989e127ddbc0f'),
    "solve balancing --n 6 --method simulate --steps 2000 --format json": (0, '86f0a1a1a274607e00466a0075c8e0288e0b2259e5804ab35300afddecaf6ac6'),
    "verify balancing --max-n 9": (0, '56fe87489717e362e32d287ccc9f4625ca92fd954ad38b847477e50fe79d490c'),
    "chain balancing-q --n 4 --q 1/7 --format csv": (0, '04a67fbbe63c06e308e310489bee78626cea0943f2fb384223cea94c7af8d6cc'),
    "chain balancing-q --n 4 --q 1/7 --format json": (0, '9e44af2b52707a6407557d2b3c7ca7205495d5b13a9a11f37ae222e33aa791bf'),
    "chain balancing-q --n 70 --q 1/7 --format csv": (0, '1e18c1f002fa645db0dbf1802c1b98a0c04124d104f36f5402f6111bccaec532'),
    "chain balancing-q --n 70 --q 1/7 --format json": (0, '5a3b096509850842bc220f4c7b9896986cf970ebe69caf4f0ae1242a5372c0a1'),
    "solve balancing-q --n 6 --q 1/7 --method exact --format json": (0, '2ce59ac8a1eea296504811287c4ec608b708c865ba0da2ef09ac79f847a0eeb3'),
    "solve balancing-q --n 6 --q 1/7 --method power --format json": (0, '454ccaff6d09788831cff57d01afcedd689292bdf6fa6f0a0dc989e127ddbc0f'),
    "solve balancing-q --n 6 --q 1/7 --method simulate --steps 2000 --format json": (0, '9229756439790a6babc41372ddc0b3367dc492af6a837bfb1712bf9cf67293f6'),
    "verify balancing-q --max-n 9 --q 1/7": (0, '59284244e2bf1808cb7e6993baf823b2bd79650940e3d015f4189840310021e3'),
    "chain pell-ratio --n 4 --format csv": (0, '4ff792f78da06669e26599734f0beef556ea94480a567cc2b25d1446c01f2854'),
    "chain pell-ratio --n 4 --format json": (0, '4404060dfae566c3e4f994627db88eb682943dbc9ba0483d3cbce7250f97c7a1'),
    "chain pell-ratio --n 70 --format csv": (0, '8713c99a99ddb4734f3a3ef3cdbf76fb47b5b85b53f991817cd545bc65c9ebf8'),
    "chain pell-ratio --n 70 --format json": (0, '07801a72356051b985a537736c60ed2ce1ecacf2a6f66fba959e8af0a24c0635'),
    "solve pell-ratio --n 6 --method exact --format json": (0, 'ccd2cd91ce32de669d77cd455be83c7241c0489003e18b9b159ebc0913aabe71'),
    "solve pell-ratio --n 6 --method power --format json": (0, '852d8ed5801663766a42e4bfd150d4599cd2b321c9b8447899b6b6dd532d7979'),
    "solve pell-ratio --n 6 --method simulate --steps 2000 --format json": (0, '86f0a1a1a274607e00466a0075c8e0288e0b2259e5804ab35300afddecaf6ac6'),
    "verify pell-ratio --max-n 9": (0, '174612d730dfacae04fc408e366c47f9f9d6ee7d877f83273e6abab759f49fd5'),
    "chain lucas --n 4 --format csv": (0, '70fb8eb3e6acd8b48be597a65082d0ba63d5853cec26f99c12dd13937ea347e3'),
    "chain lucas --n 4 --format json": (0, 'dd541c63f5e08a3af38b31ad49d68d54d0d866e6873af7635da2cdb0995bc279'),
    "chain lucas --n 70 --format csv": (0, 'a9e77a02d0df06aa0a43eaf8528efa1c8e1d555af7eab2569d885fcf36f42858'),
    "chain lucas --n 70 --format json": (0, 'b33691fe54e282951dd215cdecdc410867fba39994207fd1481027bc7a716dc1'),
    "solve lucas --n 6 --method exact --format json": (0, '6d77fbd8c2d66a902084b94838eaab4a73d957f634446636ffcd96bf88fc582c'),
    "solve lucas --n 6 --method power --format json": (0, 'c100078e452f2f901f7cd99efc8739ab062d6e18bf2a977f0402051511f32865'),
    "solve lucas --n 6 --method simulate --steps 2000 --format json": (0, '1f69b6f514ca162665ee52b09b2b61899eb0935e7beea50fc4720d49a91854ac'),
    "verify lucas --max-n 9": (0, '37259ff0ea81f5067dde52845ea3a70deb5bca6b2cede6c793c9cc66d20c33c4'),
    "chain lucas-q --n 4 --q 1/10 --format csv": (0, '324d5b73902d93b6734061d04ae473dceb9024a5522c0068767915a997858f30'),
    "chain lucas-q --n 4 --q 1/10 --format json": (0, '46fc3c368044647057080e55dd1dafb4a16e7167c5ff37b5766584f9827d3c83'),
    "chain lucas-q --n 70 --q 1/10 --format csv": (0, '0ae80690bbfebbe9e54adc15a3b1100f9d40077d70338fc89aa46627642cfd6c'),
    "chain lucas-q --n 70 --q 1/10 --format json": (0, 'c94d53610e55a47725c6074d770ee7c181d03ff58045244eca58d7712fcf0088'),
    "solve lucas-q --n 6 --q 1/10 --method exact --format json": (0, '6d77fbd8c2d66a902084b94838eaab4a73d957f634446636ffcd96bf88fc582c'),
    "solve lucas-q --n 6 --q 1/10 --method power --format json": (0, 'c100078e452f2f901f7cd99efc8739ab062d6e18bf2a977f0402051511f32865'),
    "solve lucas-q --n 6 --q 1/10 --method simulate --steps 2000 --format json": (0, '705cd4e2d128a54773e71dfd2ffcbd22c51f638de8f9a7b808768937ac7edf02'),
    "verify lucas-q --max-n 9 --q 1/10": (0, '6ea12cf5fb0381e01d946f7af69159738cd85e4f41973404266008e7c92e7542'),
    "chain lucas-cobalancing --n 4 --format csv": (0, 'b3c73f318c19cb7a2495fc65ca79cc3e76d33503b9014378ab3c8bdede60978e'),
    "chain lucas-cobalancing --n 4 --format json": (0, '07ce0c6e9c62018d6dd3db91b4d281bfa81b2d6dc5dd0af0f735fad24c108557'),
    "chain lucas-cobalancing --n 70 --format csv": (0, '26c4c47374c6ea07a72c7d74c2cbb840406682083955c5ecb5dad6ff81313485'),
    "chain lucas-cobalancing --n 70 --format json": (0, '95e39bf3002d860549bb7f6818d5ef43eb4953806c7fd393c168096869af65c2'),
    "solve lucas-cobalancing --n 6 --method exact --format json": (0, 'd05905b9a7450bd4835014f9e3bfd69d7f083f4d125f7858f3087d65bad09798'),
    "solve lucas-cobalancing --n 6 --method power --format json": (0, '48b7cf8e742e400fda178cc2b827ae94ecc1b1dc46997b2191d1f50b713b0360'),
    "solve lucas-cobalancing --n 6 --method simulate --steps 2000 --format json": (0, 'a8125430f79263e60af6de145518ccfbc70ece59b16e83f4e65e0cea9688a565'),
    "verify lucas-cobalancing --max-n 9": (0, 'a7a8c89f0fd4fc53c8a7d5faf72314fda778cea881af6d2f1178e524e39dc388'),
    "chain truncated-infinite --n 4 --format csv": (0, '4ff792f78da06669e26599734f0beef556ea94480a567cc2b25d1446c01f2854'),
    "chain truncated-infinite --n 4 --format json": (0, '9f5fdded8ff6d96682b54a15ce1bb0c82a4a47731505c41ede6d775b730c8fca'),
    "chain truncated-infinite --n 70 --format csv": (0, '8713c99a99ddb4734f3a3ef3cdbf76fb47b5b85b53f991817cd545bc65c9ebf8'),
    "chain truncated-infinite --n 70 --format json": (0, 'bf7ff813763b658a4918a6ac147530caf533780fbaeb5e6f1a01622466dce6e3'),
    "solve truncated-infinite --n 6 --method exact --format json": (0, 'ccd2cd91ce32de669d77cd455be83c7241c0489003e18b9b159ebc0913aabe71'),
    "solve truncated-infinite --n 6 --method power --format json": (0, '852d8ed5801663766a42e4bfd150d4599cd2b321c9b8447899b6b6dd532d7979'),
    "solve truncated-infinite --n 6 --method simulate --steps 2000 --format json": (0, '86f0a1a1a274607e00466a0075c8e0288e0b2259e5804ab35300afddecaf6ac6'),
    "verify truncated-infinite --max-n 9": (0, '9737fffa70613d1bb9133689689572c542aeab270e44348da56f5662e3d6bd84'),
    "chain truncated-infinite-q --n 4 --q 1/9 --format csv": (0, 'c72c32ea5d90ce6ce9f59b56ae2494063cfa8c4f71137e3e462360bc196cc993'),
    "chain truncated-infinite-q --n 4 --q 1/9 --format json": (0, '2005099689c408474db1b9903119869027a40cc06f631190b57e3914f97b7b57'),
    "chain truncated-infinite-q --n 70 --q 1/9 --format csv": (0, '4d63760963ce5a4ae41c10b76b0517cca5c5af9fbdcc96d0668c0ad00ef60413'),
    "chain truncated-infinite-q --n 70 --q 1/9 --format json": (0, '5814e0d195ce1a77c4fde16993dd60e7ae7db825cf164a041e0d317246511e86'),
    "solve truncated-infinite-q --n 6 --q 1/9 --method exact --format json": (0, 'ccd2cd91ce32de669d77cd455be83c7241c0489003e18b9b159ebc0913aabe71'),
    "solve truncated-infinite-q --n 6 --q 1/9 --method power --format json": (0, '852d8ed5801663766a42e4bfd150d4599cd2b321c9b8447899b6b6dd532d7979'),
    "solve truncated-infinite-q --n 6 --q 1/9 --method simulate --steps 2000 --format json": (0, '4efedd55be956bcb8d198a160121c05431b90386a1b59ff3b63db0b925a89bcb'),
    "verify truncated-infinite-q --max-n 9 --q 1/9": (0, '8db3c7f8cd64be2f7cad1ec1e162dc4b48a5b996097a8ac81ce47415af81518a'),
    "chain balancing-like --n 4 --a 4 --format csv": (0, '5f79624e17256959e15fe499c324acb44b7c4ff4bddf5db33f97732d165438c3'),
    "chain balancing-like --n 4 --a 4 --format json": (0, 'da7a18f735c9780c5e2780d3e2ade838999b95960760b83afca4f08eacafc91d'),
    "chain balancing-like --n 70 --a 4 --format csv": (0, '32b0be42c8adc594ba19383f753830ee24012d98891247cc90c1f268ce494dc8'),
    "chain balancing-like --n 70 --a 4 --format json": (0, 'd2b62a3c18496c83cb6aa46aa588818357d6f9158897edf0f7567bc4c53f1226'),
    "solve balancing-like --n 6 --a 4 --method exact --format json": (0, 'f511d2a55c0e86e62f025284de98b7e7ab194064cc005f0d0e1d85320c321869'),
    "solve balancing-like --n 6 --a 4 --method power --format json": (0, 'b200722da9a70c26f022b3b2b912bba0d928a213af39ab2bbde1cd50ec0c048f'),
    "solve balancing-like --n 6 --a 4 --method simulate --steps 2000 --format json": (0, '5dc0175ef66f39febbf70e4938f2fdc72df4d53b0e548b4ad8180f305c7d0073'),
    "verify balancing-like --max-n 9 --a 4": (0, '03ab797b6a44f7749a48f11a5efb02b4ef8fcc8ca1b421af0a8875f2e52e0965'),
    "chain balancing-like-q --n 4 --a 4 --q 1/5 --format csv": (0, '8b4665be4883c7e5429b7512cb1c08edb0b729ae18db6fa1e7b67c4575f808cb'),
    "chain balancing-like-q --n 4 --a 4 --q 1/5 --format json": (0, '019332465ac19233fce7f79072de33fb9aa625193102ed70aa54d999e8f3e01c'),
    "chain balancing-like-q --n 70 --a 4 --q 1/5 --format csv": (0, 'e6c4f0dca246e3a2bab15bd5e22073460802d6379f5f84d8636860acf62a70d2'),
    "chain balancing-like-q --n 70 --a 4 --q 1/5 --format json": (0, '32abd28e483cb6380b506c643ea1564151cc28f5ab9651c48481b5a48748710c'),
    "solve balancing-like-q --n 6 --a 4 --q 1/5 --method exact --format json": (0, 'f511d2a55c0e86e62f025284de98b7e7ab194064cc005f0d0e1d85320c321869'),
    "solve balancing-like-q --n 6 --a 4 --q 1/5 --method power --format json": (0, 'b200722da9a70c26f022b3b2b912bba0d928a213af39ab2bbde1cd50ec0c048f'),
    "solve balancing-like-q --n 6 --a 4 --q 1/5 --method simulate --steps 2000 --format json": (0, 'a8efa2ede297a230a460e4f2d695f1f7417922f2454fda2f99f1a6c6deca849d'),
    "verify balancing-like-q --max-n 9 --a 4 --q 1/5": (0, '0158f5044d3491c47188485b3c792dd7be2f90e70b93ea552e0fc7b2ac702657'),
    "solve --matrix-file {matrix_file} --method exact": (0, '77c215dcd55055cbf6034b32a4aad0415f6163212634a9baa0f592c3400815e1'),
    "solve --matrix-file {matrix_file} --method power": (0, '5567b54e35cc85a908e11d1944a325fac6664a18d250050d18f1eb21d6aa6ffa'),
    "solve --matrix-file {matrix_file} --method simulate --steps 2000": (0, '906b0cbc171b55dba5e7515da2503a7e217ebb18461a6dd22ea9c1c4b3c5a172'),
    "chain truncated-infinite-q --n 150 --q 1/12 --format csv": (0, '116a89afc223a94753aed0ad9496c40df8f69985a3f60f05857c7004afd94559'),
    "chain truncated-infinite-q --n 150 --q 1/12 --format json": (0, 'e0cd97f02b2f65f7f1f2c27da7f79848bbe1f72928330447cd86f9a71f92922b'),
    "solve --matrix-file {matrix_file_150} --format json": (0, '632e6057ea47709723effe338fa8d7b0f28c59285b253e741d2ed1a3cc755007'),
    "verify --all --max-n 12 --format json": (0, 'e6bd2680677a652d0efb430098fa98227f167d2134e161603b67c904722cd40b'),
    "verify --all --max-n 6": (0, '80ce070df9230f27982e1b3652670533bc1aa220b748c4a416f8b0350b1c94a0'),
    "verify --beta-powers --max-n 20": (0, '15517dfe0d2e539ac5611d57d1a6acbd29521b01919aaa88160cbff8def8d0da'),
    "limit --sizes 5,10": (0, '5a1a489e95aa2214322ba1281d617de54cee952f4af1883749ce426b9cb04697'),
    "limit --ratio --max-n 6 --format json": (0, '3eec26c57e89a3b953f6e587b131ceccc272c2b2e60f1a21e9a397666b70a885'),
    "chain balancing-like --n 5": (2, '324f9654652d9deab49bedd8ba932174550b52319dfbb32a5167174a2b2bb496'),
    "chain balancing-q --n 5": (2, '355643adfed94654e90b3fa2ac6e2b649e9ed7d78766fb0eb0ded2fb53b44a72'),
    "chain balancing-like-q --n 5 --a 4": (2, 'd2a27e04ec80567a09929a72983b49749bea86b8b2203ee870159f836c258f80'),
    "chain balancing --n 2": (2, '29451ad960b64dbc4c83013ddb27176ca722b41de4db506b117e9e8e66725944'),
    "chain lucas-cobalancing --n 3": (2, '7b50c405471716c79420869251df34714e6451f515738232cb3f63a06a83b9bd'),
    "chain balancing-like --n 2 --a 1": (2, 'a7847ddfa7f8398d4ebc16f7bb571a3d56fc3fe6d91b4eddd8ad978987e33939'),
    "chain balancing-like --n 5 --a 1": (2, 'aa5f8d6efa1a201831adfdd89014a4bca5c3eebf9bd6e7b22e8263505d58759c'),
    "chain balancing-q --n 5 --q 1/5": (2, 'e49d5bbcdec84037921d527b05a8d014d2f551cf1273fd7a928a46c25d26ee31'),
    "chain lucas-q --n 5 --q 0": (2, 'c03d0df77dcf3887c4b8ae6563508865f69dcc453b8cd53765cfc889021273df'),
    "chain balancing-like-q --n 5 --a 4 --q 1/3": (2, '285f5e7ee4587b5f7892b3ef8c7555d1a0c931a06b28ee41408945957011443b'),
    "solve truncated-infinite-q --n 5 --q -1/7": (2, 'f79989bc77d65fc691e5c8c152f9d7d748589c4d3166302bf371fbf29517c28e'),
    "verify balancing-q --n 5 --q 1/0": (2, 'bdd9f7609b29dfdc5c1877daab17a9f72d1b9de12982dd760864d91db96db7d2'),
    "seq balancing --count 5617 --format csv": (0, '7b45b249948d0a08bcf72ab232aeef4238c57d768853c7edd805ba39d2cefdb2'),
    "seq balancing --count 5617 --format json": (0, 'e8ff217b0ffec46fd40bbd8e43399f93e654276faab264d47e58aef8eba6f828'),
    "seq lucas-balancing --count 5617 --format csv": (0, '93bda1f6e91c61771c9f8ff7d2d235d53cf4c8c379a21879e893be0ad0a6c63b'),
    "seq lucas-balancing --count 5617 --format json": (0, 'c2f7fec7182d07eb04631fa57884ac1645d80f74b3f607a1200b857d4113e14b'),
    "seq cobalancing --count 5617 --format csv": (0, '80273028d80ab2558ba5219f9dc2c35051bb4b86902708f8986451cbe5c08b0c'),
    "seq cobalancing --count 5617 --format json": (0, '9a596de19626539d50136cebcabbd8e94f0b4525a3ba0e094ad0e4768ab7e7b3'),
    "seq lucas-cobalancing --count 5617 --format csv": (0, '6ea62a922b31713f90ec3e6bffc1f4c62cdb24cecf96502069b4fb52805493c3'),
    "seq lucas-cobalancing --count 5617 --format json": (0, '40caceff639a9c061ca1d63fddb7fd6c1a8189f271a352e2b0dd5ba9dc8bdde5'),
    "seq pell --count 11235": (0, 'aa4ee6005f9ef0890c9b4b49749887e6364a761aa135558d4ceca291e00fef87'),
    "seq balancing --count 5618": (0, '8a4aea2b39836822063ebbf3ce7401b859d530ecd7606586f426dcf9d1018e0a'),
    "seq balancing --count 5619": (2, PAST_THE_LIMIT),
    "seq lucas-cobalancing --count 5618": (2, PAST_THE_LIMIT),
    "seq pell --count 11236": (2, PAST_THE_LIMIT),
}


@pytest.mark.parametrize("argv", _cases(), ids=" ".join)
def test_golden_output(argv, matrix_files):
    assert run(argv, matrix_files) == GOLDEN[" ".join(argv)]


def _capture() -> dict[str, tuple[int, str]]:
    with tempfile.TemporaryDirectory() as tmp:
        paths = write_matrix_files(Path(tmp))
        return {" ".join(argv): run(argv, paths) for argv in _cases()}


if __name__ == "__main__":
    for key, value in _capture().items():
        sys.stdout.write(f"    {json.dumps(key)}: {tuple(value)!r},\n")
