"""Golden CLI outputs: every command line below must keep its exit code
and the sha256 of its stdout byte for byte.

The table was recorded from the CLI before the serial, table-driven
rewrite, and the case with an empty JSON `results` list before JSON
output was streamed; a refactor that changes any byte of stdout or any
exit code fails here.  Argument errors raised by argparse count by their
SystemExit code.
"""

import hashlib
import json

import pytest

from kummerws.cli import build_parser, main

PROFILES = {
    "k2": {"m": 5, "lambdas": [1, 1, 1, -3], "n": 2},
    "k2n3": {"m": 5, "lambdas": [1, 1, 1, -3], "n": 3},
    "bm": {"m": 9, "lambdas": [1, 1, 1, 3, -6], "n": 2,
           "field": {"p": 2, "q": 64}},
    "bad": {"m": 4, "lambdas": [2, 2, -4], "n": 2},
}

# (command line with {profile} placeholders, exit code, sha256 of stdout)
GOLDEN = [
    ("validate {k2}", 0, "dc51b8c96c2d745df3bd5590d990230a482fd247123599548e0632fdbf97fc22"),
    ("validate {k2n3}", 0, "dc51b8c96c2d745df3bd5590d990230a482fd247123599548e0632fdbf97fc22"),
    ("validate {bm}", 0, "dc51b8c96c2d745df3bd5590d990230a482fd247123599548e0632fdbf97fc22"),
    ("validate {bad}", 1, "bb26df49193fbbb8db424206537858889f44009d52c5748d73950a0fb1af320e"),
    ("classify {k2} --alpha 1,2", 0, "e1e47e0888775f8a5eaddb67e651c11ed2ce9e2a121a90482ca17c0c87f53d08"),
    ("classify {k2} --alpha 1,2 --format json", 0, "3448a60c28e9cd3e1f873e65a7ba9431be86e8b48cab70ecf413019ed9ba7364"),
    ("classify {k2} --alpha 3,0", 0, "1275e176d60d58b4e626ee97a023f8760c59da65255726f3f2c17e34ebb3fe90"),
    ("classify {k2} --alpha 3,0 --format json", 0, "3a0223a0abf4cb0716a80d9d22d3daeec71078a351b426d1cbfb92aaf67e3c9d"),
    ("classify {k2n3} --alpha 1,2,-1", 0, "c3ac34dd60b51bd579c18e0e0442461346f858052f4fa49d5e64a8151b2fe17f"),
    ("classify {k2n3} --alpha 1,2,-1 --format json", 0, "bc9f6afce56c2c29c28039d5d81efaae94daec930a2d60904a326afff5b55933"),
    ("classify {bm} --alpha 4,5", 0, "e1e47e0888775f8a5eaddb67e651c11ed2ce9e2a121a90482ca17c0c87f53d08"),
    ("classify {bad} --alpha 1,1", 1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("classify {k2} --alpha 1,2,3", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("maximal {k2} --kind absolute --generating", 0, "d070dc7923705f2c3ec11fc3992cb2e155f717f6fca945913e549779a03c9681"),
    ("maximal {k2} --kind absolute --generating --format json", 0, "8bedcd242b78eb56fa5e0f8ab7df1e18bd81f1d4a8781c01eb7c2b25a1e125a2"),
    ("maximal {k2n3} --kind relative --generating", 0, "b42d404d5744a9b383907f935c376514f22de94f96af9947877663217fa14acc"),
    ("maximal {k2n3} --kind absolute --generating --format json", 0, "43a8fc3660f39abf08fc4795b30c343cd3d935f8d132e7116cb999701a70306b"),
    ("maximal {bm} --kind absolute --generating", 0, "c5401a0176c53939e22d514687178c9ebd758c744f794e95a6c6e94df5cf0fef"),
    ("maximal {bm} --kind relative --generating --format json", 0, "15befbff44018e89e234e0275ad18da92142849c01291f79fd8601230a63cd2a"),
    ("maximal {k2} --kind absolute --window=-6:12,-6:12", 0, "de74f05a9cec6ca77482074a964c2d5510128c9caaca5c1656414a8f6f251954"),
    ("maximal {k2} --kind absolute --window=-6:12,-6:12 --format json", 0, "bce7fa69dbada4b7e11a3f278112b1b2d74d91b339294a14c4b9662c05326dfa"),
    ("maximal {k2} --kind relative --window=-6:12,-6:12 --jobs 3", 0, "9e15a1c4d902150dca060b4f6a10006d9edb7940fc1fa75f4473890872888e55"),
    ("maximal {k2n3} --kind relative --window=-4:8,-4:8,-4:8", 0, "e3f0b4fd3d66cbb72bb9cbf2c02a225ea6cd6403dfbf08494d8e6bff1d2b99d7"),
    ("maximal {k2n3} --kind absolute --window=-4:8,-4:8,-4:8 --format json --jobs 3", 0, "22924cda4e74a19aa06e4c182ddbe312aded2e768ccd011e9ec00abbe448f53c"),
    ("maximal {bm} --kind absolute --window=0:30,-5:30", 0, "40de8f546948425eee98f624b2ed6b5f90922a7b53d2157b777d3bc10e6149bc"),
    ("maximal {k2} --kind absolute --window=0:0", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("maximal {k2} --kind absolute --window=3:1,0:0", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("maximal {k2} --kind absolute", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("count {k2} --kind absolute", 0, "7de1555df0c2700329e815b93b32c571c3ea54dc967b89e81ab73b9972b72d1d"),
    ("count {k2} --kind relative", 0, "7de1555df0c2700329e815b93b32c571c3ea54dc967b89e81ab73b9972b72d1d"),
    ("count {k2n3} --kind absolute", 0, "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865"),
    ("count {k2n3} --kind relative", 0, "f0b5c2c2211c8d67ed15e75e656c7862d086e9245420892a7de62cd9ec582a06"),
    ("count {bm} --kind absolute", 0, "917df3320d778ddbaa5c5c7742bc4046bf803c36ed2b050f30844ed206783469"),
    ("count {k2} --kind bogus", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("blocks {k2} --kind absolute", 0, "ac95367507d89789b0d148ce56cfecdf95221e484a3e60af8e567b0ed9f4b900"),
    ("blocks {k2} --kind absolute --format json", 0, "bf926e9b74d11b13bf1fbdf19929c9ce5bf55f8469eaddeef9d5ff3cd503e197"),
    ("blocks {k2n3} --kind relative", 0, "ac95367507d89789b0d148ce56cfecdf95221e484a3e60af8e567b0ed9f4b900"),
    ("blocks {bm} --kind absolute --format json", 0, "3d88da7703e252a426652a85461e5fc335e4ea77adf30538d35dd2d97c79d68d"),
    ("gaps {k2} --box 0:8,0:8", 0, "94cef347bdc581b9c6c37817244c2709e7c9c194cccdaa0366197401ce640038"),
    ("gaps {k2} --box 0:8,0:8 --format json", 0, "3270be8fe0c02c033c1e98f7f04b9582503bf1e316e28729c07a0443447fdc2a"),
    ("gaps {k2n3} --box=-2:4,0:4,0:4", 0, "e67b757bf6b52f12aed11c3a8a8c107e7fc8e6fdafe210d7e95701dc4a76689d"),
    ("puregaps {k2} --box 0:8,0:8", 0, "451027a0fd630a706209cc58e11354de10d157f1f15e6e108b046a2be71e4c72"),
    ("puregaps {k2} --box 0:8,0:8 --format json", 0, "3d15efb042d0a9bab1b0d6d89ebe9b80401982ce1601dec32b14215a0203bda0"),
    ("puregaps {k2} --box 0:0,0:0 --format json", 0, "b0f7b76b90446a9f3977b33ee37e6dac144ab58ce275d507aa22c7cfe15ff9eb"),
    ("puregaps {bm} --box 0:12,0:12", 0, "820b5c012041831f39252b1e7ca8fbe071ea92bb8b16799f303bcad8b22a8f89"),
    ("semigroup {k2} --box 0:8,0:8", 0, "326ddedef2db67539ead12fd52d4da58f9e174d09eb932a3913dec2f9731790e"),
    ("semigroup {k2} --box 0:8,0:8 --format json", 0, "a387adaa2a6860f6369c102c2906536924884878d087e0ab97a22f6ccc010d29"),
    ("semigroup {k2n3} --box=-3:4,0:4,0:4 --format json", 0, "bf1a282613fbb129481f94b85bb257d94ee8983e4a3a4bb4e2fd308416663665"),
    ("preset separable --m 5 --t 3 --places 2", 0, "33946dcee90ddb46015ed1d0965128a6c1103c1d2f1ac0417c9aeaa4df127370"),
    ("preset xabns --p 2 --a 2 --b 1 --nexp 3 --s 13 --places 2", 0, "6ae9bb38c78b362539614f0f325fd06513d107bcd37210bf80defd5b65e4af39"),
    ("preset yns --q 2 --nexp 3 --s 3 --places 2", 0, "bf6973f4ddd3016bcbf8def121691b7f22744e56a54dadaf37006f5e23c63cbf"),
    ("preset beelen-montanucci --q 2 --nexp 3 --places 2", 0, "dfbc23e07f0558d16f5be70a977ab9226674f6808450e3824df91c73d51e51b0"),
    ("preset yns --q 6 --nexp 3 --s 1 --places 2", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("oracle {k2} --kind absolute --window=-3:9,-3:9", 0, "e6fd51331e6943db7a3d2f9069ad2f681a8a1d5204c654102191577573c28954"),
    ("oracle {k2} --kind relative --window=-3:9,-3:9", 0, "b213f5e118fcdc9f397bfc8d70e34bda5407ab00f26ee2ff8cf2cee6131ed490"),
    ("oracle {k2n3} --kind relative --window=0:5,0:5,0:5", 0, "3cf561883bf1061595f02e7425b7f23c867673fdb60d54d30ce40e51e8c0601d"),
    ("oracle {k2n3} --kind absolute --window=0:5,0:5,0:5 --budget 10", 3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
]


@pytest.fixture
def profile_paths(tmp_path):
    paths = {}
    for name, doc in PROFILES.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        paths[name] = str(path)
    return paths


def run_line(capsys, paths, line):
    """(exit code, sha256 of stdout) of one command line."""
    try:
        got = main(line.format(**paths).split())
    except SystemExit as exc:
        got = exc.code
    return got, hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


@pytest.mark.parametrize("line, code, digest", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_golden(capsys, profile_paths, line, code, digest):
    assert run_line(capsys, profile_paths, line) == (code, digest)


def test_reused_parser_keeps_no_state(capsys, profile_paths):
    """main builds its parser once per process; an argparse error and
    every earlier call leave nothing behind for the next call."""
    assert build_parser() is build_parser()
    assert run_line(capsys, profile_paths, "maximal {k2} --kind absolute")[0] == 2
    for line, code, digest in reversed(GOLDEN):
        assert run_line(capsys, profile_paths, line) == (code, digest), line
