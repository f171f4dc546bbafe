"""Reports of the pcforge command over fixed family inputs.

Each golden case runs `main` in a fresh directory that holds fixed family
instances and pins four things: the sha256 of its JSON line with
`timing_ms` removed (None when it prints no report), its exit code, its
stderr text, and the sha256 of every file it writes.  The suite's
per-criterion seconds are masked as well, in the JSON and on stderr.
"""

from __future__ import annotations

import argparse
import builtins
import hashlib
import json
import re
import shlex

import pytest

from pcforge.cli import build_parser, main
from pcforge.cnf import write_dimacs
from pcforge.families import gen_gamma, gen_parity, gen_psi_horn, gen_psi_horn_pc, gen_psi_qhorn
from pcforge.qhorn import compile_urc_encoding

FIXTURES = {
    "ph3.cnf": lambda: write_dimacs(gen_psi_horn(3)),
    "php3.cnf": lambda: write_dimacs(gen_psi_horn_pc(3)),
    "psi3.cnf": lambda: write_dimacs(gen_psi_qhorn(3)[0]),
    "psi3.enc.cnf": lambda: write_dimacs(compile_urc_encoding(gen_psi_qhorn(3)[0])),
    "g2.cnf": lambda: write_dimacs(gen_gamma(2, "base")),
    "gp2.cnf": lambda: write_dimacs(gen_gamma(2, "prime")),
    "gd3.cnf": lambda: write_dimacs(gen_gamma(3, "dprime")),
    "par3.cnf": lambda: write_dimacs(gen_parity(3, "cnf")),
    "par3.enc.cnf": lambda: write_dimacs(gen_parity(3, "encoding")),
    "delta.cnf": lambda: "p cnf 4 3\n-1 2 0\n-1 3 0\n-2 -3 4 0\n",
    "conflict.cnf": lambda: "p cnf 1 2\n1 0\n-1 0\n",
    "nq.cnf": lambda: "p cnf 3 2\n1 2 3 0\n-1 -2 -3 0\n",
    "wide.cnf": lambda: "p cnf 20 1\n1 20 0\n",
    "broken.cnf": lambda: "p cnf 1 1\n2 0\n",
    "empty.cnf": lambda: "p cnf 0 0\n",
}

# (command line, exit code, sha256 of the JSON line, stderr, {written file: sha256})
CASES = [
    ("up ph3.cnf", 0, "a53daf7e413650e958fffc2eb72f47f46a50decb970da477f5fe104ee435816a", "\n", {}),
    ("up ph3.cnf --assume 1", 0, "3ad8da038044c902827ebafe0598feead5c018f9232a594cc55fe54ec625d736", "1 2 3\n", {}),
    ("up ph3.cnf --assume '1,-2 3'", 0, "de7431cc9027838a8a9089e343d298f208ecb41869806978241313e161d537fa",
     "CONFLICT\n", {}),
    ("up conflict.cnf", 0, "b6a93d641408d23423648f6d3218f035e818ec8843f995f4a76d8b005a41c3a3", "CONFLICT\n", {}),
    ("up delta.cnf --assume '-4 1'", 0, "d24ff3c680df0fe3a18ea2e5112f892bba19094144977acebf48d7baa69005a9",
     "CONFLICT\n", {}),
    ("check pc ph3.cnf", 1, "0c4e3cd1c51061ce6459138b45c1c2f233f2fa7f1e3d82c4d36d10f59dded3af", "pc = False\n", {}),
    ("check pc ph3.cnf --witness", 1, "602c490f97db780891f9d75217068dec08dfe8c2e571c7939317e7691467ca1d",
     "pc = False\n", {}),
    ("check pc ph3.cnf --method naive --witness", 1, "602c490f97db780891f9d75217068dec08dfe8c2e571c7939317e7691467ca1d",
     "pc = False\n", {}),
    ("check urc ph3.cnf --witness", 0, "08c3b84cd6c579da3a53d797d598b09c314fe49c2fa31d2eed0dbf82106c0063",
     "urc = True\n", {}),
    ("check urc psi3.cnf", 1, "56a8c7319a732f110eda1265dc339542e619d77b0257d1e191ae21c8c5c8813f", "urc = False\n", {}),
    ("check urc psi3.cnf --witness", 1, "64724b35d0ad53fe0e3ff73e4599e6c97f349f5951b3e69fced675eaba0cea77",
     "urc = False\n", {}),
    ("check urc psi3.cnf --method naive --limit 9 --witness", 1,
     "64724b35d0ad53fe0e3ff73e4599e6c97f349f5951b3e69fced675eaba0cea77",
     "urc = False\n", {}),
    ("check pc php3.cnf", 0, "08c41d2c8b40b818292f0a4870d4c5e6f15fcacff1f0c6a6f6d0f40b6cc2e745", "pc = True\n", {}),
    ("check pc php3.cnf --witness", 0, "08c41d2c8b40b818292f0a4870d4c5e6f15fcacff1f0c6a6f6d0f40b6cc2e745",
     "pc = True\n", {}),
    ("check urc php3.cnf --witness", 0, "a55361ad08375b9932ca7f4d1385cc7fb906b9d622ca4460d92e8862d89dc57f",
     "urc = True\n", {}),
    ("check pc-dr php3.cnf", 0, "24d9f0fd3382f6797dcba133281c025296f1763f20f3eddc2a0a047a02c8b54d",
     "pc-dr = True\n", {}),
    ("check pc-dr ph3.cnf", 1, "16ff373937337b71befd7e197752f69e2b7c5c873531e3fa0dec465e5e768c17",
     "pc-dr = False\n", {}),
    ("check pc wide.cnf", 3, None, "limit exceeded: 20 variables exceed limit 14 (raise --limit to override)\n", {}),
    ("check urc wide.cnf --limit 4", 3, None,
     "limit exceeded: 20 variables exceed limit 4 (raise --limit to override)\n", {}),
    ("check pc broken.cnf", 2, None, "error: line 2: literal 2 exceeds declared variable count 1\n", {}),
    ("check pc missing.cnf", 2, None, "error: [Errno 2] No such file or directory: 'missing.cnf'\n", {}),
    ("primes ph3.cnf", 0, "d91aeab3597a1ac3c07b22d772abd793081dff88a0693e36fa9b8e48813ebc73",
     "24 prime implicates\n", {}),
    ("primes ph3.cnf -o ph3.primes.cnf", 0, "b24baff2b32ccc5466c0b82c86f2eb4c5433406088aee59dab72c5054280ba25",
     "24 prime implicates\n", {"ph3.primes.cnf": "e12ef9a494638944f37b993b6b1e30e7d13612c99faad092861c3e3bbc059592"}),
    ("primes conflict.cnf", 0, "cf0c37c3a27bf79b4e8771a219ea77cf7ea3a02102a24d669b7406684e80acc4",
     "1 prime implicates\n", {}),
    ("equiv g2.cnf gp2.cnf", 0, "77d841e9e0a3ec8a8cfc96adfd021623af9d81b2ec388e896d622e0253a7df47",
     "equivalent = True\n", {}),
    ("equiv ph3.cnf php3.cnf", 0, "f50be13a1248f4091f535b32ecbe6492f9889bd222068825cac0bddef508bcad",
     "equivalent = True\n", {}),
    ("equiv ph3.cnf delta.cnf", 2, None, "error: equivalence requires a shared universe\n", {}),
    ("equiv ph3.cnf broken.cnf", 2, None, "error: line 2: literal 2 exceeds declared variable count 1\n", {}),
    ("encodes par3.enc.cnf par3.cnf", 0, "2f24277feb1fa6192638a000f8575fabbee34aedcb88fb1cdacba87416cf6f36",
     "encodes = True\n", {}),
    ("encodes psi3.enc.cnf psi3.cnf", 0, "e996a9151f9752e868451feff73e6d5ca050282fcfdcb05ee293c5463a7a6772",
     "encodes = True\n", {}),
    ("encodes par3.cnf par3.cnf", 0, "9ec92ac5a335e48846c0cda621760a039574de4cd0465ad84e3ca75aad87fe12",
     "encodes = True\n", {}),
    ("encodes psi3.cnf ph3.cnf", 2, None, "error: encoding and table have different input arity\n", {}),
    ("dr ph3.cnf", 0, "8e02b68893b545c6591f0bcc02a1d11077a3bf4ed8f2714375f5abd1a7a7ca1d",
     "dual rail: 25 Horn clauses over 20 meta-variables\n", {}),
    ("dr delta.cnf -o delta.rail.cnf", 0, "5196c6e39e722424f7d317c10886e9ccf19ed11e844b3efabfab51b776607b55",
     "dual rail: 11 Horn clauses over 8 meta-variables\n",
     {"delta.rail.cnf": "f8cfa6ff7419c55edb12c1138f9c603f52b81b37c5f9165ff923235d57288f69"}),
    ("qhorn recognize psi3.cnf", 0, "aeb342e4654a6eed903ecde7bd3e8584d2bfa7b69bdc56c2d0052aee8c546362", "q-Horn\n", {}),
    ("qhorn recognize nq.cnf", 1, "9a0806df18a08a6e66d4202c212f6483d5f21245f13ad3f12a4e99eca77aa358",
     "NOT-QHORN\n", {}),
    ("qhorn sat psi3.cnf", 0, "b4d0867c88cb902e8e7048b7c8d93a06a0667b016e6c780bbfb9e5c30cf17c7e", "SAT\n", {}),
    ("qhorn sat conflict.cnf", 1, "7152a00c60815fef8b0b5b6a0817b20f1049c37a55d5618c293a9b4969ff8352", "UNSAT\n", {}),
    ("qhorn sat nq.cnf", 1, None, "not q-Horn: input formula is not q-Horn\n", {}),
    ("qhorn compile psi3.cnf", 0, "9846f9c715642612cf020ba239f53369c6a99f4b0d1d7bb7afe7a620e62b6d52",
     "compiled: 84 clauses, 12 auxiliary variables\n", {}),
    ("qhorn compile psi3.cnf --verify", 0, "e3074285a193fdf7fdbd5e88e4b1c2cc16df65c7c9c1197f28ab6ae0e48ada9a",
     "compiled: 84 clauses, 12 auxiliary variables\n", {}),
    ("qhorn compile psi3.cnf -o out.enc.cnf --verify", 0,
     "9c8c794e16e884aeb7238052621d3ee8f7eecb66f71229b087ff0ded8cce3a25",
     "compiled: 84 clauses, 12 auxiliary variables\n",
     {"out.enc.cnf": "4428210a74b077d5f5123ebecd6580f12faffea40af217327c2f69d106977d7f"}),
    ("qhorn compile nq.cnf -o out.enc.cnf", 1, None, "not q-Horn: input formula is not q-Horn\n", {}),
    ("gen psi_horn 3", 0, "a10da2c88fa1485577ee7df917c97b8df17e343690d487be12a9ea9df84d82b1",
     "psi_horn(3): 6 clauses over 10 variables\n", {}),
    ("gen psi_horn_pc 2 -o php2.cnf", 2, None, "error: psi_horn_pc requires m >= 3\n", {}),
    ("gen psi_qhorn 2 --companions", 0, "84fc85e70813ccf5de0ccdaf3cdb7e93cef8915221a70bd01141bcc80af04b4a",
     "psi_qhorn(2): 8 clauses over 6 variables\n", {}),
    ("gen psi_qhorn_pc 2", 0, "bb27755fc0d88f602c4d6e09e0c707bddc52a917e4382ec4e34668f1d50a463f",
     "psi_qhorn_pc(2): 9 clauses over 8 variables\n", {}),
    ("gen gamma 2", 0, "81d5cef412263e67c19c3a8d962945608876628ef59401e17cb1c840619be81e",
     "gamma(2): 7 clauses over 8 variables\n", {}),
    ("gen gamma_prime 2", 0, "fbdca522a5a55652d1b6b194cd36210a514fbffddb9e617993e8c083bd452f10",
     "gamma_prime(2): 9 clauses over 8 variables\n", {}),
    ("gen gamma_dprime 3 -o out.gd3.cnf --companions", 0,
     "da08ecc4407f05b2c8571a5e5c1be01b2c7904dcc53a561e61aeb3f7c068ae9a",
     "gamma_dprime(3): 13 clauses over 12 variables\n",
     {"out.gd3.cnf": "e440e7daf4a4b3c13aa667b78d06f98a7cc608a4d0512dced44f2ab52dad55b6"}),
    ("gen parity_cnf 3", 0, "6d1c12c64c0770955a64b58d96c3ab84a557a94810b7921c7fe781d0dbcc0807",
     "parity_cnf(3): 4 clauses over 3 variables\n", {}),
    ("gen parity_enc 3", 0, "ffb6a1cc12b4920dfa84826c8575dcee433f86e97cb6f4ae1395adc5e3a3fd86",
     "parity_enc(3): 9 clauses over 5 variables\n", {}),
    ("gen parity_enc 3 -o out.par3.cnf", 0, "750066a2a62215b05a865ec54a8efe70e5fa4cdc8b6690d03fdc306dc6f1e313",
     "parity_enc(3): 9 clauses over 5 variables\n",
     {"out.par3.cnf": "f733d25a8539c5e47ee65300737a19d0bc388019481a9840c8e1a3478e3cd3ea"}),
    ("gen cycle_ext --base delta.cnf", 0, "db8e0ef366676771424e632989eb41fd02da9343d6b33eaa22992cfde8bd4684",
     "cycle_ext(delta.cnf): 6 clauses over 7 variables\n", {}),
    ("gen cycle_ext --base ph3.cnf -o ph3.ext.cnf", 0,
     "2922e6414e2c828b63bd1cbe8325fa720bfbb0d20e59923960d641d1aded0ecd",
     "cycle_ext(ph3.cnf): 12 clauses over 16 variables\n",
     {"ph3.ext.cnf": "4897f2d925683404bcdb0f498bf3cc3ba095f8a6a9203ffa9b5cec9d5daea3b3"}),
    ("gen cycle_ext --base conflict.cnf", 2, None, "error: cycle extension requires a satisfiable base formula\n", {}),
    ("gen cycle_ext", 2, None, "error: gen cycle_ext requires --base FILE\n", {}),
    ("gen cycle_ext 4 --base delta.cnf", 2, None, "error: gen cycle_ext takes no parameter\n", {}),
    ("gen cycle_ext --base delta.cnf --companions", 2, None, "error: gen cycle_ext has no companions\n", {}),
    ("gen psi_horn", 2, None, "error: gen psi_horn requires a parameter\n", {}),
    ("gen psi_horn 3 --base delta.cnf", 2, None, "error: gen psi_horn takes no --base (cycle_ext only)\n", {}),
    ("gen psi_horn 3 --companions -o out.ph3.cnf", 2, None, "error: gen psi_horn has no companions\n", {}),
    ("reduce urc gd3.cnf", 0, "88b82a61da5d9d6ed7bde2a7cb58c79623afead0f688f1ca5281610f803c13ac",
     "13 -> 13 clauses\n", {}),
    ("reduce urc gd3.cnf -o gd3.red.cnf", 0, "65a132ba2825a0badd16c4f8144d3805373517f7b8cd6f05757c053ac9a2788c",
     "13 -> 13 clauses\n", {"gd3.red.cnf": "e440e7daf4a4b3c13aa667b78d06f98a7cc608a4d0512dced44f2ab52dad55b6"}),
    ("reduce pc php3.cnf --seed 5 --limit 16", 0, "4a19045fb8521c7b3024fc75228f421dd5398d2b4165fc14bfe22a21cf8e35e1",
     "9 -> 9 clauses\n", {}),
    ("reduce pc wide.cnf", 3, None, "limit exceeded: 20 variables exceed limit 14 (raise --limit to override)\n", {}),
    ("absorb delta.cnf --clause '-1 2'", 0, "9279ff81a317be3f6238621ec7fb29ed9d255342559fd98cd0ecd192fe738a69",
     "absorbed = True\n", {}),
    ("absorb delta.cnf --clause 4,-1", 1, "1c49e4f21221957c51f6ffdd7abfc1064ba82d02ed479714fa0c998e403870a5",
     "absorbed = False\n", {}),
    ("absorb delta.cnf --clause 2", 2, None, "error: clause is not an implicate of the formula\n", {}),
    ("absorb delta.cnf --clause '1 0'", 2, None, "error: literal 0 is not allowed in a clause\n", {}),
    ("absorb missing.cnf --clause 1", 2, None, "error: [Errno 2] No such file or directory: 'missing.cnf'\n", {}),
    ("suite --only 1,10", 0, "14f399ef2608c0eef826429ac4ab6a564794323101b7344c94b7551a1df14548",
     "PASS criterion  1 [s / 60s] prime-count reproduction: counts m=3:24, m=4:56, m=5:120, m=6:252"
     " (expected 24, 56, 120, 252)\n"
     "PASS criterion 10 [s / 60s] parity folklore: n=3: size=True all_prime=True encodes=True pc=True;"
     " n=4: size=True all_prime=True encodes=True pc=True\n", {}),
    ("dr empty.cnf -o empty.rail.cnf", 0, "769c6407b391b10ba06fe0760cb1d21a2fe8b875a43093130848a26e597c9e81",
     "dual rail: 0 Horn clauses over 0 meta-variables\n",
     {"empty.rail.cnf": "e7dcec81382b46fd2c7834c4bf56b609d3dd45539b6a56f258bd04233ad1da5d"}),
    ("dr empty.cnf", 0, "a4a97b6ef09b97fa9769862691d3e6ec9ea90e21f579ddb9bca3ea6a07dc72ac",
     "dual rail: 0 Horn clauses over 0 meta-variables\n", {}),
    ("up ph3.cnf --assume 1_0", 2, None,
     "error: bad literal list '1_0': expected integers separated by commas or whitespace\n", {}),
    ("absorb delta.cnf --clause '+1 2 3'", 2, None,
     "error: bad literal list '+1 2 3': expected integers separated by commas or whitespace\n", {}),
    ("suite --only 1_0", 2, None,
     "error: bad literal list '1_0': expected integers separated by commas or whitespace\n", {}),
    ("suite --only 99", 2, None, "error: no criterion 99\n", {}),
]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def write_fixtures(directory, monkeypatch):
    for name, make in FIXTURES.items():
        (directory / name).write_text(make())
    monkeypatch.chdir(directory)


def run_case(directory, monkeypatch, capsys, command: str):
    write_fixtures(directory, monkeypatch)
    code = main(shlex.split(command))
    captured = capsys.readouterr()
    digest = None
    if captured.out:
        line, rest = captured.out.split("\n", 1)
        assert rest == ""
        line, found = re.subn(r', "timing_ms": \d+', "", line)
        assert found == 1
        digest = _sha(re.sub(r'"seconds": [0-9.e-]+', '"seconds": 0', line).encode())
    err = re.sub(r"\[\s*[0-9.]+s /", "[s /", captured.err)
    written = {path.name: _sha(path.read_bytes()) for path in sorted(directory.iterdir())
               if path.name not in FIXTURES}
    return code, digest, err, written


@pytest.mark.parametrize("command,code,digest,err,written", CASES, ids=[case[0] for case in CASES])
def test_golden_report(tmp_path, monkeypatch, capsys, command, code, digest, err, written):
    assert run_case(tmp_path, monkeypatch, capsys, command) == (code, digest, err, written)


def _parser_shape(parser: argparse.ArgumentParser, prefix: str = ""):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            yield prefix, action.dest, action.required, tuple(action.choices)
            for name, sub in action.choices.items():
                yield from _parser_shape(sub, f"{prefix}{name} ")
        else:
            yield (prefix, tuple(action.option_strings), action.dest, action.default, action.choices,
                   action.nargs, action.required, getattr(action.type, "__name__", None))


def test_parser_accepts_the_same_flags_and_subcommands():
    shape = repr(list(_parser_shape(build_parser()))).encode()
    assert _sha(shape) == "ea56b7e483620728cc84df1c04f490e5f78fedb3fcd35b3378d114602b6f340a"


@pytest.mark.parametrize("command", [
    "up ph3.cnf --assume 1",
    "check urc psi3.cnf --witness",
    "check pc-dr php3.cnf",
    "primes ph3.cnf -o out.cnf",
    "equiv g2.cnf gp2.cnf",
    "encodes psi3.enc.cnf psi3.cnf",
    "dr delta.cnf -o out.cnf",
    "qhorn recognize psi3.cnf",
    "qhorn sat psi3.cnf",
    "qhorn compile psi3.cnf --verify",
    "gen cycle_ext --base delta.cnf",
    "reduce urc gd3.cnf",
    "absorb delta.cnf --clause '-1 2'",
])
def test_each_input_is_opened_once_and_digested(tmp_path, monkeypatch, capsys, command):
    write_fixtures(tmp_path, monkeypatch)
    opened = []
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    code = main(shlex.split(command))
    monkeypatch.setattr(builtins, "open", real_open)
    assert code in (0, 1)
    inputs = json.loads(capsys.readouterr().out)["inputs"]
    assert sorted(inputs) == sorted(word for word in shlex.split(command) if word in FIXTURES)
    for path, digest in inputs.items():
        assert opened.count(path) == 1
        assert digest == _sha((tmp_path / path).read_bytes())
