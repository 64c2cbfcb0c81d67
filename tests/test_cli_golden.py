"""Byte-identity gate for the CLI.

A fixed corpus of in-process `cli.main` runs must reproduce the recorded
SHA-256 of its stdout bytes and its exit code, and every `classify` run the
recorded set of ledger keys. Changes that only restructure the code must
leave this table untouched. Print a fresh table with

    PYTHONPATH=src python tests/test_cli_golden.py

and paste it in only when an output change is intended.
"""

import hashlib
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as F

import pytest

from qstruct.cli import main
from qstruct.scalar import format_rational

FAMILIES = {
    "q-hermite": ["--family", "q-hermite"],
    "asc": ["--family", "alsalam-chihara", "--c", "1/3", "--d", "4/3"],
    "chebyshev-t": ["--family", "chebyshev-t"],
    "cq-jacobi": ["--family", "continuous-q-jacobi", "--p-a", "1/3", "--p-b", "2/5"],
}
GENERATE = {
    f"{name}@{base}": args + ["--base", base]
    for name, args in FAMILIES.items()
    for base in ("q", "q-inverse")
}
GENERATE["asc-off-family@q"] = ["--family", "alsalam-chihara", "--c", "1", "--d", "2"]
COMMANDS = {
    "fit-auto": ["fit", "-N", "10", "--deg-pi", "auto"],
    "fit-2": ["fit", "-N", "10", "--deg-pi", "2"],
    "classify": ["classify", "-N", "10"],
    "verify": ["verify", "-N", "10", "--checks", "all"],
}


def _run(argv: list[str]) -> tuple[str, int]:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(argv)
    return out.getvalue(), code


def _random_doc(seed: int) -> dict:
    rng = random.Random(seed)

    def rational() -> F:
        return F(rng.randint(-9, 9), rng.randint(1, 9))

    return {
        "q_quarter": "1/3",
        "B": [format_rational(rational()) for _ in range(13)],
        "C": [format_rational(abs(rational()) + F(1, 10)) for _ in range(12)],
    }


def _observe(directory) -> tuple[dict, dict]:
    """Run the corpus; return {run: [sha256, exit code]} and
    {input: sorted classify ledger keys}."""
    runs, docs = {}, {}
    for name, args in GENERATE.items():
        text, code = _run(["generate", "--q-quarter", "1/2", "-N", "12"] + args)
        runs[f"generate {name}"] = [hashlib.sha256(text.encode()).hexdigest(), code]
        docs[name] = json.loads(text)
    for name in FAMILIES:
        doc = json.loads(json.dumps(docs[f"{name}@q"]))
        doc["C"][1] = format_rational(F(doc["C"][1]) + F(1, 1000))
        docs[f"{name}-perturbed"] = doc
    for seed in (1, 2):
        docs[f"random-{seed}"] = _random_doc(seed)

    ledgers = {}
    for name, doc in docs.items():
        path = directory / f"{name}.json"
        path.write_text(json.dumps(doc))
        for command, argv in COMMANDS.items():
            text, code = _run(argv[:1] + [str(path)] + argv[1:])
            runs[f"{command} {name}"] = [hashlib.sha256(text.encode()).hexdigest(), code]
            if command == "classify":
                ledgers[name] = sorted(json.loads(text)["predicates"])
    return runs, ledgers


@pytest.fixture(scope="module")
def observed(tmp_path_factory):
    mp = pytest.MonkeyPatch()
    mp.delenv("QSTRUCT_NMAX", raising=False)
    try:
        yield _observe(tmp_path_factory.mktemp("golden"))
    finally:
        mp.undo()


def test_cli_output_bytes_and_exit_codes(observed):
    runs, _ = observed
    assert sorted(runs) == sorted(GOLDEN_RUNS)
    changed = [name for name in GOLDEN_RUNS if runs[name] != GOLDEN_RUNS[name]]
    assert not changed, f"CLI output or exit code changed for: {changed}"


def test_classify_ledger_keys(observed):
    _, ledgers = observed
    assert ledgers == GOLDEN_LEDGERS


GOLDEN_RUNS = {
    "classify asc-off-family@q": ["3bc157e8d3caf0ed580993f6c8febdda86a1f7718df6451538604deb84fd1ddd", 3],
    "classify asc-perturbed": ["3bc157e8d3caf0ed580993f6c8febdda86a1f7718df6451538604deb84fd1ddd", 3],
    "classify asc@q": ["58bf33c6608562781c4328fd2b85f9e50ab1fbd6bfd01e6b12bde22f1366e8ed", 0],
    "classify asc@q-inverse": ["68472d1748fae07173e11ae6db2a8dfb908aed221a1c24b08393ce32f702dda7", 0],
    "classify chebyshev-t-perturbed": ["927d34483f0b043f54bf30ef75f790e5d9302c7ec233f364072771e25b6eec14", 3],
    "classify chebyshev-t@q": ["0805face6a2359dba36ed3b336e81cfce32ad33ffb4d46253e99e82e9e9a5ec3", 0],
    "classify chebyshev-t@q-inverse": ["0805face6a2359dba36ed3b336e81cfce32ad33ffb4d46253e99e82e9e9a5ec3", 0],
    "classify cq-jacobi-perturbed": ["3bc157e8d3caf0ed580993f6c8febdda86a1f7718df6451538604deb84fd1ddd", 3],
    "classify cq-jacobi@q": ["013e0413f193e5ea00a7da1695eb77a6fe3d05a892ddaff8018f2ee63712107c", 0],
    "classify cq-jacobi@q-inverse": ["78fbaa2eea64cc5ebd1d1a4b01ddf08bda307db4cd2bc222218c043738c0f6df", 0],
    "classify q-hermite-perturbed": ["3ee7a2514fe3e55c8e4b2c943e278a95a1b162df77208afb4676bdc67508c46b", 3],
    "classify q-hermite@q": ["bb6ef2406bf2d4e6fa440b4c09fb478c8533609c5c508a69d6cf2e27d4f2342c", 0],
    "classify q-hermite@q-inverse": ["04bd43781d91ade42df073743436c36ba76c997a39b5a67298363d6f67b11193", 0],
    "classify random-1": ["3bc157e8d3caf0ed580993f6c8febdda86a1f7718df6451538604deb84fd1ddd", 3],
    "classify random-2": ["3bc157e8d3caf0ed580993f6c8febdda86a1f7718df6451538604deb84fd1ddd", 3],
    "fit-2 asc-off-family@q": ["63953071a1385d9167b245413582095902f0b024b7b53825502bc9aeeea6c1fd", 1],
    "fit-2 asc-perturbed": ["63953071a1385d9167b245413582095902f0b024b7b53825502bc9aeeea6c1fd", 1],
    "fit-2 asc@q": ["63953071a1385d9167b245413582095902f0b024b7b53825502bc9aeeea6c1fd", 1],
    "fit-2 asc@q-inverse": ["63953071a1385d9167b245413582095902f0b024b7b53825502bc9aeeea6c1fd", 1],
    "fit-2 chebyshev-t-perturbed": ["55791ec81a74025e37f19c3460eace0f3025fe2ea6e2627e17e9b5401d7d8bec", 1],
    "fit-2 chebyshev-t@q": ["a5bc244fa7b85432b9fe638f06db581f660f2f652d9766a1c0552af3356f2c94", 0],
    "fit-2 chebyshev-t@q-inverse": ["a5bc244fa7b85432b9fe638f06db581f660f2f652d9766a1c0552af3356f2c94", 0],
    "fit-2 cq-jacobi-perturbed": ["63953071a1385d9167b245413582095902f0b024b7b53825502bc9aeeea6c1fd", 1],
    "fit-2 cq-jacobi@q": ["c81be6525b99a8be0a643998ef610ce2850bedbc2098013bd3ce9b7bf4438712", 0],
    "fit-2 cq-jacobi@q-inverse": ["da5b04bfeb00e057f0ae0cecd5262ec1fc6b14b377822fbcb5c3d62b7ea2a7a0", 0],
    "fit-2 q-hermite-perturbed": ["05a9b56f8756a63e5d65ef60abf3eb9cb6d062410ca7be34e99e28f5fa077688", 1],
    "fit-2 q-hermite@q": ["63953071a1385d9167b245413582095902f0b024b7b53825502bc9aeeea6c1fd", 1],
    "fit-2 q-hermite@q-inverse": ["63953071a1385d9167b245413582095902f0b024b7b53825502bc9aeeea6c1fd", 1],
    "fit-2 random-1": ["63953071a1385d9167b245413582095902f0b024b7b53825502bc9aeeea6c1fd", 1],
    "fit-2 random-2": ["63953071a1385d9167b245413582095902f0b024b7b53825502bc9aeeea6c1fd", 1],
    "fit-auto asc-off-family@q": ["fabf2fee53b954aefcc1416c96b09cd4bc5640d6641aea5ce704691d9ff5913b", 1],
    "fit-auto asc-perturbed": ["fabf2fee53b954aefcc1416c96b09cd4bc5640d6641aea5ce704691d9ff5913b", 1],
    "fit-auto asc@q": ["f002d655ad1a795696ecce0f58a455ee43ee69fc00ede83854952a70dafcb395", 0],
    "fit-auto asc@q-inverse": ["b4f6efe363e7fec1b549a2d8267005076bc507ae89ddcbf8a19d6add59c6e809", 0],
    "fit-auto chebyshev-t-perturbed": ["3b52f8fc86777e16e45bc7f01ea1afee027e622ee862b22f11718427626c551f", 1],
    "fit-auto chebyshev-t@q": ["a5bc244fa7b85432b9fe638f06db581f660f2f652d9766a1c0552af3356f2c94", 0],
    "fit-auto chebyshev-t@q-inverse": ["a5bc244fa7b85432b9fe638f06db581f660f2f652d9766a1c0552af3356f2c94", 0],
    "fit-auto cq-jacobi-perturbed": ["fabf2fee53b954aefcc1416c96b09cd4bc5640d6641aea5ce704691d9ff5913b", 1],
    "fit-auto cq-jacobi@q": ["c81be6525b99a8be0a643998ef610ce2850bedbc2098013bd3ce9b7bf4438712", 0],
    "fit-auto cq-jacobi@q-inverse": ["da5b04bfeb00e057f0ae0cecd5262ec1fc6b14b377822fbcb5c3d62b7ea2a7a0", 0],
    "fit-auto q-hermite-perturbed": ["3b52f8fc86777e16e45bc7f01ea1afee027e622ee862b22f11718427626c551f", 1],
    "fit-auto q-hermite@q": ["52c043c13b5535c11359443439ed0526efb3a4a3bd9e5f53432cc47d5a2874fe", 0],
    "fit-auto q-hermite@q-inverse": ["52c043c13b5535c11359443439ed0526efb3a4a3bd9e5f53432cc47d5a2874fe", 0],
    "fit-auto random-1": ["fabf2fee53b954aefcc1416c96b09cd4bc5640d6641aea5ce704691d9ff5913b", 1],
    "fit-auto random-2": ["fabf2fee53b954aefcc1416c96b09cd4bc5640d6641aea5ce704691d9ff5913b", 1],
    "generate asc-off-family@q": ["1fff3cef0b8ec8bdac8c0be06b948eb783d6c1b0a0769734b914a93d3f22f393", 0],
    "generate asc@q": ["5617bfdd4c85ed36dccdff01401779e930db8e55f03cd406b1f1f064ce502fcd", 0],
    "generate asc@q-inverse": ["d6711f3bd30baee0495f9a9931f1ba781c482938a8c99c76d0b69f151cf70620", 0],
    "generate chebyshev-t@q": ["0b2cfaac58305ebe9e5f9f088d2ab992c99cdeb37fb5cf5e9ae34bf516fa68f6", 0],
    "generate chebyshev-t@q-inverse": ["0b2cfaac58305ebe9e5f9f088d2ab992c99cdeb37fb5cf5e9ae34bf516fa68f6", 0],
    "generate cq-jacobi@q": ["db2a799beac0d43376983e96b525f387eccf9006d1aeb77ab1912cc458a7255b", 0],
    "generate cq-jacobi@q-inverse": ["b5b402456c9cb8ed0c31f6c7162f8d3d319bdcbc656ed307d1ec0bf3cbb2e2f6", 0],
    "generate q-hermite@q": ["f84e8c5fdc3976d38c359feadbab0c514caefd6ff876385410a02778c719e7f9", 0],
    "generate q-hermite@q-inverse": ["6145c5822d0d6aafeb54272e49e17d39f0780cf3e2d204c0b65af62ce567231d", 0],
    "verify asc-off-family@q": ["5e18eae99d77b46222fc05f1546e9a62f3b56b5e428712ad0341847e77fdb03e", 1],
    "verify asc-perturbed": ["a0b62556c50496c587ca5d062941cae9bc1e571b84d3bc52b9d385b60eb284ba", 1],
    "verify asc@q": ["fca837bf7fa28234a70d9322cca1f0e1a301e88e601c7d5d2b418d5ecdd4b0cf", 0],
    "verify asc@q-inverse": ["e0d376c675952aeb8df6c081d394f4baa810b20d0e7199dcf2adcf929ccde036", 0],
    "verify chebyshev-t-perturbed": ["3813dee600fbeb646b00dc8de9ebe17a3f70822bb01848048ec96f2e9ae19224", 1],
    "verify chebyshev-t@q": ["4f585499be108b8ebb99499f45dfdf83c1e13e57dd94f572092ce70294d0a525", 0],
    "verify chebyshev-t@q-inverse": ["4f585499be108b8ebb99499f45dfdf83c1e13e57dd94f572092ce70294d0a525", 0],
    "verify cq-jacobi-perturbed": ["04886955d220945823c415fed27c38fe42ac58b154982191ff7fc21631527721", 1],
    "verify cq-jacobi@q": ["0d74a17c0bc3fae7caaf231faf8dec1f13e8f61151f38f10d6d928c546cf85ce", 0],
    "verify cq-jacobi@q-inverse": ["f998c6ef17ac33f75e2b54f725c4114cb85e4531836921fb3484f8c581248503", 0],
    "verify q-hermite-perturbed": ["303849bbb557991a1d849d6684b26e988bb978f26b7334311975a5f405615e7e", 1],
    "verify q-hermite@q": ["ed290e23ca6a826a1e9b18483bea5efb6c05497f5211aaa42cb7bfa4476b11fb", 0],
    "verify q-hermite@q-inverse": ["d8a02405ad63c9f01879088785828e8748d01b536d8a92fd65628e30cf161c31", 0],
    "verify random-1": ["c9089839871989167e5d3df4b77072b1d3f4d83193674d9002efb8ad3b5e67d5", 1],
    "verify random-2": ["2ad7aac3db82d80d3ce1c1f9054e9f30b1eeae058587203e3408a433fef7e8da", 1],
}

GOLDEN_LEDGERS = {
    "asc-off-family@q": ["fit-deg-0", "fit-deg-1", "fit-deg-2"],
    "asc-perturbed": ["fit-deg-0", "fit-deg-1", "fit-deg-2"],
    "asc@q": ["fit-deg-0", "fit-deg-1", "k1k2-zero", "pearson", "regenerated-asc-q"],
    "asc@q-inverse": ["asc-constraint-q", "fit-deg-0", "fit-deg-1", "k1k2-zero", "pearson", "regenerated-asc-q-inverse"],
    "chebyshev-t-perturbed": ["fit-deg-0", "fit-deg-1", "fit-deg-2"],
    "chebyshev-t@q": ["chebyshev-data", "fit-deg-0", "fit-deg-1", "fit-deg-2", "k-pair-is-minus-plus-2u", "pearson", "regenerated-chebyshev-t", "regularity-product-nonzero", "t-equals-minus-two-gamma"],
    "chebyshev-t@q-inverse": ["chebyshev-data", "fit-deg-0", "fit-deg-1", "fit-deg-2", "k-pair-is-minus-plus-2u", "pearson", "regenerated-chebyshev-t", "regularity-product-nonzero", "t-equals-minus-two-gamma"],
    "cq-jacobi-perturbed": ["fit-deg-0", "fit-deg-1", "fit-deg-2"],
    "cq-jacobi@q": ["chebyshev-data", "fit-deg-0", "fit-deg-1", "fit-deg-2", "k-pair-is-minus-plus-2u", "pearson", "regenerated-qjacobi-q", "regularity-product-nonzero", "t-equals-minus-two-gamma"],
    "cq-jacobi@q-inverse": ["chebyshev-data", "fit-deg-0", "fit-deg-1", "fit-deg-2", "k-pair-is-minus-plus-2u", "pearson", "regenerated-qjacobi-q", "regularity-product-nonzero", "t-equals-minus-two-gamma"],
    "q-hermite-perturbed": ["fit-deg-0", "fit-deg-1", "fit-deg-2"],
    "q-hermite@q": ["fit-deg-0", "pearson", "regenerated-q-hermite-q"],
    "q-hermite@q-inverse": ["fit-deg-0", "pearson", "regenerated-q-hermite-q", "regenerated-q-hermite-q-inverse"],
    "random-1": ["fit-deg-0", "fit-deg-1", "fit-deg-2"],
    "random-2": ["fit-deg-0", "fit-deg-1", "fit-deg-2"],
}


if __name__ == "__main__":
    import os
    import tempfile
    from pathlib import Path

    os.environ.pop("QSTRUCT_NMAX", None)
    with tempfile.TemporaryDirectory() as tmp:
        runs, ledgers = _observe(Path(tmp))
    print("GOLDEN_RUNS = {")
    for name in sorted(runs):
        print(f'    "{name}": {runs[name]!r},'.replace("'", '"'))
    print("}\n\nGOLDEN_LEDGERS = {")
    for name in sorted(ledgers):
        print(f'    "{name}": {ledgers[name]!r},'.replace("'", '"'))
    print("}")
