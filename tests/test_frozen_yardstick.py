"""The benchmark's host-speed yardstick must not follow the package.

perfbench/frozen/qstruct_frozen is a copy of the package's modules as they
were when the benchmark was defined; the benchmark scales every end-to-end
time by how long that copy takes. An edit that reaches the copy as well as
src/ (a repository-wide rename or rewrite) would change the yardstick along
with the program and cancel the measured difference. This test only reads
the copy.
"""

import hashlib
from pathlib import Path

FROZEN = Path(__file__).resolve().parent.parent / "perfbench" / "frozen" / "qstruct_frozen"

SHA256 = {
    "__init__.py": "af3218fb835057e082a19205137aab620ccd4c1d7583795246b9325adfc19ddf",
    "awops.py": "4d47bbb533efd5ec9126f67bd691fb42da9a89b1fd8a31da8a4de7ca4d4b76f2",
    "characterize.py": "52ca67d28dccbe19516e34c4a0d50e46c90f4f3624473b9397f1237e9cb24f75",
    "cli.py": "03c78e5ef499901ba82549247e3d0510228b0ea5d2b4843e43daf2b3d4d00763",
    "families.py": "8c04c4172c8ea13e89f80889d8ad5aa35630b14c295a4121de781ca19a207f24",
    "poly.py": "83686f4b377cb45df073492e1c163c86b5885ab69a1a62fb447d5c4984764501",
    "report.py": "a084356d59b2eca4bcdcda5960a96922d70a947e13bb8d42cc4444d5700f7c83",
    "scalar.py": "bfedb808041832e7623df3b10a41fb53704f2a32ef8e35620234da56cb9b7112",
    "structure.py": "3aaf5654e1d592114986cc2cae680b6446563cf155fa5d300ce2f52984f6ad9b",
}


def test_frozen_copy_is_unchanged():
    files = {
        path.relative_to(FROZEN).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in FROZEN.rglob("*")
        if path.is_file() and "__pycache__" not in path.parts
    }
    assert files == SHA256
