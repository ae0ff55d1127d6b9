"""Byte gate: SHA-256 of every golden CLI document, compared byte for byte.

The documents are `table` for n = 2..7 in both bases, each as text, latex
and json, and for n = 8 and 9 in both bases as json; every `global` (Delta)
and `semilocal` (Delta and N) target for n = 2 and 3, each as text, latex and
json; `formula` for the middle-degree target `F:n,1` of each family F at
n = 4..8, in the family's own basis, as json and as text (Delta, N) or latex
(B, Gamma); `census` for n = 5, 12 and 24, as json and text; and, as json,
the middle-degree targets of the top degree at larger n: `formula` and
`global` on Delta:11,5 and `semilocal` on N:11,4 at n = 12, all three verbs
on Delta:15,7 at n = 16, `formula` on Delta:23,11 at n = 24 and on Gamma:11,5
in the b-gamma basis at n = 12, and the single-target verbs at the reach of
reading one target row: `formula` on Delta:31,15 at n = 32, `semilocal` on
N:23,11 at n = 24 and `formula` on Gamma:23,11 in the b-gamma basis at n = 24.
They are produced by `ukin.cli.main` in-process with stdout captured;
`tests/golden/digests.json` maps each command line to the digest of its
stdout.

Regenerate the file only when an output change is intended:

    PYTHONPATH=src python tests/test_golden_digests.py --write
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from ukin.areabasis import Family, valid_indices
from ukin.cli import main

DIGESTS = Path(__file__).parent / "golden" / "digests.json"
FORMATS = ("text", "latex", "json")


def documents() -> list[str]:
    """Every gated command line, as the space-joined argv given to `main`."""
    commands = [
        f"table --n {n} --basis {basis} --format {fmt}"
        for n in range(2, 8) for basis in ("delta-n", "b-gamma") for fmt in FORMATS
    ]
    commands += [f"table --n {n} --basis {basis} --format json"
                 for n in (8, 9) for basis in ("delta-n", "b-gamma")]
    for n in (2, 3):
        targets = {
            "global": valid_indices(n, Family.DELTA),
            "semilocal": valid_indices(n, Family.DELTA) + valid_indices(n, Family.N),
        }
        for verb, indices in targets.items():
            commands += [f"{verb} --n {n} --target {idx.text()} --format {fmt}"
                         for idx in indices for fmt in FORMATS]
    commands += [f"formula --n {n} --target {family}:{n},1 --basis {basis} --format {fmt}"
                 for n in range(4, 9)
                 for basis, families, second in (("delta-n", ("Delta", "N"), "text"),
                                                 ("b-gamma", ("B", "Gamma"), "latex"))
                 for family in families for fmt in ("json", second)]
    commands += [f"census --n {n} --format {fmt}" for n in (5, 12, 24) for fmt in ("json", "text")]
    commands += [f"{verb} --n {n} --target {target} --format json"
                 for n, delta, semilocal in ((12, "Delta:11,5", "N:11,4"), (16, "Delta:15,7", "Delta:15,7"))
                 for verb, target in (("formula", delta), ("global", delta), ("semilocal", semilocal))]
    commands += ["formula --n 24 --target Delta:23,11 --format json",
                 "formula --n 12 --target Gamma:11,5 --basis b-gamma --format json",
                 "formula --n 32 --target Delta:31,15 --format json",
                 "semilocal --n 24 --target N:23,11 --format json",
                 "formula --n 24 --target Gamma:23,11 --basis b-gamma --format json"]
    return commands


def digest(command: str) -> str:
    """SHA-256 of the stdout of one in-process `ukin` run, which must exit 0."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(command.split())
    assert code == 0, f"`ukin {command}` exited {code}"
    return hashlib.sha256(buffer.getvalue().encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def stored() -> dict[str, str]:
    return json.loads(DIGESTS.read_text())


def test_digest_file_covers_exactly_the_gated_documents(stored):
    assert len(documents()) == 193
    assert sorted(stored) == sorted(documents())


@pytest.mark.parametrize("command", documents())
def test_document_bytes_unchanged(stored, command):
    assert digest(command) == stored[command], f"`ukin {command}` output changed"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden_digests.py --write")
    DIGESTS.write_text(json.dumps({c: digest(c) for c in documents()}, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(documents())} digests to {DIGESTS}")
