"""Byte gate: SHA-256 of every golden CLI document, compared byte for byte.

The documents are `table` for n = 2..7 in both bases, and every `global`
(Delta) and `semilocal` (Delta and N) target for n = 2 and 3, each as text,
latex and json; `formula` for the middle-degree target `F:n,1` of each
family F at n = 4..8, in the family's own basis, as json and as text (Delta,
N) or latex (B, Gamma); and `census` for n = 5 and 12, as json and text.
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
    assert len(documents()) == 178
    assert sorted(stored) == sorted(documents())


@pytest.mark.parametrize("command", documents())
def test_document_bytes_unchanged(stored, command):
    assert digest(command) == stored[command], f"`ukin {command}` output changed"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden_digests.py --write")
    DIGESTS.write_text(json.dumps({c: digest(c) for c in documents()}, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(documents())} digests to {DIGESTS}")
