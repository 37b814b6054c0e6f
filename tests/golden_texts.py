"""The pinned texts committed under ``tests/golden`` beside their hashes.

A pin compares the sha256 of a freshly built text with its hex literal,
which stays in the test that owns it.  The committed text is what that
literal hashes, so a text that moves shows as a diff against it.
"""

import difflib
import hashlib
from itertools import islice
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def committed(name: str) -> str:
    """The committed text ``tests/golden/<name>``, newlines as written."""
    with open(GOLDEN / name, encoding="utf-8", newline="") as f:
        return f.read()


def assert_golden(text: str, name: str, digest: str) -> None:
    """text hashes to digest; if not, the failure names the group and shows
    the first lines (at most 20) that differ from its committed text."""
    if sha256(text) != digest:
        diff = difflib.unified_diff(committed(name).splitlines(), text.splitlines(),
                                    name, "this run", lineterm="")
        pytest.fail(f"{name} does not hash to {digest}:\n" + "\n".join(islice(diff, 20)))
