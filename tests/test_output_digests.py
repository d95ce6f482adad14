"""Byte-for-byte pins of large outputs.

The SHA-256 of the `ar-quiver` DOT and JSON files on E7 with m = 1 and of
the `verify` report on E6 with m = 1, recorded before integral matrix
entries became plain ints (they were Fractions).  A change of how entries
are represented, or of any choice the library makes (bases, generators,
node order), shows here even where the small inputs' outputs agree.
"""

import hashlib
import json

import pytest

from replhom.cli import main

E7_AR_QUIVER_SHA256 = (
    "bea9ebb8984cca190cd27a873d12dd02c3fd44188f758b084aacd68cf0284737")
E6_VERIFY_SHA256 = (
    "f0b4fe4bc57bc0fe458ef958e8c7c3e0dd12710cee2445eedf4e482f4c03ff9a")


def _write(tmp_path, name, vertices, edges):
    path = tmp_path / name
    path.write_text(json.dumps({
        "vertices": vertices,
        "arrows": [{"id": a, "src": s, "tgt": t} for a, s, t in edges]}))
    return str(path)


def test_ar_quiver_e7_m1_digest(tmp_path, capsys):
    """E7, every edge i -> i+1 plus 3 -> 7: 189 nodes."""
    edges = [(i, i + 1) for i in range(1, 6)] + [(3, 7)]
    quiver = _write(tmp_path, "e7.json", [f"v{i}" for i in range(1, 8)],
                    [(f"e{k}", f"v{a}", f"v{b}")
                     for k, (a, b) in enumerate(edges)])
    out = tmp_path / "out"
    assert main(["ar-quiver", "--quiver", quiver, "--m", "1",
                 "--out", str(out)]) == 0
    assert json.loads(capsys.readouterr().out)["nodes"] == 189
    blob = ((out / "ar_quiver.dot").read_bytes()
            + (out / "ar_quiver.json").read_bytes())
    assert hashlib.sha256(blob).hexdigest() == E7_AR_QUIVER_SHA256


@pytest.mark.slow
def test_verify_e6_m1_digest(tmp_path, capsys):
    quiver = _write(tmp_path, "e6.json", ["1", "2", "3", "4", "5", "6"],
                    [("a", "1", "2"), ("b", "2", "3"), ("c", "3", "4"),
                     ("d", "4", "5"), ("e", "6", "3")])
    assert main(["verify", "--quiver", quiver, "--m", "1"]) == 0
    stdout = capsys.readouterr().out.encode()
    assert hashlib.sha256(stdout).hexdigest() == E6_VERIFY_SHA256
