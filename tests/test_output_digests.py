"""Byte-for-byte pins of large outputs.

The SHA-256 of the `ar-quiver` DOT and JSON files on E7 with m = 1 and of
the `verify` report on E6 with m = 1, recorded before integral matrix
entries became plain ints (they were Fractions), and of the `verify` report
on E6 with m = 2.  A change of how entries are represented, or of any
choice the library makes (bases, generators, node order), shows here even
where the small inputs' outputs agree.
"""

import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from replhom.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"

E7_AR_QUIVER_SHA256 = (
    "bea9ebb8984cca190cd27a873d12dd02c3fd44188f758b084aacd68cf0284737")
E6_VERIFY_SHA256 = (
    "f0b4fe4bc57bc0fe458ef958e8c7c3e0dd12710cee2445eedf4e482f4c03ff9a")
# E6 m = 2, recorded when the node steps moved from modules to the mesh
# table: both gave this report
E6_M2_VERIFY_SHA256 = (
    "9b6ed0945d62adbaf655bad3be564b035b21535f9fa913e4cf56c1c170045e67")


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


# E6 m = 1 verify peaked at 45 MB of RSS once each node step read its
# cokernel by Auslander's multiplicity formula instead of building it; at
# 55 MB while the steps built their cokernels, at 178-189 MB before the
# chain ran node by node and an AR-node lookup stopped caching the module
# it looks up on the node, and at 235 MB before the row-basis faithfulness
# test and the chain from the projectives outside add T (Linux x86-64,
# CPython 3.11); the bound leaves 20% room
E6_VERIFY_PEAK_MB = 54

# runs argv[2:], its stdout to the file argv[1], and prints the exit code
# and the children's peak RSS (KiB)
_PEAK_PROBE = ("import resource, subprocess, sys; "
               "out = open(sys.argv[1], 'wb'); "
               "code = subprocess.run(sys.argv[2:], stdout=out).returncode; "
               "print(code, resource.getrusage("
               "resource.RUSAGE_CHILDREN).ru_maxrss)")


def _e6_verify(tmp_path, m):
    """`verify` on E6 with m in a fresh interpreter, run by a probe process
    so that RUSAGE_CHILDREN sees that run alone: (stdout bytes, the parsed
    report, peak RSS in MB).  Every check must pass, and the tilting
    objects must number the Fuss-Catalan prod (mh + e_i + 1)/(e_i + 1)."""
    h, exponents = 12, (1, 4, 5, 7, 8, 11)
    fuss_catalan = Fraction(1)
    for e in exponents:
        fuss_catalan *= Fraction(m * h + e + 1, e + 1)
    quiver = _write(tmp_path, "e6.json", ["1", "2", "3", "4", "5", "6"],
                    [("a", "1", "2"), ("b", "2", "3"), ("c", "3", "4"),
                     ("d", "4", "5"), ("e", "6", "3")])
    out = tmp_path / "stdout"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, "-c", _PEAK_PROBE, str(out), sys.executable,
         "-m", "replhom", "verify", "--quiver", quiver, "--m", str(m)],
        env=env, capture_output=True, text=True, timeout=1800)
    code, peak_kb = result.stdout.split()
    assert code == "0", result.stderr
    stdout = out.read_bytes()
    report = json.loads(stdout)
    assert report["all"] == "pass"
    assert report["tilting_count"] == fuss_catalan
    return stdout, report, int(peak_kb) / 1024


@pytest.mark.slow
def test_verify_e6_m1_digest(tmp_path):
    """One E6 m = 1 `verify`: every check passes, the tilting objects
    number the Fuss-Catalan 833, the report is byte-identical to its pin,
    and the run stays under its peak-RSS bound."""
    stdout, report, peak_mb = _e6_verify(tmp_path, 1)
    assert report["tilting_count"] == 833
    assert hashlib.sha256(stdout).hexdigest() == E6_VERIFY_SHA256
    assert peak_mb <= E6_VERIFY_PEAK_MB


@pytest.mark.slow
def test_verify_e6_m2_digest(tmp_path):
    """One E6 m = 2 `verify`: every check passes, the tilting objects
    number the Fuss-Catalan 16,588, and the report is byte-identical to
    the one the module-built node steps gave."""
    stdout, report, _ = _e6_verify(tmp_path, 2)
    assert report["tilting_count"] == 16588
    assert report["nodes"] == 180
    assert hashlib.sha256(stdout).hexdigest() == E6_M2_VERIFY_SHA256
