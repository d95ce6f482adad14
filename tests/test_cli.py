import json
from fractions import Fraction

import pytest

from replhom.cli import main


@pytest.fixture()
def a2_file(tmp_path):
    path = tmp_path / "a2.json"
    path.write_text(json.dumps({
        "vertices": ["a", "b"],
        "arrows": [{"id": "beta", "src": "b", "tgt": "a"}],
    }))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_ar_quiver_writes_outputs(a2_file, tmp_path, capsys):
    out = tmp_path / "out"
    code, stdout, _ = run(capsys, "ar-quiver", "--quiver", a2_file,
                          "--m", "1", "--out", str(out))
    assert code == 0
    info = json.loads(stdout)
    assert info["nodes"] == 9
    dot = (out / "ar_quiver.dot").read_text()
    assert dot.startswith("digraph ar_quiver")
    table = json.loads((out / "ar_quiver.json").read_text())
    assert table["node_count"] == 9
    assert len(table["nodes"]) == 9


def test_ar_quiver_format_flag(a2_file, tmp_path, capsys):
    out = tmp_path / "only_dot"
    code, _, _ = run(capsys, "ar-quiver", "--quiver", a2_file, "--m", "1",
                     "--out", str(out), "--format", "dot")
    assert code == 0
    assert (out / "ar_quiver.dot").exists()
    assert not (out / "ar_quiver.json").exists()


def test_ar_quiver_deterministic(a2_file, tmp_path, capsys):
    outs = []
    for name in ("o1", "o2"):
        out = tmp_path / name
        run(capsys, "ar-quiver", "--quiver", a2_file, "--m", "1",
            "--out", str(out))
        outs.append((out / "ar_quiver.dot").read_bytes()
                    + (out / "ar_quiver.json").read_bytes())
    assert outs[0] == outs[1]


def test_invalid_quiver_is_input_error(tmp_path, capsys):
    bad = tmp_path / "loop.json"
    bad.write_text(json.dumps({
        "vertices": ["a"],
        "arrows": [{"id": "l", "src": "a", "tgt": "a"}],
    }))
    code, _, err = run(capsys, "ar-quiver", "--quiver", str(bad), "--m", "1",
                       "--out", str(tmp_path / "x"))
    assert code == 2
    assert "CycleFound" in err


def test_malformed_quiver_is_input_error(tmp_path, capsys):
    bad = tmp_path / "no_arrows.json"
    bad.write_text(json.dumps({"vertices": ["a", "b"]}))
    code, _, err = run(capsys, "ar-quiver", "--quiver", str(bad), "--m", "1",
                       "--out", str(tmp_path / "x"))
    assert code == 2
    assert "QuiverError" in err


def test_two_cycle_quiver_is_input_error(tmp_path, capsys):
    bad = tmp_path / "two_cycle.json"
    bad.write_text(json.dumps({
        "vertices": ["a", "b"],
        "arrows": [{"id": "f", "src": "a", "tgt": "b"},
                   {"id": "g", "src": "b", "tgt": "a"}],
    }))
    code, _, err = run(capsys, "ar-quiver", "--quiver", str(bad), "--m", "1",
                       "--out", str(tmp_path / "x"))
    assert code == 2
    assert "CycleFound" in err


def test_missing_file_is_input_error(tmp_path, capsys):
    code, _, err = run(capsys, "ar-quiver", "--quiver",
                       str(tmp_path / "none.json"), "--m", "1",
                       "--out", str(tmp_path / "x"))
    assert code == 2


def test_tilt_check_all_projectives(a2_file, tmp_path, capsys):
    cand = tmp_path / "cand.json"
    cand.write_text(json.dumps({"summands": ["n0", "n1", "n2", "n3"]}))
    code, stdout, _ = run(capsys, "tilt-check", str(cand), "--quiver",
                          a2_file, "--m", "1")
    assert code == 0
    verdict = json.loads(stdout)
    assert verdict["tilting"] and verdict["faithful"]


def test_tilt_check_missing_proj_inj(a2_file, tmp_path, capsys):
    cand = tmp_path / "cand.json"
    cand.write_text(json.dumps({"summands": ["n2", "n0"]}))
    code, stdout, _ = run(capsys, "tilt-check", str(cand), "--quiver",
                          a2_file, "--m", "1")
    assert code == 0
    verdict = json.loads(stdout)
    assert verdict["exceptional"] and not verdict["faithful"]


def test_tilt_check_complement(a2_file, tmp_path, capsys):
    cand = tmp_path / "cand.json"
    cand.write_text(json.dumps({"summands": ["n2", "n3", "n1"]}))
    code, stdout, _ = run(capsys, "tilt-check", str(cand), "--quiver",
                          a2_file, "--m", "1", "--complement")
    assert code == 0
    verdict = json.loads(stdout)
    assert verdict["complement_verified"]
    assert len(verdict["complement"]) == 1


def test_tilt_check_unknown_id(a2_file, tmp_path, capsys):
    cand = tmp_path / "cand.json"
    cand.write_text(json.dumps({"summands": ["n99"]}))
    code, _, err = run(capsys, "tilt-check", str(cand), "--quiver", a2_file,
                       "--m", "1")
    assert code == 2


def test_verify_passes(a2_file, capsys):
    code, stdout, _ = run(capsys, "verify", "--quiver", a2_file, "--m", "1")
    assert code == 0
    report = json.loads(stdout)
    assert report["all"] == "pass"
    assert report["tilting_count"] == 5
    assert report["fundamental_domain_size"] == 5


@pytest.mark.slow
def test_verify_e6_m1(tmp_path, capsys):
    """The E6 bijection with m = 1: every check passes and the tilting
    objects number the Fuss-Catalan prod (mh + e_i + 1)/(e_i + 1) = 833."""
    path = tmp_path / "e6.json"
    path.write_text(json.dumps({
        "vertices": ["1", "2", "3", "4", "5", "6"],
        "arrows": [{"id": a, "src": s, "tgt": t} for a, s, t in
                   [("a", "1", "2"), ("b", "2", "3"), ("c", "3", "4"),
                    ("d", "4", "5"), ("e", "6", "3")]],
    }))
    h, exponents = 12, (1, 4, 5, 7, 8, 11)
    fuss_catalan = Fraction(1)
    for e in exponents:
        fuss_catalan *= Fraction(h + e + 1, e + 1)
    assert fuss_catalan == 833
    code, stdout, _ = run(capsys, "verify", "--quiver", str(path), "--m", "1")
    assert code == 0
    report = json.loads(stdout)
    assert report["all"] == "pass"
    assert report["tilting_count"] == 833


def test_verify_fault_injection(a2_file, capsys):
    code, _, err = run(capsys, "verify", "--quiver", a2_file, "--m", "1",
                       "--inject-fault", "tau-swap")
    assert code == 1
    detail = json.loads(err)
    assert detail["error"] == "TheoremViolation"
    assert "witness" in detail


def test_seed_is_rejected(a2_file, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["ar-quiver", "--quiver", a2_file, "--m", "1",
              "--out", str(tmp_path / "out"), "--seed", "5"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_verify_kronecker_smoke(tmp_path, capsys):
    kron = tmp_path / "kron.json"
    kron.write_text(json.dumps({
        "vertices": ["a", "b"],
        "arrows": [{"id": "a1", "src": "b", "tgt": "a"},
                   {"id": "a2", "src": "b", "tgt": "a"}],
    }))
    # bound 2 yields fewer than the 20 demanded samples: the bound is the
    # caller's to raise, so the run stops with an input error rather than
    # passing on a thin sample
    code, _, err = run(capsys, "verify", "--quiver", str(kron), "--m", "1",
                       "--kronecker-dim", "2")
    assert code == 2
    detail = json.loads(err)
    assert detail["error"] == "NotSupported"
    assert "--kronecker-dim 2" in detail["detail"]


def test_malformed_candidate_module_is_input_error(a2_file, tmp_path,
                                                   capsys):
    # a 1x2 matrix on an arrow between one-dimensional spaces, and a module
    # without layers: both are faults of the file
    shape = {"layers": [{"dim": {"a": 1, "b": 1},
                         "mats": {"beta": [["1", "0"]]}}, {"dim": {}}],
             "connectors": [None, None]}
    for module in (shape, {"connectors": [None, None]}):
        cand = tmp_path / "cand.json"
        cand.write_text(json.dumps({"modules": [module]}))
        code, _, err = run(capsys, "tilt-check", str(cand), "--quiver",
                           a2_file, "--m", "1")
        assert code == 2
        assert json.loads(err)["error"] == "QuiverError"


def test_internal_value_error_is_not_an_input_error(a2_file, monkeypatch):
    def broken(spec):
        raise ValueError("an internal fault")

    monkeypatch.setattr("replhom.cli._verify_dynkin", broken)
    with pytest.raises(ValueError, match="an internal fault"):
        main(["verify", "--quiver", a2_file, "--m", "1"])


def test_kronecker_dim_needs_the_kronecker_quiver(a2_file, capsys):
    code, _, err = run(capsys, "verify", "--quiver", a2_file, "--m", "1",
                       "--kronecker-dim", "4")
    assert code == 2
    assert json.loads(err)["error"] == "NotSupported"
