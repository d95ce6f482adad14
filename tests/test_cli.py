import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from replhom import layered as L
from replhom.cli import main
from replhom.errors import TheoremViolation
from replhom.quiver import ReplicationSpec, load_quiver

SRC = Path(__file__).resolve().parent.parent / "src"


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


@pytest.mark.parametrize("summands", [None, [["n0"]], "n0", {"n0": 1}])
def test_tilt_check_summands_must_be_a_list_of_ids(a2_file, tmp_path, capsys,
                                                   summands):
    cand = tmp_path / "cand.json"
    cand.write_text(json.dumps({"summands": summands}))
    code, out, err = run(capsys, "tilt-check", str(cand), "--quiver",
                         a2_file, "--m", "1")
    assert code == 2 and out == ""
    detail = json.loads(err)
    assert detail["error"] == "QuiverError"
    assert "summands" in detail["detail"]


def test_verify_passes(a2_file, capsys):
    code, stdout, _ = run(capsys, "verify", "--quiver", a2_file, "--m", "1")
    assert code == 0
    report = json.loads(stdout)
    assert report["all"] == "pass"
    assert report["tilting_count"] == 5
    assert report["fundamental_domain_size"] == 5


def test_verify_runs_the_left_part_check_once(a2_file, monkeypatch,
                                              capsys):
    from replhom.arquiver import ARQuiver
    calls = []
    real = ARQuiver.m_left_part

    def counted(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(ARQuiver, "m_left_part", counted)
    code, _, _ = run(capsys, "verify", "--quiver", a2_file, "--m", "1")
    assert code == 0
    assert len(calls) == 1


def test_violation_report_names_its_witness(a2_file, monkeypatch, capsys):
    from replhom.arquiver import ARQuiver

    def broken(self):
        raise TheoremViolation("a planted violation",
                               witness=self.nodes[0].module)

    monkeypatch.setattr(ARQuiver, "check_commutation", broken)
    code, stdout, err = run(capsys, "verify", "--quiver", a2_file, "--m", "1")
    assert code == 1
    assert stdout == ""
    detail = json.loads(err)
    assert detail["error"] == "TheoremViolation"
    assert detail["detail"] == "a planted violation"
    assert "witness" in detail


@pytest.mark.parametrize("split", ["projective_injectives", "layer_zero"])
@pytest.mark.parametrize("complement", [False, True])
def test_tilt_check_splits_a_direct_sum_summand(a2_file, tmp_path, capsys,
                                                split, complement):
    """The regular module with two of its projectives given as one summand
    is still tilting, with four summands."""
    from replhom.arquiver import ARQuiver
    spec = ReplicationSpec(load_quiver(a2_file), 1)
    P = {n.proj_site: n.module for n in ARQuiver(spec).nodes
         if n.is_projective}
    layer = 1 if split == "projective_injectives" else 0
    mods = [L.layered_direct_sum(spec, [P[("a", layer)], P[("b", layer)]]),
            P[("a", 1 - layer)], P[("b", 1 - layer)]]
    cand = tmp_path / "cand.json"
    cand.write_text(json.dumps({"modules": [M.to_dict() for M in mods]}))
    code, stdout, _ = run(capsys, "tilt-check", str(cand), "--quiver",
                          a2_file, "--m", "1",
                          *(["--complement"] if complement else []))
    assert code == 0
    verdict = json.loads(stdout)
    assert verdict["tilting"] and verdict["summands"] == 4
    if complement:
        assert verdict["complement"] == []


def test_verify_catches_a_wrong_tilting_count(a2_file, monkeypatch,
                                              capsys):
    # one tilting module too many on the module side: the bijection report
    # has no violation, but the count is not the Fuss-Catalan number 5
    import replhom.cluster as cluster
    real = cluster.verify_bijection

    def one_more(*args, **kwargs):
        report = real(*args, **kwargs)
        report["module_side_count"] += 1
        return report

    monkeypatch.setattr(cluster, "verify_bijection", one_more)
    code, stdout, err = run(capsys, "verify", "--quiver", a2_file, "--m", "1")
    assert code == 1
    assert stdout == ""
    detail = json.loads(err)
    assert detail["error"] == "TheoremViolation"
    assert "6 tilting modules" in detail["detail"]
    assert "Fuss-Catalan number is 5" in detail["detail"]


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


def _subprocess_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def test_python_m_replhom_matches_main(a2_file, capsys):
    code, stdout, _ = run(capsys, "verify", "--quiver", a2_file, "--m", "1")
    result = subprocess.run(
        [sys.executable, "-m", "replhom", "verify", "--quiver", a2_file,
         "--m", "1"], env=_subprocess_env(), capture_output=True, text=True,
        timeout=300)
    assert result.returncode == code == 0, result.stderr
    assert result.stdout == stdout
