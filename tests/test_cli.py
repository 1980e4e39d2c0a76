import hashlib
import json
import os
import re
import subprocess
import sys

import pytest

from collinea import cli
from collinea.algebra import field_make
from collinea.collinear import closed_form_minimizer, transversal_from_bijection
from collinea.fixtures import load_fixture
from collinea.plane import affine_plane, projective_plane, save_plane


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


@pytest.fixture
def plane3(tmp_path):
    p = tmp_path / "ag3.json"
    p.write_bytes(save_plane(affine_plane(field_make(3))))
    return str(p)


def test_psi_field_example(capsys):
    code, d = run(capsys, "psi", "field", "5")
    assert code == 0
    assert d["psi"] == 2
    assert d["witness"] == [0, 1, 2, 4, 3]
    assert d["witnesses"] == [[0, 1, 2, 4, 3]]
    m = d["manifest"]
    assert m["command"] == "psi field"
    assert m["arguments"] == ["psi", "field", "5"]
    assert set(m) == {"command", "arguments", "config_hash", "toolkit_version",
                      "input_digests", "wall_time"}


def test_psi_field_deterministic_modulo_timing(capsys):
    def scrub(d):
        d["elapsed"] = d["manifest"]["wall_time"] = None
        return d

    _, a = run(capsys, "psi", "field", "5")
    _, b = run(capsys, "psi", "field", "5")
    assert scrub(a) == scrub(b)


def test_psi_zn(capsys):
    code, d = run(capsys, "psi", "zn", "4")
    assert code == 0
    assert d["psi"] == 0


def test_psi_plane_file_and_overrides(capsys, plane3):
    code, d = run(capsys, "psi", "plane", plane3)
    assert (code, d["psi"], d["h"], d["v"]) == (0, 1, 0, 1)
    code, d = run(capsys, "psi", "plane", plane3, "--h", "3", "--v", "2")
    assert (code, d["h"], d["v"]) == (0, 3, 2)
    assert d["manifest"]["input_digests"].keys() == {plane3}


def test_psi_plane_all_pairs(capsys, plane3):
    code, d = run(capsys, "psi", "plane", plane3, "--all-pairs")
    assert code == 0
    assert len(d["pairs"]) == 6  # C(4,2) class pairs at order 3
    assert d["psi_values"] == [1]
    code, _ = run(capsys, "psi", "plane", plane3, "--all-pairs", "--h", "0")
    assert code == 2


def test_psi_plane_fixture_by_name(capsys):
    code, d = run(capsys, "psi", "plane", "hall_translation_deleted.json")
    assert code == 0
    assert d["psi"] == 5
    assert "fixture:hall_translation_deleted" in d["manifest"]["input_digests"]


def test_psi_plane_rejects_projective(capsys):
    code, d = run(capsys, "psi", "plane", "hall_projective")
    assert code == 2
    assert d["error"]["type"] == "UsageError"


def test_triples_builtin_families(capsys):
    assert run(capsys, "triples", "--g", "--q", "7")[1]["triples"] == 3
    assert run(capsys, "triples", "--inv", "--q", "8")[1]["triples"] == 0
    assert run(capsys, "quadruples", "--g", "--q", "5")[1]["quadruples"] == 0


@pytest.mark.parametrize("argv", [
    ("triples", "--g", "--inv", "--q", "5"),
    ("triples", "--g"),
    ("triples",),
    ("minimizers",),
    ("triples", "--g", "--q", "9", "--zn", "9"),
    ("triples", "--inv", "--q", "8", "--zn", "5"),
    ("quadruples", "--g", "--q", "9", "--zn", "9"),
])
def test_usage_errors(capsys, argv):
    code, d = run(capsys, *argv)
    assert code == 2
    assert d["error"]["type"] == "UsageError"


def test_triples_perm_file_field_and_ring(capsys, tmp_path):
    p = tmp_path / "w.json"
    p.write_text("[0, 1, 3, 2]")
    assert run(capsys, "triples", str(p), "--zn", "4")[1]["triples"] == 0
    assert run(capsys, "triples", str(p), "--q", "4")[1]["triples"] == 0
    code, d = run(capsys, "triples", str(p), "--q", "4", "--zn", "4")
    assert code == 2


def test_triples_genperm_file(capsys, tmp_path):
    ap = load_fixture("hall_translation_deleted")
    gp = transversal_from_bijection(ap, 0, 1, (0, 1, 3, 2, 6, 5, 7, 4, 8))
    f = tmp_path / "gp.json"
    f.write_text(json.dumps({"plane": "hall_translation_deleted", "h_class": 0,
                             "v_class": 1, "cells": list(gp.cells)}))
    code, d = run(capsys, "triples", str(f))
    assert code == 0
    assert d["triples"] == 5
    code, d = run(capsys, "quadruples", str(f))
    assert (code, d["quadruples"]) == (0, 0)


def test_genperm_file_on_a_projective_plane_is_a_usage_error(capsys, tmp_path):
    f = tmp_path / "gp.json"
    f.write_text(json.dumps({"plane": "hall_projective", "h_class": 0, "v_class": 1,
                             "cells": list(range(9))}))
    for cmd in ("triples", "quadruples"):
        code, d = run(capsys, cmd, str(f))
        assert (code, d["error"]["type"]) == (2, "UsageError"), cmd
        assert f"{cmd} needs an affine plane" in d["error"]["message"]


def test_genperm_file_without_a_plane_name_is_a_parse_error(capsys, tmp_path):
    # checked before any file is read: an empty name would resolve to the
    # perm file's own directory
    sub = tmp_path / "sub"
    sub.mkdir()
    f = sub / "gp.json"
    for plane in ({}, {"plane": ""}, {"plane": None}, {"plane": 9}, {"plane": ["ag3.json"]}):
        f.write_text(json.dumps({**plane, "h_class": 0, "v_class": 1, "cells": list(range(9))}))
        for cmd in ("triples", "quadruples"):
            code, d = run(capsys, cmd, str(f))
            assert (code, d["error"]["type"]) == (3, "ParseError"), (plane, cmd)
            assert d["error"]["message"] == f"{f}: field 'plane' must be a non-empty string"


def test_bad_perm_files(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    for text in ("not json", '[0, 1, "2"]', "[0, 0, 1]"):
        bad.write_text(text)
        code, d = run(capsys, "triples", str(bad), "--q", "3")
        assert code == 3, text
    code, d = run(capsys, "triples", str(tmp_path / "absent.json"), "--q", "3")
    assert code == 3


def test_minimizers_check_fractional(capsys):
    code, d = run(capsys, "minimizers", "5", "--check-fractional")
    assert code == 0
    assert (d["psi"], d["count"]) == (2, 100)
    assert d["fractional"]["all_recognized"] is True
    assert len(d["fractional"]["params"]) == 100


def test_minimizers_check_fractional_q2(capsys):
    code, d = run(capsys, "minimizers", "2", "--check-fractional")
    assert code == 0
    assert d["witnesses"] == [[0, 1], [1, 0]]
    assert d["fractional"] == {"all_recognized": True,
                               "params": [[0, 1, 0], [0, 1, 1]]}


def test_psi_field_matches_closed_form_at_7(capsys):
    code, d = run(capsys, "psi", "field", "7")
    assert code == 0
    assert d["witness"] == list(closed_form_minimizer(field_make(7)).images)


def test_certify_good_and_bad(capsys, tmp_path):
    w = tmp_path / "w.json"
    w.write_text("[0, 1, 2, 4, 3]")
    code, d = run(capsys, "certify", str(w), "--q", "5")
    assert code == 0
    c = d["certificate"]
    assert c["k_star"] == 23
    assert c["lemma_ab_zero"] is True
    assert c["external_point"] == [1, 1, 1]
    w.write_text("[0, 1, 2, 3, 4]")
    code, d = run(capsys, "certify", str(w), "--q", "5")
    assert code == 5
    assert d["error"]["type"] == "CertificateFailure"


def test_flat_perm_file_errors_come_before_the_field(capsys, tmp_path):
    # a file that is no integer array fails first, whatever --q is; an array
    # that is no bijection fails after the field, naming the file
    w = tmp_path / "w.json"
    for cmd in ("certify", "triples"):
        w.write_text('[0, 1, "2"]')
        code, d = run(capsys, cmd, str(w), "--q", "6")
        assert (code, d["error"]["message"]) == (3, f"{w}: expected a JSON array of integers")
        w.write_text("[0, 0, 1, 2, 3]")
        code, d = run(capsys, cmd, str(w), "--q", "6")
        assert (code, d["error"]["type"]) == (3, "NotPrimePower"), cmd
        code, d = run(capsys, cmd, str(w), "--q", "5")
        assert (code, d["error"]["message"]) == (3, f"{w}: images are not a bijection on 0..4")


def test_certify_even_q_is_an_input_error(capsys, tmp_path):
    w = tmp_path / "inv8.json"
    w.write_text("[0, 1, 5, 6, 7, 2, 3, 4]")
    code, d = run(capsys, "certify", str(w), "--q", "8")
    assert code == 3
    assert d["error"]["type"] == "EvenCharacteristic"


def test_certify_q_below_5_is_an_input_error(capsys, tmp_path):
    w = tmp_path / "w3.json"
    w.write_text("[0, 2, 1]")
    code, d = run(capsys, "certify", str(w), "--q", "3")
    assert code == 3
    assert d["error"]["type"] == "FieldTooSmall"


def test_node_limit_exit(capsys):
    code, d = run(capsys, "psi", "field", "7", "--node-limit", "10")
    assert code == 4
    assert d["error"]["type"] == "NodeLimitExceeded"
    for flag in ("--node-limit", "--seed-incumbent"):
        code, d = run(capsys, "psi", "field", "5", flag, "-1")
        assert (code, d["error"]["type"]) == (2, "UsageError")


def test_seed_incumbent_flows_through(capsys):
    code, d = run(capsys, "psi", "field", "5", "--seed-incumbent", "2")
    assert (code, d["psi"]) == (0, 2)
    # a seed below the attainable minimum is an input error, not a result
    code, d = run(capsys, "psi", "field", "5", "--seed-incumbent", "1")
    assert code == 3


def test_bad_thread_counts_are_usage_errors(capsys):
    for argv in (["--threads", "0"], ["--threads", "-2"]):
        code, d = run(capsys, "psi", "field", "5", "--parallel-depth", "1", *argv)
        assert (code, d["error"]["type"]) == (2, "UsageError")


def test_config_block_keys(capsys):
    keys = {"mode", "bound", "parallel_depth", "threads", "node_limit", "upper_bound_seed"}
    for argv in (["psi", "zn", "6"], ["minimizers", "5"]):
        code, d = run(capsys, *argv)
        assert code == 0
        assert set(d["config"]) == keys


def test_mols_pipeline(capsys, tmp_path, plane3):
    mf = str(tmp_path / "m.json")
    code, d = run(capsys, "mols", "from-plane", plane3, "--h", "3", "--v", "0",
                  "--out", mf)
    assert (code, d["count"], d["written"]) == (0, 2, mf)
    code, d = run(capsys, "mols", "to-plane", mf)
    assert code == 0
    assert d["plane"]["points"] == 9 and len(d["plane"]["lines"]) == 12
    code, d = run(capsys, "mols", "diag-witness", mf)
    assert code == 0
    assert d["witness"] == {"square": 0, "symbol": 0, "rows": [0, 1, 2]}
    code, d = run(capsys, "mols", "diag-witness", mf, "--relabeling", "[2,0,1]")
    assert code == 0 and d["witness"] is not None
    assert run(capsys, "mols", "diag-witness", mf, "--relabeling", "oops")[0] == 2
    assert run(capsys, "mols", "diag-witness", mf, "--relabeling", "[0,0,1]")[0] == 3


def test_plane_validate_reports_all_failures(capsys, tmp_path):
    good = tmp_path / "ok.json"
    good.write_bytes(save_plane(affine_plane(field_make(3))))
    code, d = run(capsys, "plane", "validate", str(good))
    assert (code, d["ok"], d["failures"]) == (0, True, [])

    obj = json.loads(good.read_bytes())
    obj["lines"][0] = [0, 1, 4]  # break one line, keep it parseable
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    code, d = run(capsys, "plane", "validate", str(bad))
    assert code == 3
    assert d["ok"] is False
    assert len(d["failures"]) > 1  # every violated axiom, not just the first

    bad.write_text("{")
    assert run(capsys, "plane", "validate", str(bad))[0] == 3


def test_plane_validate_without_classes_reports_all_failures(capsys, tmp_path):
    # the loader computes the missing classes without judging them, so the
    # report lists every fault instead of a NotAPlane error object; with
    # point 4 on five lines and point 2 on three, no classes are grouped
    obj = json.loads(save_plane(affine_plane(field_make(3))))
    del obj["parallel_classes"]
    obj["lines"][0] = [0, 1, 4]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    code, d = run(capsys, "plane", "validate", str(bad))
    assert (code, d["ok"]) == (3, False)
    for fault in ("pair (0, 3) lies on 0 lines: []", "0 parallel classes, expected 4"):
        assert fault in d["failures"]


def test_plane_delete_line_roundtrip(capsys, tmp_path):
    pf = tmp_path / "pg3.json"
    pf.write_bytes(save_plane(projective_plane(field_make(3))))
    out = str(tmp_path / "a.json")
    code, d = run(capsys, "plane", "delete-line", str(pf), "0", "--out", out)
    assert (code, d["points"], d["deleted_line"]) == (0, 9, 0)
    code, d = run(capsys, "plane", "validate", out)
    assert (code, d["ok"]) == (0, True)
    # affine input is refused
    assert run(capsys, "plane", "delete-line", out, "0")[0] == 2


def test_hostile_plane_files_fail_cleanly(capsys, tmp_path):
    obj = json.loads(save_plane(affine_plane(field_make(3))))
    bad = tmp_path / "bad.json"
    for key, value in (("parallel_classes", 5), ("parallel_classes", [[0, "a"]]),
                       ("labels", [1, 2]), ("labels", {"1_0": "read as line 10"})):
        bad.write_text(json.dumps({**obj, key: value}))
        for argv in (("plane", "info"), ("plane", "validate"), ("psi", "plane")):
            code, d = run(capsys, *argv, str(bad))
            assert (code, d["error"]["type"]) == (3, "ParseError"), (key, argv)


def test_booleans_and_fractions_are_not_integers(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    obj = json.loads(save_plane(affine_plane(field_make(3))))
    obj["lines"] = [[True if p == 1 else p for p in ln] for ln in obj["lines"]]
    bad.write_text(json.dumps(obj))
    code, d = run(capsys, "plane", "validate", str(bad))
    assert (code, d["error"]["type"]) == (3, "ParseError")
    bad.write_text(json.dumps({"order": 2, "squares": [[[False, True], [True, False]]]}))
    code, d = run(capsys, "mols", "to-plane", str(bad))
    assert (code, d["error"]["type"]) == (3, "ParseError")
    gp = transversal_from_bijection(affine_plane(field_make(3)), 0, 1, (0, 1, 2))
    (tmp_path / "ag3.json").write_bytes(save_plane(gp.plane))
    for h, v in ((0.7, True), (0, True), ("0", 1)):
        bad.write_text(json.dumps({"plane": "ag3.json", "h_class": h, "v_class": v,
                                   "cells": list(gp.cells)}))
        code, d = run(capsys, "triples", str(bad))
        assert (code, d["error"]["type"]) == (3, "ParseError"), (h, v)


def _door(kind, tmp_path, v):
    """argv of a command that reads a file of the given kind, and the path of
    that file, in which one integer that should be 0 is v."""
    squares = [[[(i + j) % 3 for j in range(3)] for i in range(3)],
               [[(2 * i + j) % 3 for j in range(3)] for i in range(3)]]
    f = tmp_path / f"{kind}.json"
    if kind == "plane":
        obj = json.loads(save_plane(affine_plane(field_make(3))))
        obj["lines"][0][0] = v
        argv = ("plane", "info", str(f))
    elif kind == "mols":
        squares[0][0][0] = v
        obj = {"order": 3, "squares": squares}
        argv = ("mols", "to-plane", str(f))
    elif kind == "perm":
        obj = [v, 1, 2, 3, 4]
        argv = ("triples", str(f), "--q", "5")
    elif kind == "cells":
        ap = affine_plane(field_make(3))
        (tmp_path / "ag3.json").write_bytes(save_plane(ap))
        cells = list(transversal_from_bijection(ap, 0, 1, (0, 1, 2)).cells)
        obj = {"plane": "ag3.json", "h_class": 0, "v_class": 1, "cells": [v] + cells[1:]}
        argv = ("triples", str(f))
    else:
        mf = tmp_path / "m.json"
        mf.write_text(json.dumps({"order": 3, "squares": squares}))
        obj = [v, 1, 2]
        argv = ("mols", "diag-witness", str(mf), "--relabeling", str(f))
    f.write_text(json.dumps(obj))
    return argv, f


@pytest.mark.parametrize("kind", ["plane", "mols", "perm", "cells", "relabeling"])
def test_every_input_file_rejects_bad_bytes_and_non_integers(capsys, tmp_path, kind):
    argv, _ = _door(kind, tmp_path, 0)
    assert run(capsys, *argv)[0] == 0, kind
    for bad in (b"\xff", True, 1.5):
        argv, f = _door(kind, tmp_path, 0 if isinstance(bad, bytes) else bad)
        if isinstance(bad, bytes):
            f.write_bytes(bad + f.read_bytes())
        code, d = run(capsys, *argv)
        assert (code, d["error"]["type"]) == (3, "ParseError"), (kind, bad)


def test_plane_mols_and_cells_parse_errors_name_the_file(capsys, tmp_path):
    codec = "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"
    for kind, fault in (("plane", "lines must be an array of integer arrays"),
                        ("mols", "square 0 must be an array of integer arrays")):
        argv, f = _door(kind, tmp_path, 0)
        f.write_bytes(b"\xff" + f.read_bytes())
        code, d = run(capsys, *argv)
        assert (code, d["error"]["message"]) == (3, f"{f}: not valid JSON: {codec}"), kind
        argv, f = _door(kind, tmp_path, True)
        code, d = run(capsys, *argv)
        assert (code, d["error"]["message"]) == (3, f"{f}: {fault}"), kind
    argv, f = _door("cells", tmp_path, True)
    code, d = run(capsys, *argv)
    assert (code, d["error"]["message"]) == (3, f"{f}: cells: expected a JSON array of integers")


def test_relabeling_literal_errors(capsys, tmp_path):
    # not JSON is a usage error; JSON that is no integer array is bad input
    argv, _ = _door("relabeling", tmp_path, 0)
    for literal, code, kind in (("[0,", 2, "UsageError"), ("[true, 1, 2]", 3, "ParseError"),
                                ("[0, 1.5, 2]", 3, "ParseError")):
        got = run(capsys, *argv[:3], "--relabeling", literal)
        assert (got[0], got[1]["error"]["type"]) == (code, kind), literal


def test_plane_delete_line_index_out_of_range(capsys, tmp_path):
    pf = tmp_path / "pg3.json"
    pf.write_bytes(save_plane(projective_plane(field_make(3))))
    for index in ("13", "99", "-1"):
        code, d = run(capsys, "plane", "delete-line", str(pf), index)
        assert (code, d["error"]["type"]) == (3, "NoSuchLine")
        assert d["error"]["exit_code"] == 3


def test_mols_commands_on_no_squares(capsys, tmp_path):
    mf = tmp_path / "m.json"
    mf.write_text(json.dumps({"order": 3, "squares": []}))
    for argv in (("mols", "diag-witness"), ("mols", "to-plane")):
        code, d = run(capsys, *argv, str(mf))
        assert (code, d["error"]["type"]) == (3, "IncompleteSet"), argv


def test_plane_info_unknown_fixture(capsys):
    code, d = run(capsys, "plane", "info", "no_such_plane")
    assert code == 3
    assert "bundled fixture" in d["error"]["message"]


def test_repro_command(capsys):
    code, d = run(capsys, "repro", "7")
    assert code == 0
    assert d["claim"] == 7 and d["ok"] is True
    assert run(capsys, "repro", "99")[0] == 2
    assert run(capsys, "repro", "seven")[0] == 2


def test_module_entry_point():
    # the child finds the package where this process did, even when pytest
    # put src/ on sys.path without exporting PYTHONPATH
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    out = subprocess.run([sys.executable, "-m", "collinea.cli", "psi", "field", "3"],
                         capture_output=True, text=True, timeout=120, env=env)
    assert out.returncode == 0
    assert json.loads(out.stdout)["psi"] == 1


# -- output pin ---------------------------------------------------------------
# Each command's stdout, with the timing values scrubbed, is pinned by SHA-256
# next to its exit code, so a refactor of the request path cannot move a key,
# a value or a key's position unnoticed.  Three calls check that a removed
# interface stays removed: the lexleast command and --tsv are usage errors,
# and the environment does not set the worker count.

_PINNED_CALLS = [
    ({}, ("psi", "field", "5"), 0,
     "8e3ac15ed3000c157d06bbe2a9ce7b646fb6e2fae559c496e50005d6d5554634"),
    ({}, ("psi", "field", "5", "--tsv"), 2,
     "1e30513759ee6adc7ec3f6a95b05ba5d5abce55264233383b69b62e972f76c4b"),
    ({}, ("psi", "field", "7", "--parallel-depth", "2", "--threads", "2"), 0,
     "e6f0d2d171560e05c2fa1f41f421a0f49b7096e0ff9cd266ee534186d1e00dac"),
    ({}, ("psi", "zn", "6"), 0,
     "36037069c5653ba6e062033acacbfd14b234e41b4b3096dcb7d6a1b43d943ce2"),
    ({}, ("psi", "plane", "ag_2_9"), 0,
     "96d07a7456c7f48ee0b35505156be6854c4ad02069dc31edec52ea9f183478ca"),
    ({}, ("lexleast", "9"), 2,
     "fdbddf09fec1738ecdea7ee2e3785fdc483030ca14b6db8d6dd844af970c7a68"),
    ({}, ("minimizers", "5", "--check-fractional"), 0,
     "9af1a0962a427f491f4755090161c8175ca98960a714c5ac324cf74f0fa6d5a6"),
    ({}, ("triples", "--g", "--q", "7"), 0,
     "0abeefc453d607718196598ffc053289646af7e41496fa6f3d424ef2ef8622ce"),
    ({}, ("quadruples", "--inv", "--q", "8"), 0,
     "0357836a15a7fd401e972e207fd9b1b67fcc8bce80b1c693484a39ca17659351"),
    ({}, ("psi", "field", "5", "--threads", "0"), 2,
     "bc4bc2f8f3581f54e2e6f80a99b48a1477eefe851a878453778ffb736957fdad"),
    ({"COLLINEA_THREADS": "two"}, ("psi", "field", "5"), 0,
     "8e3ac15ed3000c157d06bbe2a9ce7b646fb6e2fae559c496e50005d6d5554634"),
    ({}, ("psi", "plane", "ag_2_9", "--h", "20"), 3,
     "3ad133d7fd144ccadcf547aeedc609e9fdc9d633c5543936ef7e2191ce32ae13"),
    ({}, ("psi", "field", "7", "--node-limit", "10"), 4,
     "0eede7cdd5e9d91e7f682abe317b3e21e423b06a713af7d2341f21f598fe87a9"),
]


def _scrub_timing(text):
    return re.sub(r'("elapsed"|"wall_time"): [-+0-9.e]+', r"\1: _", text)


def test_cli_output_is_pinned(capsys, monkeypatch):
    got, want = {}, {}
    for env, argv, code, digest in _PINNED_CALLS:
        key = " ".join([f"{k}={v}" for k, v in env.items()] + list(argv))
        want[key] = (code, digest)
        with monkeypatch.context() as m:
            for k, v in env.items():
                m.setenv(k, v)
            got_code = cli.main(list(argv))
        out = _scrub_timing(capsys.readouterr().out)
        got[key] = (got_code, hashlib.sha256(out.encode()).hexdigest())
    assert got == want
    # the outcome keys of a search command, in order, around its own "q" and
    # "witness" and the manifest
    code, d = run(capsys, "psi", "field", "5")
    assert code == 0
    assert list(d) == ["q", "psi", "witness", "witnesses", "nodes_expanded", "prunes",
                       "elapsed", "config", "manifest"]
    assert d["witnesses"] == [[0, 1, 2, 4, 3]]
    assert d["config"]["mode"] == "min_value"
