"""End-to-end tests for the command line front end.

Every test drives codedcache.cli.main() in process and checks exit codes,
stdout/stderr text, and the files the commands leave behind.
"""

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from codedcache import caching, cli, design, schemefile


def run_child(argv, cwd, stdout=subprocess.PIPE):
    """Invoke the CLI in a child process that is killed after 60 s, so a
    command that never ends fails its test instead of stalling the suite."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "codedcache"]
                          + [str(a) for a in argv], cwd=cwd, env=env,
                          stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=60)


def run_closed_stdout(argv, cwd):
    """run_child with stdout a pipe whose read end is already closed."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return run_child(argv, cwd, stdout=write_end)
    finally:
        os.close(write_end)


def run(argv):
    """Invoke the CLI in process, returning (exit_code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main([str(a) for a in argv])
        except SystemExit as exc:
            # argparse reports usage errors by raising SystemExit(2)
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def write_ex3(path):
    """Handwritten scheme file for the (4, 2) code over GF(3)."""
    doc = {
        "format": "codedcache-scheme",
        "version": 1,
        "domain": {"kind": "field", "q": 3, "p": 3, "m": 1},
        "source": {"type": "generator", "rows": [[1, 0, 1, 1], [0, 1, 1, 2]]},
        "provenance": {"kind": "user"},
    }
    path.write_text(json.dumps(doc))


# ---------------------------------------------------------------------------
# construct
# ---------------------------------------------------------------------------


def test_construct_spc_writes_file_and_summary(tmp_path):
    out_file = tmp_path / "spc15.json"
    code, out, err = run(["construct", "spc", "--k", 15, "--q", 4,
                          "--out", out_file])
    assert code == 0
    assert out_file.exists()
    assert "scheme: n=16, q=4, spc; K=64 users, alpha=16" in out
    assert "ccp: alpha=16 satisfied via exhaustive" in out
    assert "base: M/N=1/4 F_s=1073741824 R=3 gain=16" in out
    assert f"wrote {out_file}" in out


def test_construct_mds_without_rows_names_the_true_n():
    assert run(["construct", "mds", "--n", 3, "--k", 0, "--q", 4]) == (
        1, "", "error: need 1 <= k < n, got k=0, n=3\n")


def test_construct_cyclic_example_code(tmp_path):
    out_file = tmp_path / "c84.json"
    code, out, _ = run(["construct", "cyclic", "--n", 8, "--q", 3,
                        "--g", "2,1,0,1,1", "--out", out_file])
    assert code == 0
    # cyclic codes take the single-window shortcut
    assert "satisfied via cyclic-shortcut" in out


def test_construct_cyclic_failing_the_shortcut_exits_three(tmp_path):
    """The file is still written; its delivery then fails, which main
    reports as DecodeFailure with exit 3, as text or as --json."""
    c7 = tmp_path / "c7.json"
    code, out, _ = run(["construct", "cyclic", "--n", 7, "--g", "1,1,0,1",
                        "--q", 2, "--out", c7])
    assert code == 3
    assert "ccp: alpha=5 NOT satisfied via cyclic-shortcut" in out.splitlines()
    message = "unequal served-point counts within a tuple"
    assert run(["simulate", c7, "--files", 2]) == (3, "", f"error: {message}\n")
    code, out, err = run(["--json", "simulate", c7, "--files", 2])
    assert (code, err) == (3, "")
    assert json.loads(out) == {"error": {"type": "DecodeFailure", "message": message}}


@pytest.mark.parametrize("modulus", ["1,0,1,1", "1,1,0,1"])
def test_construct_mds_keeps_its_modulus(tmp_path, modulus):
    """GF(8)'s default modulus and another irreducible cubic."""
    m5 = tmp_path / "m5.json"
    assert run(["construct", "mds", "--n", 5, "--k", 2, "--q", 8,
                "--modulus", modulus, "--out", m5])[0] == 0
    assert json.loads(m5.read_text())["domain"] == {
        "kind": "field", "q": 8, "p": 2, "m": 3,
        "modulus": [int(c) for c in modulus.split(",")]}
    code, out, _ = run(["verify", m5])
    assert code == 0
    assert out.splitlines()[-1] == "satisfied"


def test_construct_mds_field_too_small_is_domain_error(tmp_path):
    code, _, err = run(["construct", "mds", "--n", 3, "--k", 2, "--q", 2,
                        "--out", tmp_path / "bad.json"])
    assert code == 1
    assert "error:" in err
    assert not (tmp_path / "bad.json").exists()


def test_json_error_payload(tmp_path):
    code, out, _ = run(["--json", "construct", "mds", "--n", 3, "--k", 2,
                        "--q", 2, "--out", tmp_path / "bad.json"])
    assert code == 1
    doc = json.loads(out)
    assert doc["error"]["type"] == "FieldTooSmall"
    assert doc["error"]["message"]


def test_construct_spc_rejects_nonpositive_k():
    for k in (0, -2):
        code, out, err = run(["construct", "spc", "--k", k, "--q", 3])
        assert code == 1
        assert out == ""
        assert err == f"error: k must be >= 1, got {k}\n"
        code, out, _ = run(["--json", "construct", "spc", "--k", k, "--q", 3])
        assert code == 1
        assert json.loads(out)["error"] == {"type": "ShapeMismatch",
                                            "message": f"k must be >= 1, got {k}"}


def test_construct_stdout_json_is_deterministic(tmp_path):
    code1, out1, err1 = run(["construct", "spc", "--k", 2, "--q", 3])
    code2, out2, _ = run(["construct", "spc", "--k", 2, "--q", 3])
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["format"] == "codedcache-scheme"
    assert doc["version"] == 1
    assert doc["certificate"]["satisfied"] is True
    # summary moves to stderr when the scheme document takes stdout
    assert "base: M/N=" in err1


def test_construct_digest_flag_embeds_sha256(tmp_path):
    code, out, _ = run(["construct", "spc", "--k", 2, "--q", 3, "--digest"])
    assert code == 0
    doc = json.loads(out)
    assert doc["digests"]["codeword_matrix"].startswith("sha256:")


def test_construct_kron_and_extend_from_base_files(tmp_path):
    base = tmp_path / "spc2.json"
    assert run(["construct", "spc", "--k", 2, "--q", 3, "--out", base])[0] == 0

    ext_file = tmp_path / "ext2.json"
    code, out, _ = run(["construct", "extend", "--base", base, "--s", 1,
                        "--out", ext_file])
    assert code == 0
    assert "scheme: n=6, q=3, extended; K=18 users, alpha=3" in out
    assert run(["verify", ext_file])[0] == 0

    kron_file = tmp_path / "kron2.json"
    code, out, _ = run(["construct", "kron", "--base", base, "--t", 2,
                        "--out", kron_file])
    assert code == 0
    # Kronecker lifts certify at alpha = k, not k + 1
    assert "K=18 users, alpha=4" in out
    assert run(["verify", kron_file])[0] == 0

    crt = tmp_path / "crt.json"
    assert run(["construct", "crt", "--n", 4, "--component", "2:1,1",
                "--component", "3:1,1", "--out", crt])[0] == 0
    text = f"{crt} holds a residue source; this operation needs a generator matrix"
    for argv in (["kron", "--base", crt, "--t", 2], ["extend", "--base", crt, "--s", 1]):
        assert run(["construct"] + argv) == (1, "", f"error: {text}\n")
        assert run(["--json", "construct"] + argv) == (
            1, json.dumps({"error": {"type": "DomainError", "message": text}}) + "\n", "")


def test_list_flags_refuse_non_integers_as_usage_errors():
    for argv, text in (
            (["cyclic", "--n", 3, "--q", 2, "--g", "1,x"],
             "codedcache construct cyclic: error: argument --g: not a "
             "comma-separated integer list: '1,x'"),
            (["crt", "--n", 4, "--component", "x:1"],
             "codedcache construct crt: error: argument --component: component "
             "must be q:c0,c1,... got 'x:1'")):
        code, out, err = run(["construct"] + argv)
        assert (code, out, err.splitlines()[-1]) == (2, "", text)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_mds_at_reduced_alpha(tmp_path):
    scheme = tmp_path / "mds42.json"
    assert run(["construct", "mds", "--n", 4, "--k", 2, "--q", 5,
                "--out", scheme])[0] == 0
    code, out, _ = run(["verify", scheme, "--alpha", 3])
    assert code == 0
    assert "satisfied" in out
    assert "alpha=3 z=3 method=exhaustive" in out


def test_verify_cyclic_both_methods(tmp_path):
    scheme = tmp_path / "c84.json"
    assert run(["construct", "cyclic", "--n", 8, "--q", 3,
                "--g", "2,1,0,1,1", "--out", scheme])[0] == 0
    assert run(["verify", scheme, "--alpha", 4])[0] == 0
    code, out, _ = run(["verify", scheme, "--method", "cyclic"])
    assert code == 0
    assert "method=cyclic-shortcut" in out


def test_verify_cyclic_shortcut_refuses_any_alpha_but_k_plus_1(tmp_path):
    scheme = tmp_path / "c84.json"
    assert run(["construct", "cyclic", "--n", 8, "--q", 3,
                "--g", "2,1,0,1,1", "--out", scheme])[0] == 0
    plain = run(["verify", scheme, "--method", "cyclic"])
    assert plain[0] == 0
    assert run(["verify", scheme, "--method", "cyclic", "--alpha", 5]) == plain
    for alpha in (0, 3, 4, 6):
        text = f"the cyclic shortcut checks alpha = k+1 = 5 only, got {alpha}"
        assert run(["verify", scheme, "--method", "cyclic",
                    "--alpha", alpha]) == (1, "", f"error: {text}\n")
        code, out, err = run(["--json", "verify", scheme, "--method", "cyclic",
                              "--alpha", alpha])
        assert (code, err) == (1, "")
        assert json.loads(out) == {"error": {"type": "InvalidAlpha", "message": text}}


def test_verify_cyclic_shortcut_certifies_the_stored_rows(tmp_path):
    """The shortcut decides the code of the provenance's gen_poly, so a file
    whose rows are not that code, or whose gen_poly builds none, is refused
    with NotCyclic and exit 1 instead of judged or crashed on."""
    scheme = tmp_path / "c84.json"
    write_c84(scheme)
    doc = json.loads(scheme.read_text())
    edits = {}
    rows = [list(row) for row in doc["source"]["rows"]]
    rows[1] = rows[0]
    edits["rows"] = (dict(doc, source=dict(doc["source"], rows=rows)),
                     "the stored rows are not the cyclic code of gen_poly "
                     "[2, 1, 0, 1, 1]")
    bare = {k: v for k, v in doc["provenance"].items() if k != "gen_poly"}
    edits["missing"] = (dict(doc, provenance=bare),
                        "gen_poly None builds no cyclic code of length 8")
    edits["text"] = (dict(doc, provenance=dict(bare, gen_poly="abc")),
                     "gen_poly 'abc' builds no cyclic code of length 8")
    # build_cyclic would read 2.5 as 2 and true as 1 and certify [2, 1, 0, 1, 1]
    for name, c0 in (("float", 2.5), ("true", True)):
        edits[name] = (dict(doc, provenance=dict(bare, gen_poly=[c0, 1, 0, 1, 1])),
                       f"gen_poly [{c0!r}, 1, 0, 1, 1] builds no cyclic code of length 8")
    for name, (edited, text) in edits.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(edited))
        argv = ["verify", path, "--method", "cyclic"]
        assert run(argv) == (1, "", f"error: {text}\n"), name
        code, out, err = run(["--json"] + argv)
        assert (code, err) == (1, ""), name
        assert json.loads(out) == {"error": {"type": "NotCyclic", "message": text}}
    code, out, _ = run(["verify", tmp_path / "rows.json"])
    assert code == 3 and out.splitlines()[-1] == "not satisfied"


def test_verify_handwritten_scheme_file(tmp_path):
    scheme = tmp_path / "ex3.json"
    write_ex3(scheme)
    code, out, _ = run(["verify", scheme, "--alpha", 3])
    assert code == 0
    assert "satisfied" in out


def write_repeated_columns(path):
    """Scheme file whose columns 0 and 2 repeat, so a width-3 window cannot
    stay full rank."""
    doc = {
        "format": "codedcache-scheme",
        "version": 1,
        "domain": {"kind": "field", "q": 3, "p": 3, "m": 1},
        "source": {"type": "generator", "rows": [[1, 0, 1, 0], [0, 1, 0, 1]]},
        "provenance": {"kind": "user"},
    }
    path.write_text(json.dumps(doc))


def test_loader_refuses_malformed_provenance_and_non_integer_numbers(tmp_path):
    """A provenance that is not an object, and a number in the domain or
    source that is not a JSON integer, are refused with SchemeFileError and
    exit 1: int() would truncate 1.9 and read "2" and true, so verify would
    certify and construct extend would write rows the file does not hold."""
    base = tmp_path / "s.json"
    assert run(["construct", "spc", "--k", 3, "--q", 3, "--out", base])[0] == 0
    doc = json.loads(base.read_text())
    ex3 = tmp_path / "ex3.json"
    write_ex3(ex3)
    hand = json.loads(ex3.read_text())
    gf9 = {**hand, "domain": {"kind": "field", "q": 9, "p": 3, "m": 2, "modulus": [2, 2, 1]},
           "source": {"type": "generator", "rows": [[1, 0, 1], [0, 1, 1]]}}
    cases = {
        "int": (dict(doc, provenance=5), "provenance must be an object, got int"),
        "list": (dict(doc, provenance=[1]), "provenance must be an object, got list"),
        "row-float": (dict(hand, source={"type": "generator",
                                         "rows": [[1.9, 0, 1, 1], [0, 1, 1, "2"]]}),
                      "rows holds 1.9, not a JSON integer"),
        "row-text": (dict(hand, source={"type": "generator",
                                        "rows": [[1, 0, 1, 1], [0, 1, 1, "2"]]}),
                     'rows holds "2", not a JSON integer'),
        "modulus": (dict(gf9, domain=dict(gf9["domain"], modulus=[2.7, 2, 1])),
                    "domain modulus holds 2.7, not a JSON integer"),
    }
    assert run(["verify", _dump(tmp_path / "gf9.json", gf9)])[0] == 0
    for name, (edited, text) in cases.items():
        path = _dump(tmp_path / f"{name}.json", edited)
        for argv in (["verify", path], ["construct", "extend", "--base", path, "--s", 0]):
            assert run(argv) == (1, "", f"error: {text}\n"), name
            assert run(["--json"] + argv) == (1, json.dumps(
                {"error": {"type": "SchemeFileError", "message": text}}) + "\n", ""), name


def _dump(path, doc):
    path.write_text(json.dumps(doc))
    return path


def test_verify_failure_exits_three(tmp_path):
    scheme = tmp_path / "rep.json"
    write_repeated_columns(scheme)
    code, out, _ = run(["verify", scheme, "--alpha", 3])
    assert code == 3
    assert "not satisfied" in out
    assert "FAIL" in out


def test_python_dash_m_exits_with_the_cli_status(tmp_path):
    """`python -m codedcache` runs from the source tree alone."""
    write_ex3(tmp_path / "ex3.json")
    write_repeated_columns(tmp_path / "rep.json")
    assert run_child(["verify", "ex3.json"], tmp_path).returncode == 0
    assert run_child(["verify", "rep.json"], tmp_path).returncode == 3


def test_a_closed_stdout_exits_141_without_a_traceback(tmp_path):
    """`verify crt.json | head -2` once ended in a BrokenPipeError
    traceback; a pipe with no reader left now exits 141, quietly."""
    assert run(["construct", "crt", "--n", 4, "--component", "2:1,1",
                "--component", "3:1,1", "--out", tmp_path / "crt.json"])[0] == 0
    proc = run_closed_stdout(["verify", "crt.json"], tmp_path)
    assert (proc.returncode, proc.stderr) == (141, "")


@pytest.mark.parametrize("argv", [["--help"], ["construct", "-h"],
                                  ["construct", "spc", "--help"], ["verify", "-h"]])
def test_help_on_a_closed_stdout_exits_141_without_a_traceback(tmp_path, argv):
    """argparse once dropped the write error and exited 0."""
    proc = run_closed_stdout(argv, tmp_path)
    assert (proc.returncode, proc.stderr) == (141, "")


def test_verify_a_ring_window_onto_mod_each_prime_exits_zero(tmp_path):
    """Column (2, 3) over Z mod 6 has no unit entry, yet it is nonzero mod 2
    and mod 3, so it maps Z_6^2 onto Z_6: verify --alpha 1 certifies (it
    once exited 3), as simulate --alpha 1 delivers, base and transposed."""
    path = _dump(tmp_path / "z6.json", {
        "format": "codedcache-scheme", "version": 1,
        "domain": {"kind": "ring", "q": 6, "p": 6, "m": 1},
        "source": {"type": "generator", "rows": [[2, 1, 1], [3, 0, 1]]},
        "provenance": {"kind": "user"}})
    assert run(["verify", path, "--alpha", 1]) == (0, (
        "alpha=1 z=1 method=exhaustive\n"
        "  window 0 cols=[0]: ok\n  window 1 cols=[1]: ok\n  window 2 cols=[2]: ok\n"
        "satisfied\n"), "")
    for flags in ([], ["--transpose"]):
        code, out, _ = run(["simulate", path, "--alpha", 1, "--files", 2] + flags)
        assert code == 0
        assert json.loads(out)["all_ok"] is True


def test_verify_names_the_prime_a_ring_window_fails_over(tmp_path):
    """Over Z mod 6 the rows (2, 3), (1, 0), (1, 1) reduce to full rank mod
    2 but not mod 3 on columns 0 and 1, so that window's rank fails at
    alpha 2, and so does dropping column 2 at alpha 3, over GF(3) alone."""
    path = _dump(tmp_path / "z6.json", {
        "format": "codedcache-scheme", "version": 1,
        "domain": {"kind": "ring", "q": 6, "p": 6, "m": 1},
        "source": {"type": "generator", "rows": [[2, 1, 1], [3, 0, 1]]},
        "provenance": {"kind": "user"}})
    assert run(["verify", path, "--alpha", 2]) == (3, (
        "alpha=2 z=2 method=exhaustive\n"
        "  window 0 cols=[0, 1]: FAIL\n    failed: column rank == 2 over GF(3)\n"
        "  window 1 cols=[2, 0]: ok\n  window 2 cols=[1, 2]: ok\n"
        "not satisfied\n"), "")
    assert run(["verify", path, "--alpha", 3]) == (3, (
        "alpha=3 z=1 method=exhaustive\n"
        "  window 0 cols=[0, 1, 2]: FAIL\n    failed: drop column 2 over GF(3)\n"
        "not satisfied\n"), "")


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_handwritten_example(tmp_path):
    scheme = tmp_path / "ex3.json"
    write_ex3(scheme)
    code, out, _ = run(["simulate", scheme, "--files", 12, "--bytes", 8,
                        "--seed", 42])
    assert code == 0
    doc = json.loads(out)
    assert doc["format"] == "codedcache-simulation"
    assert doc["num_users"] == 12
    assert doc["F_s"] == 27
    assert doc["rate"] == "8/3"
    assert doc["all_ok"] is True
    assert all(u["complete"] and u["exact"] for u in doc["users"])


def test_simulate_demand_forms(tmp_path):
    scheme = tmp_path / "ex3.json"
    write_ex3(scheme)
    code, out, _ = run(["simulate", scheme, "--files", 1,
                        "--demands", "all-same:0"])
    assert code == 0
    assert json.loads(out)["demands"] == [0] * 12

    explicit = "0,1,2,3,4,5,6,7,8,9,10,11"
    code, out, _ = run(["simulate", scheme, "--files", 12,
                        "--demands", explicit])
    assert code == 0
    assert json.loads(out)["demands"] == list(range(12))


def test_uniform_random_demands_follow_the_reference_lcg():
    """User u demands the state after u + 1 steps of the 64-bit generator
    started at seed + 1, modulo the file count; a negative seed and one
    past 2^64 are taken modulo 2^64."""
    mult, inc, mask = 6364136223846793005, 1442695040888963407, (1 << 64) - 1
    for num_users in (1, 20, 300):
        for seed in (0, 7, -5, 2 ** 64 + 3):
            state, want = seed + 1, []
            for _ in range(num_users):
                state = (state * mult + inc) & mask
                want.append(state % 27)
            got = cli._parse_demands("uniform-random", num_users, 27, seed)
            assert got == want, (num_users, seed)


def test_simulate_short_demand_list_is_domain_error(tmp_path):
    scheme = tmp_path / "ex3.json"
    write_ex3(scheme)
    code, _, err = run(["simulate", scheme, "--files", 2, "--demands", "0,1"])
    assert code == 1
    assert "error:" in err


def test_simulate_bad_demand_spec(tmp_path):
    scheme = tmp_path / "ex3.json"
    write_ex3(scheme)
    assert run(["simulate", scheme, "--files", 2,
                "--demands", "1,2,x"])[0] == 1
    assert run(["simulate", scheme, "--files", 2,
                "--demands", "all-same:x"])[0] == 1


def test_simulate_rejects_zero_files(tmp_path):
    scheme = tmp_path / "ex3.json"
    write_ex3(scheme)
    code, out, err = run(["simulate", scheme, "--files", 0])
    assert code == 1
    assert out == ""
    assert err == "error: need at least one file, got 0\n"
    code, out, _ = run(["--json", "simulate", scheme, "--files", 0])
    assert code == 1
    assert json.loads(out)["error"]["type"] == "IncompleteDemands"


def test_simulate_rejects_nonpositive_bytes(tmp_path):
    scheme = tmp_path / "ex3.json"
    write_ex3(scheme)
    for size in (0, -1):
        code, out, err = run(["simulate", scheme, "--files", 2,
                              "--bytes", size])
        assert code == 1
        assert out == ""
        assert err == f"error: subfile_bytes must be >= 1, got {size}\n"
        code, out, _ = run(["--json", "simulate", scheme, "--files", 2,
                            "--bytes", size, "--transpose"])
        assert code == 1
        assert json.loads(out)["error"]["type"] == "ShapeMismatch"


def test_simulate_refuses_oversize_before_enumerating(tmp_path, monkeypatch):
    def enumerate_all(source):
        raise AssertionError("codeword_matrix called despite the cap")

    spc15, spc10 = tmp_path / "spc15.json", tmp_path / "spc10.json"
    assert run(["construct", "spc", "--k", 15, "--q", 4, "--skip-certify",
                "--out", spc15])[0] == 0
    assert run(["construct", "spc", "--k", 10, "--q", 4, "--skip-certify",
                "--out", spc10])[0] == 0
    monkeypatch.setattr(cli.design, "codeword_matrix", enumerate_all)

    code, _, err = run(["simulate", spc15, "--files", 4])
    assert code == 1
    assert "1073741824 codewords exceed the size cap 1048576" in err
    code, out, _ = run(["--json", "simulate", spc15, "--files", 4,
                        "--transpose"])
    assert code == 1
    assert json.loads(out)["error"]["type"] == "TooLarge"
    # 4^10 codewords sit at the cap; Delta = 3 * 4^10 equations exceed it
    code, _, err = run(["simulate", spc10, "--files", 4])
    assert code == 1
    assert "3145728 equations exceed the size cap 1048576" in err


def test_simulate_refuses_too_many_terms_before_enumerating(tmp_path,
                                                           monkeypatch):
    def enumerate_all(source):
        raise AssertionError("codeword_matrix called despite the term cap")

    spc19 = tmp_path / "spc19.json"
    assert run(["construct", "spc", "--k", 19, "--q", 2, "--skip-certify",
                "--out", spc19])[0] == 0
    monkeypatch.setattr(cli.design, "codeword_matrix", enumerate_all)
    # 2^19 codewords and 2^19 equations pass the size cap; their 20 terms
    # each do not pass the term cap
    for extra in ([], ["--transpose"]):
        code, out, err = run(["simulate", spc19, "--files", 2, "--alpha", 20]
                             + extra)
        assert code == 1
        assert out == ""
        assert err == ("error: 10485760 equation terms exceed the term cap "
                       "2097152\n")
    code, out, _ = run(["--json", "simulate", spc19, "--files", 2])
    assert code == 1
    assert json.loads(out)["error"]["type"] == "TooLarge"


def test_simulate_rejects_alpha_zero(tmp_path):
    scheme = tmp_path / "ex3.json"
    write_ex3(scheme)
    code, out, _ = run(["--json", "simulate", scheme, "--files", 2,
                        "--alpha", 0])
    assert code == 1
    assert json.loads(out)["error"]["type"] == "InvalidAlpha"


def write_c84(path):
    """README's (8, 4) cyclic code over GF(3); k + 1 = 5."""
    assert run(["construct", "cyclic", "--n", 8, "--q", 3, "--g", "2,1,0,1,1",
                "--out", path])[0] == 0


def test_simulate_rejects_out_of_range_alpha(tmp_path):
    scheme = tmp_path / "c84.json"
    write_c84(scheme)
    for alpha in (-3, 6):
        code, out, err = run(["simulate", scheme, "--files", 2,
                              "--alpha", alpha])
        assert code == 1
        assert out == ""
        assert err == f"error: alpha must be in 1..5, got {alpha}\n"


def test_simulate_checks_alpha_before_the_size_cap(tmp_path, monkeypatch):
    def enumerate_all(source):
        raise AssertionError("codeword_matrix called for a refused alpha")

    spc15 = tmp_path / "spc15.json"
    assert run(["construct", "spc", "--k", 15, "--q", 4, "--skip-certify",
                "--out", spc15])[0] == 0
    monkeypatch.setattr(cli.design, "codeword_matrix", enumerate_all)
    for alpha in (0, 17):
        code, out, _ = run(["--json", "simulate", spc15, "--files", 4,
                            "--alpha", alpha])
        assert code == 1
        assert json.loads(out)["error"] == {
            "type": "InvalidAlpha",
            "message": f"alpha must be in 1..16, got {alpha}"}


def test_simulate_reports_payloads_above_the_old_cap(tmp_path):
    """Payload streams (files x F_s x bytes) far above the 2^26 bytes that
    simulate once refused exit 0 with the closed-form report: no payload
    byte is built, so only load_bytes grows."""
    scheme = tmp_path / "c84.json"
    write_c84(scheme)
    # base: F_s = 81 * 5 = 405 subfiles and Delta = 1296 equations;
    # transposed, the two swap; either way each of the 24 users lacks 270
    for files, size, extra, f_s, delta in ((10 ** 9, 16, [], 405, 1296),
                                           (2, 10 ** 8, [], 405, 1296),
                                           (10 ** 9, 10 ** 8, ["--transpose"], 1296, 405)):
        code, out, err = run(["simulate", scheme, "--demands", "all-same:0",
                              "--files", files, "--bytes", size] + extra)
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert (report["num_files"], report["subfile_bytes"]) == (files, size)
        assert (report["F_s"], report["delta"]) == (f_s, delta)
        assert report["load_bytes"] == delta * size
        assert report["all_ok"] is True
        assert report["users"] == [{"user": u, "demanded": 0, "recovered": 270,
                                    "complete": True, "exact": True}
                                   for u in range(24)]


def test_simulate_all_same_demand_generates_only_that_file(tmp_path):
    scheme = tmp_path / "c84.json"
    write_c84(scheme)
    # 16-byte subfiles; F_s is 405 for the base scheme, 1296 transposed
    for f in (0, 7):
        for extra, f_s in (([], 405), (["--transpose"], 1296)):
            code, out, _ = run(["simulate", scheme, "--files", 9, "--seed", 3,
                                "--demands", f"all-same:{f}"] + extra)
            assert code == 0
            report = json.loads(out)
            assert report["F_s"] == f_s and report["all_ok"] is True


def test_simulate_transpose_swaps_rate_and_subpacketization(tmp_path):
    scheme = tmp_path / "c95.json"
    assert run(["construct", "claim6", "--t", 3, "--z", 2, "--q", 2,
                "--out", scheme])[0] == 0

    code, out, _ = run(["simulate", scheme, "--files", 6, "--seed", 1])
    assert code == 0
    base = json.loads(out)
    assert base["rate"] == "3/2"
    assert base["F_s"] == 64
    assert base["all_ok"] is True

    code, out, _ = run(["simulate", scheme, "--files", 6, "--seed", 1,
                        "--transpose"])
    assert code == 0
    flipped = json.loads(out)
    assert flipped["transposed"] is True
    assert flipped["rate"] == "2/3"
    assert flipped["F_s"] == 96
    assert flipped["all_ok"] is True


def test_simulate_alpha_1_finishes(tmp_path):
    """With one class per recovery set every user is served its missing
    subfiles uncoded; alpha = 1 once looped forever in delivery."""
    scheme = tmp_path / "spc3.json"
    assert run(["construct", "spc", "--k", 3, "--q", 3, "--out", scheme])[0] == 0
    d = design.resolvable_design(design.codeword_matrix(
        schemefile.load_scheme(scheme)[0]))
    expected = caching.expected_delta(caching.placement(d, 1))
    proc = run_child(["simulate", scheme, "--files", 3, "--alpha", 1], tmp_path)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["delta"] == expected == 216
    assert report["all_ok"] is True


def test_simulate_residue_source_with_k_min_1_finishes(tmp_path):
    """A residue source whose smallest component dimension is 1 simulates at
    its default alpha = 1."""
    scheme = tmp_path / "crt.json"
    assert run(["construct", "crt", "--n", 3, "--component", "2:1,1",
                "--component", "3:1,1,1", "--out", scheme])[0] == 0
    source = schemefile.load_scheme(scheme)[0]
    assert source.k_min == 1
    d = design.resolvable_design(design.codeword_matrix(source))
    expected = caching.expected_delta(caching.placement(d, 1))
    proc = run_child(["simulate", scheme, "--files", 3], tmp_path)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert (report["delta"], report["F_s"]) == (expected, 12) == (180, 12)
    assert report["all_ok"] is True


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------


def test_search_table_budget_and_outputs(tmp_path):
    csv_path = tmp_path / "tab.csv"
    json_path = tmp_path / "tab.json"
    code, out, _ = run(["search", "--n", 12, "--q", 5,
                        "--budget", 1500000,
                        "--csv", csv_path, "--json-out", json_path])
    assert code == 0
    assert "k_max=8 F_s=1171875 g_max=9 (budget 1500000)" in out
    k8_rows = [ln for ln in out.splitlines() if ln.startswith("  8 ")]
    assert len(k8_rows) == 1
    assert "<-- k_max for budget" in k8_rows[0]

    lines = csv_path.read_text().splitlines()
    assert lines[0] == "k,n_prime,z,alpha_cols,found,construction"
    assert len(lines) == 12
    assert sum(1 for ln in lines if ",True," in ln) == 10

    doc = json.loads(json_path.read_text())
    assert doc["format"] == "codedcache-search"
    assert doc["budget_result"]["k_max"] == 8
    assert len(doc["entries"]) == 11
    for entry in doc["entries"]:
        assert entry["found"] == bool(entry["route"])


def test_search_labels_mds_and_claim5_steps():
    code, out, _ = run(["search", "--n", 10, "--q", 7, "--cyclic-limit", 10000])
    assert code == 0
    rows = {ln[:3]: ln for ln in out.splitlines()}
    assert rows["  2"].endswith(" True  mds(n=4,k=2)+extend(s=2)")
    assert rows["  5"].endswith(" True  block-vandermonde(t=2,z=3,a=5)")
    assert rows["  6"].endswith(" False  -")


def test_search_ring_reports_field_only_steps():
    code, out, _ = run(["search", "--n", 6, "--q", 6])
    assert code == 0
    assert "requires a field" in out


def test_search_negative_cyclic_limit_is_domain_error():
    code, out, err = run(["search", "--n", 12, "--q", 5, "--cyclic-limit", -1])
    assert code == 1
    assert out == ""
    assert "error:" in err and "limit" in err


def test_search_budget_too_small_is_domain_error():
    code, _, err = run(["search", "--n", 6, "--q", 3, "--budget", 1])
    assert code == 1
    assert "error:" in err


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


def test_compare_against_single_cache_point_baseline(tmp_path):
    scheme, csv_path, json_path = (tmp_path / name for name in (
        "spc15.json", "tab.csv", "tab.json"))
    assert run(["construct", "spc", "--k", 15, "--q", 4,
                "--out", scheme])[0] == 0
    code, out, _ = run(["compare", scheme, "--mn", "--csv", csv_path,
                        "--json-out", json_path])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "scheme_id,K,M_over_N,R,F_s,gain"
    assert "spc15,64,1/4,3,1073741824,16" in lines
    assert any(ln.startswith("mn(K=64") for ln in lines)
    # the files hold the printed table
    assert csv_path.read_text() == out
    doc = json.loads(json_path.read_text())
    assert (doc["format"], doc["version"]) == ("codedcache-comparison", 1)
    assert [",".join(map(str, row.values())) for row in doc["rows"]] == lines[1:]


def test_compare_memory_sharing_bound(tmp_path):
    scheme = tmp_path / "c95.json"
    assert run(["construct", "claim6", "--t", 3, "--z", 2, "--q", 2,
                "--out", scheme])[0] == 0
    code, out, _ = run(["compare", scheme, "--memory-sharing"])
    assert code == 0
    assert "mn-sharing" in out
    assert "8568" in out


def test_compare_rejects_out_of_range_alpha(tmp_path):
    scheme = tmp_path / "c84.json"
    write_c84(scheme)
    for alpha in (0, -3, 6):
        code, out, err = run(["compare", scheme, "--alpha", alpha])
        assert code == 1
        assert out == ""
        assert err == f"error: alpha must be in 1..5, got {alpha}\n"
        code, out, _ = run(["--json", "compare", scheme, "--alpha", alpha])
        assert code == 1
        assert json.loads(out)["error"] == {
            "type": "InvalidAlpha",
            "message": f"alpha must be in 1..5, got {alpha}"}


def test_compare_rejects_alpha_above_k_min_of_a_residue_source(tmp_path):
    crt, c84 = tmp_path / "crt.json", tmp_path / "c84.json"
    assert run(["construct", "crt", "--n", 4, "--component", "2:1,1",
                "--component", "3:1,1", "--out", crt])[0] == 0
    write_c84(c84)
    code, out, _ = run(["compare", c84, crt, "--alpha", 3])
    assert code == 0
    assert out.splitlines()[0] == "scheme_id,K,M_over_N,R,F_s,gain"
    code, out, err = run(["compare", c84, crt, "--alpha", 4])
    assert code == 1
    assert out == ""
    assert err == "error: residue sources support alpha in 1..3, got 4\n"


def test_verify_refuses_alpha_above_k_min_of_a_residue_source(tmp_path):
    """verify checks a residue source's alpha as simulate and compare do,
    before it checks any component."""
    crt = tmp_path / "crt.json"
    assert run(["construct", "crt", "--n", 4, "--component", "2:1,1",
                "--component", "3:1,1", "--out", crt])[0] == 0
    assert run(["verify", crt, "--alpha", 3])[0] == 0
    text = "residue sources support alpha in 1..3, got 4"
    assert run(["verify", crt, "--alpha", 4]) == (1, "", f"error: {text}\n")
    for argv in (["simulate", crt, "--files", 2, "--alpha", 4],
                 ["compare", crt, "--alpha", 4], ["verify", crt, "--alpha", 4]):
        code, out, _ = run(["--json"] + argv)
        assert code == 1
        assert json.loads(out) == {"error": {"type": "InvalidAlpha", "message": text}}


def test_verify_help_names_every_default_alpha(tmp_path):
    """k+1 for a generator matrix, k for a Kronecker lift (spc(3)/GF(3)
    lifted by t = 2 has k = 6) and k_min for a residue source."""
    code, out, _ = run(["verify", "--help"])
    assert code == 0
    assert ("window width (default: k+1; k for a Kronecker lift, k_min for a "
            "residue source)") in " ".join(out.split())
    spc3, kron = tmp_path / "spc3.json", tmp_path / "kron.json"
    assert run(["construct", "spc", "--k", 3, "--q", 3, "--out", spc3])[0] == 0
    assert run(["construct", "kron", "--base", spc3, "--t", 2, "--out", kron])[0] == 0
    code, out, _ = run(["verify", kron])
    assert code == 0
    assert out.splitlines()[0].startswith("alpha=6 ")


def test_compare_without_files_is_usage_error():
    assert run(["compare"])[0] == 2


def test_no_subcommand_prints_help():
    code, _, err = run([])
    assert code == 2
    assert "usage" in err.lower()


BUILDERS = ("mds", "cyclic", "spc", "claim5", "claim6", "claim9", "kron",
            "extend", "crt")


def test_every_builder_describes_its_output_flags(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    for builder in BUILDERS:
        code, out, _ = run(["construct", builder, "--help"])
        assert code == 0
        text = " ".join(out.split())
        for line in ("--out OUT scheme file to write (default: JSON to stdout)",
                     "--skip-certify skip the consecutive-column-property check",
                     "--digest embed a sha256 digest of the codeword matrix"):
            assert line in text, builder


def test_shared_parser_leaks_nothing_between_calls(tmp_path, monkeypatch):
    """main reuses one parser per process and fills each command and each
    builder on first choice.  Calls that could leave state in it (an append
    action, usage errors, --json, help at two widths, the first fill of
    simulate, verify and compare after search has run on a fresh tree, and
    of construct and of each builder after search and simulate have) print
    exactly what the same argv prints in a fresh process."""
    cli._build_parser.cache_clear()
    assert cli._build_parser() is cli._build_parser()
    write_ex3(tmp_path / "ex3.json")
    steps = [("80", ["search", "--n", "4", "--q", "2"]),
             ("60", ["simulate", "--help"]),
             ("80", ["simulate", "ex3.json", "--files", "2"])]
    steps += [(columns, argv) for columns in ("60", "120")
              for argv in [["construct", "--help"]]
              + [["construct", b, "--help"] for b in BUILDERS]
              + [["construct", b, "--bogus"] for b in BUILDERS]]
    crt = ["construct", "crt", "--n", "4",
           "--component", "2:1,1", "--component", "3:1,1"]
    usage = ["construct", "spc", "--q", "3"]
    domain = ["construct", "mds", "--n", "5", "--k", "2", "--q", "3"]
    steps += [("80", argv) for argv in (crt, crt, usage, usage,
                                        ["--json"] + domain, domain)]
    steps += [("60", ["verify", "--help"]), ("120", ["verify", "--help"]), ("80", ["verify"]),
              ("80", ["compare", "ex3.json", "--alpha", "x"]),
              ("60", ["compare", "--help"]), ("120", ["compare", "--help"]),
              ("80", ["simulate", "ex3.json"]), ("120", ["simulate", "--help"]),
              ("60", ["--help"]), ("120", ["--help"])]
    monkeypatch.chdir(tmp_path)
    for columns, argv in steps:
        monkeypatch.setenv("COLUMNS", columns)
        child = run_child(argv, tmp_path)
        assert run(argv) == (child.returncode, child.stdout, child.stderr), argv


COMMANDS = ("construct", "verify", "simulate", "search", "compare")


def test_parser_fills_only_the_chosen_builder(tmp_path, monkeypatch):
    """The first call builds the tree with one empty parser per command and
    adds arguments to the chosen command only; a construct call makes the
    nine builder parsers and adds arguments to the chosen builder only."""
    made, added = [], []
    init = argparse.ArgumentParser.__init__
    add = argparse.ArgumentParser.add_argument

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self.prog)

    def counting_add(self, *args, **kwargs):
        added.append((self.prog, args[0]))
        return add(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counting_add)
    monkeypatch.chdir(tmp_path)
    write_ex3(tmp_path / "ex3.json")
    tree = [("codedcache", "-h"), ("codedcache", "--json")] + [
        (f"codedcache {c}", "-h") for c in COMMANDS]
    try:
        for argv, flags in (
                (["search", "--n", "4", "--q", "2"],
                 ["--n", "--q", "--budget", "--cyclic-limit", "--csv", "--json-out"]),
                (["verify", "ex3.json"], ["file", "--alpha", "--method"]),
                (["simulate", "ex3.json", "--files", "2"],
                 ["file", "--files", "--alpha", "--bytes", "--seed", "--demands",
                  "--transpose"]),
                (["compare", "ex3.json"],
                 ["files", "--alpha", "--mn", "--memory-sharing", "--csv", "--json-out"])):
            cli._build_parser.cache_clear()
            made.clear()
            added.clear()
            assert run(argv)[0] == 0
            assert made == ["codedcache"] + [f"codedcache {c}" for c in COMMANDS]
            assert added == tree + [(f"codedcache {argv[0]}", flag) for flag in flags]
        cli._build_parser.cache_clear()
        assert run(["search", "--n", "4", "--q", "2"])[0] == 0
        made.clear()
        added.clear()
        assert run(["construct", "mds", "--n", "5", "--k", "2", "--q", "5"])[0] == 0
        assert made == [f"codedcache construct {b}" for b in BUILDERS]
        filled = [prog for prog, flag in added if flag != "-h"]
        assert set(filled) == {"codedcache construct mds"}
        assert len(filled) == 7
        made.clear()
        added.clear()
        assert run(["construct", "mds", "--n", "5", "--k", "2", "--q", "5"])[0] == 0
        assert run(["construct", "spc", "--help"])[0] == 0
        assert made == []
        assert {prog for prog, flag in added if flag != "-h"} == {
            "codedcache construct spc"}
    finally:
        cli._build_parser.cache_clear()


# ---------------------------------------------------------------------------
# crt round trip
# ---------------------------------------------------------------------------


def test_crt_construct_verify_simulate(tmp_path):
    scheme = tmp_path / "crt.json"
    code, out, _ = run(["construct", "crt", "--n", 4,
                        "--component", "2:1,1", "--component", "3:1,1",
                        "--out", scheme])
    assert code == 0
    assert "satisfied via componentwise" in out

    code, out, _ = run(["verify", scheme])
    assert code == 0
    assert "component 0 (q=2):" in out
    assert "component 1 (q=3):" in out

    code, out, _ = run(["simulate", scheme, "--files", 4, "--bytes", 4])
    assert code == 0
    doc = json.loads(out)
    assert doc["num_users"] == 24
    assert doc["all_ok"] is True


def test_crt_rejects_cyclic_shortcut(tmp_path):
    scheme = tmp_path / "crt.json"
    assert run(["construct", "crt", "--n", 4, "--component", "2:1,1",
                "--component", "3:1,1", "--out", scheme])[0] == 0
    code, _, err = run(["verify", scheme, "--method", "cyclic"])
    assert code == 1
    assert "residue source" in err
