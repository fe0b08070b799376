import json
import os
import random
import subprocess
import sys

import pytest

import braidkit
from braidkit import engine as E
from braidkit import ledger as L
from braidkit import subgroups as S
from braidkit.cli import main
from braidkit.garside import band, structure
from braidkit.words import BraidWord


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_nf(capsys):
    code, out = run(capsys, "nf", "B3: 1 2 1")
    assert code == 0 and "inf=1" in out and "length=0" in out
    code, out = run(capsys, "--json", "nf", "B4: 1 3")
    blob = json.loads(out)
    assert code == 0 and blob["inf"] == 0 and blob["canonical_length"] == 1
    code, out = run(capsys, "nf", "--structure", "band", "--side", "right", "B3: 1 -2")
    assert code == 0 and "right" in out


def test_text_nf_spells_each_factor_once(capsys, monkeypatch):
    # a deterministic work gate: the factor words are spelled once, and the
    # JSON blob, with its factor list and word, is built only under --json
    # from those words and one spelling of Delta; building the blob for text
    # output too, its word through to_word(), spelled every factor three times
    rng = random.Random(33)
    w = "B6: " + " ".join(str(rng.choice([-5, -4, -3, -2, -1, 1, 2, 3, 4, 5])) for _ in range(80))
    for kind in ("band", "classical"):
        st = structure(kind, 6)
        real, spelled = st._word, []
        monkeypatch.setitem(vars(st), "_word", lambda p: spelled.append(p) or real(p))
        code, text = run(capsys, "nf", "--structure", kind, w)
        nf = E.normal_form(st, BraidWord.parse(w))
        r = nf.canonical_length
        assert code == 0 and len(spelled) == r > 3, (kind, len(spelled), r)
        del spelled[:]
        code, out = run(capsys, "--json", "nf", "--structure", kind, w)
        blob = json.loads(out)
        assert len(spelled) == r + 1, (kind, len(spelled), r)
        assert blob["word"] == nf.to_word().format()
        factors = " | ".join(" ".join(map(str, f)) for f in blob["factors"])
        assert code == 0 and text.rstrip().endswith(f"factors: [{factors}]")
        assert len(blob["factors"]) == blob["canonical_length"] == r


def test_eq_and_conj(capsys):
    code, out = run(capsys, "eq", "B3: 1 2 1", "B3: 2 1 2")
    assert code == 0 and out.strip() == "equal"
    code, out = run(capsys, "eq", "B3: 1", "B3: 2")
    assert code == 0 and out.strip() == "not equal"
    code, out = run(capsys, "--json", "conj", "B4: 1", "B4: 2")
    blob = json.loads(out)
    assert code == 0 and blob["conjugate"] and "witness" in blob
    code, out = run(capsys, "conj", "B3: 1", "B3: -1")
    assert code == 0 and "not conjugate" in out


def test_conj_band_pair_answers_without_enumeration(capsys, monkeypatch):
    # the Burau polynomial refuses this pair after the first circuit
    def no_enumeration():
        raise AssertionError("simples were enumerated")

    monkeypatch.setitem(vars(band(10)), "simples", no_enumeration)
    a, b = "B10: 1 2 -3 4 5 6 -7 8 9", "B10: 9 8 -7 6 5 4 3 2 -1"
    code, out = run(capsys, "conj", "--structure", "band", a, b)
    assert code == 0 and "not conjugate" in out


def test_slide_and_sc(capsys):
    code, out = run(capsys, "slide", "B3: -2 1 2")
    assert code == 0
    code, out = run(capsys, "--json", "sc", "B3: 1")
    blob = json.loads(out)
    assert code == 0 and blob["size"] == 2


def test_lk_and_perm(capsys):
    code, out = run(capsys, "--json", "lk", "B2: 1 1")
    assert code == 0 and json.loads(out) == [[1, 2, 1]]
    code, out = run(capsys, "perm", "B3: 1")
    assert code == 0 and out.strip() == "(1 2)"


def test_cable_extract(capsys):
    code, out = run(capsys, "cable", "--comp", "2,2", "B2: -1", "B2: 1 1", "B2: 1 1")
    assert code == 0
    word = out.strip()
    code, out = run(capsys, "extract", "--comp", "2,2", "--part", "tubular", word)
    assert code == 0 and out.strip() == "B2: -1"
    code, out = run(capsys, "extract", "--comp", "2,1", "--part", "tubular", "B3: 2")
    assert code == 2


def test_cable_refuses_a_bad_composition(capsys):
    code = main(["cable", "--comp", "2,,2", "B2: -1", "B2: 1 1", "B2: 1 1"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.splitlines() == ["error: bad composition: '2,,2'"]


def test_extract_refuses_a_bad_part_name(capsys):
    code = main(["extract", "--comp", "2,2", "--part", "interior:x", "B4: 1 3"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.splitlines() == ["error: unknown extraction 'interior:x'"]


def test_abelianize(capsys):
    code, out = run(capsys, "abelianize", "--target", "P", "B3: 1 1")
    assert code == 0 and out.split() == ["1", "0", "0"]
    code, _ = run(capsys, "abelianize", "--target", "J", "B3: 1 1")
    assert code == 2


def test_kernel_ab_file(capsys, tmp_path):
    path = tmp_path / "pres.txt"
    path.write_text(
        "gens: u t\ndegree: 3\nimage: u = (1 2 3)\nimage: t = (1 3 2)\n",
        encoding="utf-8",
    )
    code, out = run(capsys, "--json", "kernel-ab", str(path))
    blob = json.loads(out)
    assert code == 0 and blob["invariant_factors"] == [0, 0, 0, 0]


def test_kernel_ab_unreadable_path_exits_2_with_one_line(capsys, tmp_path):
    # a directory is not a presentation file: one error line, not a traceback
    code = main(["kernel-ab", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ")
    assert len(captured.err.strip().splitlines()) == 1


def test_char_decompose_nu(capsys):
    code, out = run(capsys, "char", "5,1", "3,3")
    assert code == 0 and out.strip() == "-1"
    code, out = run(capsys, "decompose", "Wmodule", "6")
    assert code == 0 and "5,1:1" in out and "4,2:1" in out
    code, out = run(capsys, "nu", "(1 2)")
    assert code == 0 and out.strip() == "(1 2)(3 4)(5 6)"
    for perm in ("(1 2)(3 4)", "(1 2) (3 4)"):
        code, out = run(capsys, "nu", perm)
        assert code == 0 and out.strip() == "(1 4)(2 3)"
    assert main(["nu", "(1 2) x"]) == 2
    assert capsys.readouterr().err.splitlines() == ["error: bad cycle notation: '(1 2) x'"]


def test_malformed_cycles_exit_2_with_one_line(capsys, tmp_path):
    for perm in ("(1 2)(1 2)", "(1 1)", "(1 2)()"):
        code = main(["nu", perm])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1
        assert captured.err.startswith("error: ")
    path = tmp_path / "pres.txt"
    for text in (
        "gens: u u\ndegree: 3\nimage: u = (1 2 3)\n",
        "gens: u\ndegree: 3\nimage: u = ()()\n",
        "gens: u\ndegree: 3\nimage: u = (1 2 3)\nimage: x = (1 2)\n",
    ):
        path.write_text(text, encoding="utf-8")
        code = main(["kernel-ab", str(path)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1
        assert captured.err.startswith("error: ")


def test_k4_rewrite_and_pi(capsys):
    code, out = run(capsys, "k4-rewrite", "B4: 2 3 -1 -2")
    assert code == 0 and out.strip() == "w"
    code, out = run(capsys, "--json", "pi", "--context", "K4ab", "B4: -1 2")
    assert code == 0 and json.loads(out)["matrix"] == [[1, 1], [1, 2]]
    code, out = run(capsys, "pi", "--context", "B3primeAb", "lambda")
    assert code == 0 and out.strip() == "[[0, -1], [-1, 0]]"


def test_usage_errors(capsys):
    assert main(["nf", "garbage"]) == 2
    assert main(["char", "5,1", "4,1"]) == 2  # size mismatch


def one_error_line(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    return captured.err.splitlines()


def test_bad_letter_in_braid_word_is_named(capsys):
    assert one_error_line(capsys, ["nf", "B3: 1 x"]) == ["error: bad letter 'x' in 'B3: 1 x'"]


def test_bad_char_arguments_are_named(capsys):
    assert one_error_line(capsys, ["char", "3,a", "2"]) == ["error: bad partition: '3,a'"]
    assert one_error_line(capsys, ["char", "3", "2,,1"]) == ["error: bad cycle type: '2,,1'"]


def test_bad_automorphism_step_is_named(capsys):
    argv = ["pi", "--context", "B3primeAb", "sigma~x"]
    assert one_error_line(capsys, argv) == ["error: unknown automorphism step 'sigma~x'"]


def test_phi_is_no_three_strand_automorphism_step(capsys):
    # phi is defined on four strands and the B3primeAb context has three
    argv = ["pi", "--context", "B3primeAb", "phi"]
    assert one_error_line(capsys, argv) == ["error: unknown automorphism step 'phi'"]


def test_bad_degree_line_is_named(capsys, tmp_path):
    path = tmp_path / "pres.txt"
    path.write_text("gens: u\ndegree: x\nimage: u = (1 2)\n", encoding="utf-8")
    assert one_error_line(capsys, ["kernel-ab", str(path)]) == ["error: bad degree line 'degree: x'"]


def test_search_limit_exits_3_with_one_line(capsys, monkeypatch):
    monkeypatch.setattr(E, "_SC_MAX", 1)
    code = main(["sc", "B3: 1"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.startswith("braidkit: error: sliding circuit cap exceeded")
    assert len(captured.err.strip().splitlines()) == 1


def test_verify_filter_eq16(capsys):
    code, out = run(capsys, "--json", "verify-paper", "--filter", "eq16")
    blob = json.loads(out)
    assert code == 0
    assert [item["id"] for item in blob] == [
        "eq16-tct",
        "eq16-twt",
        "eq16-ucu",
        "eq16-uwu",
    ]
    assert all(item["status"] == "pass" for item in blob)


def test_json_flag_after_command(capsys):
    # the README's form: --json after the command gives the same report
    _, before = run(capsys, "--json", "verify-paper", "--filter", "eq16-ucu")
    code, after = run(capsys, "verify-paper", "--filter", "eq16-ucu", "--json")
    assert code == 0 and after == before
    code, out = run(capsys, "nf", "B3: 1 2 1")
    assert code == 0 and "inf=1" in out


def test_verify_unknown_filter(capsys):
    assert main(["verify-paper", "--filter", "nonexistent"]) == 2
    assert main(["verify-paper", "--filter", "zzz"]) == 2
    assert capsys.readouterr().err.splitlines()[-1] == "error: no check id matches 'zzz'"


def test_ledger_deterministic_reports():
    results1 = L.run_ledger("eq16", seed=5)
    results2 = L.run_ledger("eq16", seed=5)
    assert L.report_json(results1) == L.report_json(results2)
    small = L.run_ledger("c05", seed=L.DEFAULT_SEED)
    again = L.run_ledger("c05", seed=L.DEFAULT_SEED)
    assert L.report_json(small) == L.report_json(again)


def test_every_check_has_unique_id():
    assert len(set(L.CHECK_IDS)) == len(L.CHECK_IDS) == 20
    # one id per acceptance item plus the four addressable relation checks
    assert sum(1 for cid in L.CHECK_IDS if cid.startswith("c")) == 16
    assert sum(1 for cid in L.CHECK_IDS if cid.startswith("eq16")) == 4


def test_mutated_relator_fails_with_counterexample():
    pres, image = S.b4_commutator_presentation()
    # flip one letter of the last relator: the image no longer vanishes
    broken = list(pres.relators)
    broken[-1] = broken[-1][:-1] + (2,)
    mutated = S.FinitePresentation(pres.generators, tuple(broken))
    with pytest.raises(Exception) as exc_info:
        L.kernel_invariants_check(mutated, image, (0,) * 7)
    assert "vanish" in str(exc_info.value)
    # a mutation that stays in the kernel but changes the group: the check
    # fails and carries the computed factors as a counterexample
    rel = pres.relators[0]
    mutated2 = S.FinitePresentation(
        pres.generators, (rel + rel,) + pres.relators[1:]
    )
    with pytest.raises(L.CheckFailure) as exc_info:
        L.kernel_invariants_check(mutated2, image, (0,) * 7)
    assert exc_info.value.payload["expected"] == [0] * 7
    assert exc_info.value.payload["got"] != [0] * 7

def test_seeded_full_report_stability():
    # two distinct small checks, rerun, byte identical
    ids = ["c03-simple-lattice", "c08-linking-rank"]
    blobs = []
    for _ in range(2):
        results = [L.run_check(cid, seed=99) for cid in ids]
        blobs.append(L.report_json(results))
    assert blobs[0] == blobs[1]


def module_env():
    """The environment with this braidkit first on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(braidkit.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_python_m_braidkit_runs_the_cli():
    proc = subprocess.run(
        [sys.executable, "-m", "braidkit", "nf", "B3: 1 2 1"],
        env=module_env(), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "inf=1" in proc.stdout


def test_closed_output_pipe_stops_silently():
    # the linking matrix of B400 is 79 800 lines, far more than a pipe
    # holds, so the command is still writing when the reader closes
    proc = subprocess.Popen(
        [sys.executable, "-m", "braidkit", "lk", "B400:"],
        env=module_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline() == b"lk(1,2) = 0\n"
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert stderr == b""
