import argparse
import hashlib
import json
import random
import threading

import pytest

from edgespectra import squares
from edgespectra.cli import main
from edgespectra.repcount import rep_histogram
from edgespectra.triangles import tri


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# One argv per subcommand, with the exit code and the sha256 of stdout that
# the CLI gave before its parser became a table: output must stay byte-identical.
# The extra minr and classify rows reach the rank search above rank 2 (r = 10,
# and no rank at all) and the lower-bound rule (r = 4); their digests were
# taken before that search was rewritten.  The abc row was re-pinned when
# property (C) became the two-part discriminant: k = 3 is certified (exit 0)
# where the int64 scan had skipped it (exit 1); k = 1, 2 are unchanged.
# The four rows of rank 1001 and 1199 were pinned when the rank search
# stopped recursing once per part of the balanced partition; before that
# they exited 1 with a RecursionError (test_high_rank_pairs_answered).
DIGEST_PINS = [
    ("spectrum --n 12 --r 3 --check", 0, "326aae8999e71d837b70a86cd71ca27ac9014f76abfbf0d44b798ef24fb5495f"),
    ("witness --n 12 --r 3 --m 30 --check", 0, "14c9dad6c4260938dfb5e3a1eb225f8d4480ed87f5cf924982d276d01e770903"),
    ("density --n 50 --r 4 --check", 0, "8ab41587c3020493457aec469c68d0907601a03e870e7da3301f0ff02d7baf46"),
    ("interval --n 30 --r 3 --c-low 0 --c-high 0 --clip", 1, "89a97b2a733c67f597a4fd5eddd1524868ed1511912dbef5e63c42616da279ed"),
    ("classify --m 7 --f 12 --check", 0, "347dfb52f2ca1c6e642fc04170d1ec0d63eb6963598aaf99159af1d0c0312f8b"),
    ("classify --m 38 --f 325 --check", 0, "b4f7fefdfef3a9560098cf903b9c7352d53c7c21df0740cd070da5cc35f29ad4"),
    ("minr --m 1112 --f 222111 --check", 0, "046a10083fd331daabcb8ee4250577c9a9015eb98e52253ea372338d5782c49e"),
    ("minr --m 20 --f 9 --check", 0, "6c422c877fc9bab14acbf8b8d4a30ae60b4467f3f1e69bb6b3aedd2ec0357992"),
    ("minr --m 20 --f 86", 0, "fbddf9227cad6b8c3ea01758199ea49d1ad3c3fc38e9d3aa649b0e83a171e02c"),
    ("minr --m 2539 --f 3034362 --check", 0, "e727242458ed1a7ed3560b436797e6327c9a59d2d66012d271c0cfbdeb0009c1"),
    ("minr --m 508 --f 112130 --check", 0, "daae41adbbe9915227c4db2bc71f63b2f941b1d98b12f97b64eb8560c92f656c"),
    ("minr --m 1200 --f 0", 0, "ab7fcf4fde1f18ea8602a916ff97153fb59d0427f917d09ee42e80a94f1ebeb9"),
    ("minr --m 3004 --f 3003", 0, "35301219316c895ebff9bee903d98d46a5d7bdc3c3f7c688870e251c2e9a65dc"),
    ("classify --m 1200 --f 0", 0, "1a09d1cbfb421995631bd3eafc49287a06515229329776b1e527c406bc01fa1b"),
    ("classify --m 1200 --f 719400", 0, "6ccf16b6024f446d3750b9c60c9bf0587292d2487ff9940f5fa6f501c4b76dd2"),
    ("dm --m 40 --f 300 --check", 0, "81188aebec0fe956e0b33f9601cb05690f11b9f9a205dd064af7c26090d1e70a"),
    ("pell --k 2 --check", 0, "d72d6c3c0fce6eb303780da6dccd5241cc3946dfe1f8b1bbbdd0b398a60418d5"),
    ("abc --k-max 3", 0, "382cd32bf13d87255c10c447d8d45770bc8d4976ac7b68f911450ea45b600bd8"),
    ("three-squares --v 1000003 --check", 0, "0f71cd98b482e4131d5595ae92a4ea74ede46224ce04956e1e3cdf8929ea5404"),
    ("bennett --y-limit 50 --check", 0, "b0afc7d68ff3db37da9151a16a6ca6b9458431ef5485937df2fece25cba1debf"),
    ("witness7 --n 30000 --samples 3 --seed 3 --threads 1", 0, "9098dc85b73d9a25bb01712b71583910e6b2af5dbfcf2e234f7b38ee911237e5"),
    ("arrow --n 5 --e 6 --m 3 --f 3 --check", 0, "c4fe4b44d500ec7717c739834978f1482ef0ded2c7af9a407f0ff65581cb811d"),
    ("snm --n 5 --m 3 --f 3 --check", 0, "5d83c5e0ee1dbb56444e936c4c678d8352b464e7859125829c2ffce348c32b5a"),
    ("turan --n 6 --m 3", 0, "a0d348e5b7c29376c7f61ce9c0e465bdcaf7dc24947576cb56c735b92953d922"),
    ("runs --n 5 --m 3 --f 2", 0, "93a48767a2813d30fedf557ed39a1bfb06c75a12623f56dff3342ee876bfaad4"),
    ("closure --n 8 --r 2 --m 4", 0, "4cefeb03a2f25c454dea92740c27b3d453b53dfe5acf9a1d172b3e0af6ee8f70"),
    ("concentration --N 6 --E 5 --n 3 --trials 200 --seed 1", 0, "e8c6a82be8e1297ddf54f2c8988a9b116284560f2e1f98dac0d9767d440ee203"),
    ("repcount --n 60 --N 12 --check", 0, "eb685e05531f75e1a30765cc50928431545f42044008805815faff893e1f269c"),
    ("exceptional --n 120 --N 24 --lo-margin 500 --hi-margin 500", 0, "b4d58211380b07fcefe4c8dc7b28314edb48cef1f381fd1a39cad8b1d201e7e6"),
]


@pytest.mark.parametrize("argv,key,value", [
    ("minr --m 1200 --f 0", "r", 1199),          # Turan: 1200 singletons
    ("minr --m 3004 --f 3003", "r", 1001),       # one 4, 998 triangles, three edges
    ("classify --m 1200 --f 0", "exact_frac", "1/1199"),
    ("classify --m 1200 --f 719400", "exact_frac", "1/1199"),
])
def test_high_rank_pairs_answered(capsys, argv, key, value):
    code, out, _ = run_cli(capsys, argv.split())
    assert code == 0 and json.loads(out)[key] == value


def _pin_ids(pins):
    # the first pin of a subcommand is named by the subcommand, later ones by their argv
    names = [argv.split()[0] for argv, _, _ in pins]
    return [name if names.index(name) == i else pins[i][0] for i, name in enumerate(names)]


@pytest.mark.parametrize("argv,code,digest", DIGEST_PINS, ids=_pin_ids(DIGEST_PINS))
def test_stdout_digest_pinned(capsys, argv, code, digest):
    got, out, _ = run_cli(capsys, argv.split())
    assert (got, hashlib.sha256(out.encode()).hexdigest()) == (code, digest)


def test_spectrum_payload(capsys):
    code, out, err = run_cli(capsys, ["spectrum", "--n", "5", "--r", "2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["members"] == [4, 6, 10]
    assert payload["count"] == 3


def test_classify_payload(capsys):
    code, out, _ = run_cli(capsys, ["classify", "--m", "7", "--f", "12", "--check"])
    assert code == 0
    payload = json.loads(out)
    assert payload["exact"] == 0
    assert any(t["rule"] == "iv" for t in payload["trace"])


def test_classify_family_pair_beyond_int64(capsys):
    # family_pair(4): the rank-2 certificate needs exact integers
    code, out, err = run_cli(capsys, ["classify", "--m", "18270687362",
                                      "--f", "60087242994716684736", "--check"])
    assert code == 0
    payload = json.loads(out)
    assert payload["exact_frac"] == "1/2"
    assert any(t["rule"] == "thm-exact-1/r" and t["params"]["r"] == 2 for t in payload["trace"])
    man = _manifest(err)
    assert man["subcommand"] == "classify"
    assert man["output_digest"] == hashlib.sha256(out.encode()).hexdigest()


def test_pell_payload(capsys):
    code, out, _ = run_cli(capsys, ["pell", "--k", "1"])
    assert code == 0
    payload = json.loads(out)
    assert (payload["t"], payload["m"], payload["f"]) == (222, 1112, 222111)


@pytest.mark.parametrize("fault", ["triple", "identity"])
def test_pell_check_substitutes_what_it_prints(capsys, monkeypatch, fault):
    from edgespectra import pell

    if fault == "triple":  # sums to m, but spans the wrong edge count
        monkeypatch.setattr(pell.FamilyPair, "triple_witness",
                            lambda self: (2 * self.t + 2, 2 * self.t, self.t))
    else:  # c is written after the identity was checked
        family_pair = pell.family_pair

        def bent(k):
            fp = family_pair(k)
            object.__setattr__(fp, "c", fp.c + 1)
            return fp

        monkeypatch.setattr(pell, "family_pair", bent)
    code, out, err = run_cli(capsys, ["pell", "--k", "2", "--check"])
    assert code == 1 and out == ""
    assert "check failed:" in err


def test_manifest_digest_and_determinism(capsys):
    code1, out1, err1 = run_cli(capsys, ["minr", "--m", "4", "--f", "3"])
    code2, out2, err2 = run_cli(capsys, ["minr", "--m", "4", "--f", "3"])
    assert code1 == code2 == 0
    assert out1 == out2
    man = json.loads(err1.strip().splitlines()[-1])
    assert man["subcommand"] == "minr"
    assert man["output_digest"] == hashlib.sha256(out1.encode()).hexdigest()
    man2 = json.loads(err2.strip().splitlines()[-1])
    assert man["output_digest"] == man2["output_digest"]


def test_interval_gap_exit_code(capsys):
    code, out, _ = run_cli(capsys, ["interval", "--n", "30", "--r", "3",
                                    "--c-low", "0", "--c-high", "0", "--clip"])
    assert code == 1
    payload = json.loads(out)
    assert payload["ok"] is False and payload["first_gap"] == 150


def test_interval_huge_finite_coefficients(capsys):
    # an empty interval is vacuous however large c_low is, and a huge
    # negative c_high puts hi far above tri(n) without a mask that wide
    code, out, _ = run_cli(capsys, ["interval", "--n", "10", "--r", "2",
                                    "--c-low", "1e308", "--c-high", "0"])
    assert code == 0 and json.loads(out)["vacuous"] is True
    code, out, _ = run_cli(capsys, ["interval", "--n", "10", "--r", "2",
                                    "--c-low", "0", "--c-high=-1e20"])
    assert code == 1 and json.loads(out)["first_gap"] == 25


@pytest.mark.parametrize("argv", [
    ["interval", "--n", "10", "--r", "2", "--c-low", "0", "--c-high", "-1e20"],
    ["interval", "--n", "10", "--r", "2", "--c-low", "-1.5E-3", "--c-high", "-.5"],
    ["exceptional", "--n", "30", "--lo-margin", "-1e1", "--hi-margin", "-2.5E+1"],
])
def test_negative_exponent_float_options(capsys, argv):
    # a negative value in exponent form is a value, not an option name, as
    # it is when joined to its option by "="
    joined = argv[:3] + [f"{opt}={value}" for opt, value in zip(argv[3::2], argv[4::2])]
    runs = [run_cli(capsys, a) for a in (argv, joined)]
    assert runs[0][:2] == runs[1][:2] and runs[0][0] in (0, 1)


@pytest.mark.parametrize("argv,lo,hi", [
    (["exceptional", "--n", "30", "--lo-margin=-150"], 0, 435),
    (["exceptional", "--n", "30", "--hi-margin=-25"], 90, 435),
])
def test_exceptional_window_clamped_to_edge_counts(capsys, argv, lo, hi):
    # a negative margin cannot push the scan window past the edge counts
    # [0, tri(30)]: the report counts the zeros of exactly the cells it names
    code, out, _ = run_cli(capsys, argv)
    rep = json.loads(out)
    counts = rep_histogram(30, 6).counts
    assert code == 0 and rep["range"] == [lo, hi] and rep["total"] == hi - lo + 1
    assert rep["zeros_in_range"] == sum(counts[m] == 0 for m in range(lo, hi + 1))


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--n", "5"])  # missing --r
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 2


def test_witness7_campaign_lines(capsys):
    code, out, _ = run_cli(capsys, ["witness7", "--n", "30000",
                                    "--samples", "5", "--seed", "3"])
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert len(rows) == 5
    assert all(row["verified"] for row in rows)
    assert all(len(row["parts"]) == 7 for row in rows)


def test_witness7_campaign_thread_independent(capsys, monkeypatch):
    from edgespectra import squares

    callers = []

    def recording(n, m, witness7=squares.witness7):
        callers.append(threading.get_ident())
        return witness7(n, m)

    monkeypatch.setattr(squares, "witness7", recording)
    argv = ["witness7", "--n", "30000", "--samples", "8", "--seed", "1"]
    _, out1, _ = run_cli(capsys, argv + ["--threads", "1"])
    _, out2, _ = run_cli(capsys, argv + ["--threads", "2"])
    assert out1 == out2
    # --threads is ignored: every sample runs on the calling thread
    assert callers == [threading.get_ident()] * 16


def test_witness7_out_of_interval_error(capsys):
    code, out, err = run_cli(capsys, ["witness7", "--n", "30000", "--m", "10"])
    assert code == 1
    assert "PreconditionViolated" in err


def test_repcount_csv_and_check(tmp_path, capsys):
    csv_path = tmp_path / "hist.csv"
    code, out, _ = run_cli(capsys, ["repcount", "--n", "60", "--N", "12",
                                    "--csv", str(csv_path), "--check"])
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "m,R"
    assert all("," in line for line in lines[1:])


def test_spectrum_export(tmp_path, capsys):
    path = tmp_path / "spec.txt"
    code, out, _ = run_cli(capsys, ["spectrum", "--n", "6", "--r", "2",
                                    "--export", str(path)])
    assert code == 0
    from edgespectra.cliquespec import EdgeSpectrum, spectrum

    back = EdgeSpectrum.parse_export(path.read_text().strip().splitlines())
    assert back.mask == spectrum(6, 2).mask


def test_turan_and_closure_exit_codes(capsys):
    code, _, _ = run_cli(capsys, ["turan", "--n", "6", "--m", "3"])
    assert code == 0
    code, _, _ = run_cli(capsys, ["closure", "--n", "8", "--r", "2", "--m", "4"])
    assert code == 0


def test_three_squares_and_bennett(capsys):
    code, out, _ = run_cli(capsys, ["three-squares", "--v", "33", "--check"])
    assert code == 0
    assert json.loads(out)["decomp"] == [5, 2, 2]
    code, out, _ = run_cli(capsys, ["bennett", "--y-limit", "50", "--check"])
    assert code == 0
    assert json.loads(out)["solutions"] == [[3, 2]]


def test_abc_table(capsys):
    code, out, _ = run_cli(capsys, ["abc", "--k-max", "2"])
    assert code == 0
    rows = json.loads(out)
    assert [row["k"] for row in rows] == [1, 2]
    assert all(row["ABC"]["A"] and row["ABC"]["B"] and row["ABC"]["C"] for row in rows)


def test_abc_certifies_every_k(capsys):
    # (C) is certified by the two-part discriminant, so no k is skipped
    code, out, _ = run_cli(capsys, ["abc", "--k-max", "7"])
    assert code == 0
    rows = json.loads(out)
    assert [row["k"] for row in rows] == list(range(1, 8))
    assert all(row["ABC"]["A"] and row["ABC"]["B"] and row["ABC"]["C"] for row in rows)
    assert all(row["ABC"]["c_scanned"] == row["m"] // 2 for row in rows)
    with pytest.raises(SystemExit) as exc:  # the scan limit option is gone
        main(["abc", "--k-max", "3", "--c-limit", "10"])
    assert exc.value.code == 2


def test_arrow_and_snm(capsys):
    code, out, _ = run_cli(capsys, ["arrow", "--n", "5", "--e", "6",
                                    "--m", "3", "--f", "3", "--check"])
    assert code == 0
    payload = json.loads(out)
    assert payload["holds"] is False
    assert len(payload["counterexample"]) == 6
    code, out, _ = run_cli(capsys, ["snm", "--n", "5", "--m", "3", "--f", "3"])
    assert json.loads(out)["members"] == [7, 8, 9, 10]


def test_witness_density_runs_exceptional(capsys):
    code, out, _ = run_cli(capsys, ["witness", "--n", "5", "--r", "2", "--m", "4",
                                    "--check"])
    assert code == 0
    assert json.loads(out)["parts"] == [3, 2]
    code, out, _ = run_cli(capsys, ["density", "--n", "50", "--r", "4", "--check"])
    assert code == 0
    assert json.loads(out)["bounds_ok"] is True
    code, out, _ = run_cli(capsys, ["runs", "--n", "4", "--m", "2", "--f", "0"])
    assert json.loads(out)["runs"] == [[0, 5]]
    code, out, _ = run_cli(capsys, ["exceptional", "--n", "120", "--N", "24",
                                    "--lo-margin", "500", "--hi-margin", "500"])
    assert code == 0
    payload = json.loads(out)
    assert "zeros_in_range" in payload and not payload["range_empty"]


def test_dm_and_concentration(capsys):
    code, out, _ = run_cli(capsys, ["dm", "--m", "8", "--f", "17", "--check"])
    assert code == 0
    assert json.loads(out)["witness"] is None
    code, out, _ = run_cli(capsys, ["concentration", "--N", "6", "--E", "5",
                                    "--n", "3", "--trials", "200"])
    assert code == 0
    payload = json.loads(out)
    assert payload["enum_mean"] == 1.0
    assert payload["expectation_identity_ok"] is True


def _not_strict_json(constant):
    raise ValueError(f"manifest holds {constant}, which strict JSON has not")


def _manifest(err):
    """The manifest, the last stderr line, read as strict JSON."""
    return json.loads(err.strip().splitlines()[-1], parse_constant=_not_strict_json)


def test_budget_overrun_exits_1_with_manifest(capsys):
    code, out, err = run_cli(capsys, ["repcount", "--n", "3000", "--N", "1000"])
    assert code == 1 and out == ""
    assert "error: TupleBudgetExceeded:" in err
    assert _manifest(err)["subcommand"] == "repcount"


@pytest.mark.parametrize("cmd", ["repcount", "exceptional"])
def test_histogram_cells_charged_to_table_cap(capsys, cmd):
    # tri(10^7) + 1 int64 cells would be 364 TiB: refused before numpy is asked
    code, out, err = run_cli(capsys, [cmd, "--n", "10000000", "--N", "3"])
    assert code == 1 and out == ""
    assert "error: SpectrumMemoryError: histogram cells need" in err
    assert _manifest(err)["subcommand"] == cmd


def test_rank_budget_overrun_exits_1_with_manifest(capsys):
    # a pair whose rank search would walk far more than two million z-steps
    code, out, err = run_cli(capsys, ["minr", "--m", "146714", "--f", "5165649739"])
    assert code == 1 and out == ""
    assert "error: RankBudgetExceeded:" in err and "three-part windows" in err
    assert _manifest(err)["subcommand"] == "minr"


def test_descent_budget_overrun_exits_1_with_manifest(capsys, monkeypatch):
    # a budget of 1000 y-steps refuses 10^30 + 3 at once
    monkeypatch.setattr(squares, "_DESCENT_STEPS", 1000)
    code, out, err = run_cli(capsys, ["three-squares", "--v", str(10 ** 30 + 3)])
    assert code == 1 and out == ""
    assert "error: DescentBudgetExceeded:" in err and "walked all 1000 y-steps" in err
    assert _manifest(err)["subcommand"] == "three-squares"


@pytest.mark.parametrize("export", [False, True])
def test_spectrum_member_list_charged_to_guard(capsys, monkeypatch, tmp_path, export):
    # C(300, 5)'s tables need ~0.4M bits and its 28,435 members ~15M as a
    # payload: a 1M-bit cap admits the tables only.  An export is written
    # as it is read off the mask, holds no list and is admitted.
    path = tmp_path / "spec.txt"
    argv = ["spectrum", "--n", "300", "--r", "5"] + (["--export", str(path)] if export else [])
    monkeypatch.setenv("EDGESPECTRA_MAX_TABLE_BITS", str(10 ** 6))
    code, out, err = run_cli(capsys, argv)
    if export:
        from edgespectra.cliquespec import EdgeSpectrum

        assert code == 0 and json.loads(out)["exported_to"] == str(path)
        assert EdgeSpectrum.parse_export(path.read_text().splitlines()).count == 28435
        return
    assert code == 1 and out == ""
    assert "error: SpectrumMemoryError: listed members need" in err
    assert _manifest(err)["subcommand"] == "spectrum"
    monkeypatch.setenv("EDGESPECTRA_MAX_TABLE_BITS", str(28 * 10 ** 6))
    code, out, err = run_cli(capsys, argv)
    assert code == 0 and (path.exists() if export else json.loads(out)["count"] == 28435)


def test_concentration_scale_rejected_exits_1(capsys):
    # N = 300000 would need a 90 GB adjacency matrix
    code, out, err = run_cli(capsys, ["concentration", "--N", "300000", "--E", "1",
                                      "--n", "2", "--trials", "1"])
    assert code == 1 and out == ""
    assert "error: ScaleRejected:" in err
    assert _manifest(err)["subcommand"] == "concentration"


def test_bad_value_exits_2_with_manifest(capsys, tmp_path):
    unwritable = str(tmp_path / "missing" / "x")
    for argv in (["spectrum", "--n", "-1", "--r", "2"],
                 # a path that cannot be written, after the result is computed
                 ["spectrum", "--n", "5", "--r", "2", "--export", unwritable],
                 ["repcount", "--n", "10", "--N", "2", "--csv", unwritable],
                 # an empty family table would certify nothing
                 ["abc", "--k-max", "0"],
                 ["abc", "--k-max", "-1"],
                 # no random draw, or a negative tuple cap, would certify nothing
                 ["closure", "--n", "6", "--r", "2", "--m", "3", "--trials", "-1"],
                 ["closure", "--n", "6", "--r", "2", "--m", "3", "--trials", "0"],
                 ["concentration", "--N", "6", "--E", "5", "--n", "3", "--trials", "0"],
                 ["exceptional", "--n", "10", "--sum-cap", "-1"],
                 ["repcount", "--n", "10", "--N", "2", "--sum-cap", "-1"],
                 # asymptotic mode sets N and the margins itself
                 ["exceptional", "--n", "400", "--N", "5", "--asymptotic"],
                 ["exceptional", "--n", "400", "--hi-margin", "100", "--asymptotic"]):
        code, out, err = run_cli(capsys, argv)
        assert code == 2 and out == "", argv
        assert "error: ValueError:" in err, argv
        assert _manifest(err)["subcommand"] == argv[0]


def test_overflow_exits_1_with_manifest(capsys, monkeypatch):
    from edgespectra import certify

    def overflow(m, f):
        raise OverflowError("Python int too large to convert to C long")

    monkeypatch.setattr(certify, "classify_pair", overflow)
    code, out, err = run_cli(capsys, ["classify", "--m", "7", "--f", "12"])
    assert code == 1 and out == ""
    assert "error: OverflowError:" in err
    assert _manifest(err)["output_digest"] == hashlib.sha256(b"").hexdigest()


def test_recursion_error_exits_1_with_manifest(capsys, monkeypatch):
    from edgespectra import certify

    def too_deep(m, f):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(certify, "min_r_witness", too_deep)
    code, out, err = run_cli(capsys, ["minr", "--m", "3004", "--f", "3003"])
    assert code == 1 and out == ""
    assert "error: RecursionError:" in err
    assert _manifest(err)["output_digest"] == hashlib.sha256(b"").hexdigest()


def test_minr_check_runs_one_search(capsys, monkeypatch):
    from edgespectra import certify

    calls, real = [], certify.min_r_witness
    monkeypatch.setattr(certify, "min_r_witness", lambda m, f: calls.append((m, f)) or real(m, f))
    code, out, _ = run_cli(capsys, ["minr", "--m", "20", "--f", "9", "--check"])
    assert code == 0 and json.loads(out)["r"] == 10
    assert calls == [(20, 9)]


def test_classify_check_rejects_tampered_entry(capsys, monkeypatch):
    import dataclasses

    from edgespectra import certify

    real = certify.classify_pair

    def tampered(m, f):
        v = real(m, f)
        i = next(i for i, t in enumerate(v.trace) if t.rule == "iv")
        bad = certify.TraceEntry("iv", v.trace[i].side, (("l", 5), ("lp", 3)))
        return dataclasses.replace(v, trace=v.trace[:i] + (bad,) + v.trace[i + 1:])

    monkeypatch.setattr(certify, "classify_pair", tampered)
    code, out, err = run_cli(capsys, ["classify", "--m", "7", "--f", "12", "--check"])
    assert code == 1 and out == ""
    assert "check failed:" in err
    assert _manifest(err)["subcommand"] == "classify"


def test_classify_check_runs_one_verdict(capsys, monkeypatch):
    from edgespectra import certify

    calls, real = [], certify.classify_pair
    monkeypatch.setattr(certify, "classify_pair", lambda m, f: calls.append((m, f)) or real(m, f))
    code, out, _ = run_cli(capsys, ["classify", "--m", "38", "--f", "325", "--check"])
    assert code == 0 and json.loads(out)["lower_frac"] == "1/4"
    assert calls == [(38, 325)]


def _fuzz_argvs(count, seed):
    """Random classify, minr and dm calls with m <= 300, witness calls with
    n <= 60, and interval, exceptional, repcount, concentration and closure
    calls on at most 40 vertices (12 for concentration, 9 for closure):
    values reach a little past their ranges on both sides, float options
    are sometimes inf or nan, half the calls that offer --check carry it,
    and one in twenty has a malformed value."""
    rng = random.Random(seed)

    def near(lo, hi):  # inside [lo, hi], or at or just past one of its ends
        hi = max(lo, hi)
        return rng.choice([rng.randint(lo - 1, lo + 1), rng.randint(hi - 1, hi + 1),
                           rng.randint(lo, hi)])

    def maybe(option, value):
        return [option, value] if rng.random() < 0.5 else []

    floats = [-1, 0, 0.5, 2, "1e308", "-1e20", "inf", "-inf", "nan"]
    argvs = []
    for _ in range(count):
        cmd = rng.choice(["classify", "minr", "dm", "witness", "interval",
                          "exceptional", "repcount", "concentration", "closure"])
        if cmd == "witness":
            n = rng.randint(-1, 60)
            argv = [cmd, "--n", n, "--r", rng.randint(0, 6), "--m", rng.randint(-2, tri(max(n, 0)) + 2)]
        elif cmd == "interval":
            argv = [cmd, "--n", near(0, 40), "--r", near(1, 6),
                    "--c-low", rng.choice(floats), "--c-high", rng.choice(floats)]
            argv += ["--clip"] * (rng.random() < 0.5)
        elif cmd == "exceptional":
            n = near(2, 40)
            argv = [cmd, "--n", n, *maybe("--N", near(1, max(n, 0) // 5 + 1)),
                    *maybe("--sum-cap", near(0, n)),
                    *maybe("--lo-margin", rng.choice([-5, 0, 20, "inf", "nan"])),
                    *(["--asymptotic"] * (rng.random() < 0.5))]
        elif cmd == "repcount":
            n = near(0, 40)
            argv = [cmd, "--n", n, "--N", near(1, 8), *maybe("--sum-cap", near(0, n))]
        elif cmd == "concentration":
            N = near(2, 12)
            argv = [cmd, "--N", N, "--E", near(0, tri(max(N, 0))), "--n", near(2, N),
                    "--trials", near(0, 30), "--seed", rng.randint(0, 9)]
        elif cmd == "closure":
            n = near(2, 8)
            argv = [cmd, "--n", n, "--r", near(1, 4), "--m", near(2, n), *maybe("--trials", near(0, 3))]
        else:
            m = rng.randint(-1, 300)
            top = tri(max(m, 0))
            f = rng.choice([rng.randint(-2, 3), rng.randint(top - 3, top + 2), rng.randint(0, top)])
            argv = [cmd, "--m", m, "--f", f]
        offers_check = cmd in ("classify", "minr", "dm", "witness", "repcount")
        argv = [str(a) for a in argv] + ["--check"] * (offers_check and rng.random() < 0.5)
        if rng.random() < 0.05:
            argv[rng.choice((2, 4)) if len(argv) > 4 else 2] = "1.5"
        argvs.append(argv)
    return argvs


def test_cli_fuzz_keeps_exit_contract(capsys):
    # the real (3004, 3003) calls, rank 1001, exit 0
    argvs = _fuzz_argvs(2500, seed=11) + [["minr", "--m", "3004", "--f", "3003"],
                                          ["classify", "--m", "3004", "--f", "3003", "--check"]]
    codes = set()
    for argv in argvs:
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
        out, err = capsys.readouterr()
        lines = err.strip().splitlines()
        assert code in (0, 1, 2), argv
        assert _manifest(err)["output_digest"], argv
        for option, least in (("--trials", 1), ("--sum-cap", 0)):
            value = argv[argv.index(option) + 1] if option in argv else ""
            if value.lstrip("-").isdigit() and int(value) < least:
                assert code == 2, argv  # no draw or a negative cap certifies nothing
        if "--asymptotic" in argv and "--N" in argv:
            assert code == 2, argv  # asymptotic mode sets N itself
        if code and not (code == 1 and out):  # a negative verdict prints its payload
            assert any(line.startswith(("error: ", "check failed: ")) or ": error: " in line
                       for line in lines[:-1]), argv
        codes.add(code)
    assert codes == {0, 1, 2}


@pytest.mark.parametrize("argv", [
    ["interval", "--n", "30", "--r", "3", "--c-low", "0", "--c-high", "0", "--check"],
    ["witness7", "--n", "30000"],
    ["witness7", "--n", "30000", "--m", "100000000", "--samples", "3"],
    # float options take finite values only
    ["interval", "--n", "30", "--r", "3", "--c-low", "0", "--c-high", "inf"],
    ["interval", "--n", "30", "--r", "3", "--c-low", "nan", "--c-high", "0"],
    ["exceptional", "--n", "30", "--lo-margin", "inf"],
])
def test_usage_error_exits_2_with_manifest(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error:" in err
    assert _manifest(err)["parameters"] == {"argv": argv}


@pytest.mark.parametrize("argv", [
    ["witness", "--n", "12", "--r", "3", "--m", "18", "--check"],
    ["spectrum", "--n", "12", "--r", "3", "--check"],
])
def test_check_rejects_witness_with_too_many_parts(capsys, monkeypatch, argv):
    from edgespectra import cliquespec
    from edgespectra.triangles import tri

    real = cliquespec.member_witness

    def extra_part(n, r, m):
        # a partition of n with r + 1 nonzero parts and edge sum m, when there is one
        for parts in cliquespec.bounded_partitions(n, r + 1):
            if len(parts) == r + 1 and sum(tri(p) for p in parts) == m:
                return cliquespec.CliquePartition(parts=parts, n=n)
        return real(n, r, m)

    monkeypatch.setattr(cliquespec, "member_witness", extra_part)
    code, out, err = run_cli(capsys, argv)
    assert code == 1 and out == ""
    assert "check failed:" in err
    assert _manifest(err)["subcommand"] == argv[0]


def test_spectrum_check_builds_each_layer_once(capsys, monkeypatch):
    from edgespectra import cliquespec

    built, real = [], cliquespec._layer
    monkeypatch.setattr(cliquespec, "_layer",
                        lambda prev, k, cap, target: built.append(k) or real(prev, k, cap, target))
    code, out, _ = run_cli(capsys, ["spectrum", "--n", "60", "--r", "5", "--check"])
    assert code == 0 and json.loads(out)["count"] == 893
    assert sorted(built) == [1, 2, 3]  # layer r - 1 = 4 is streamed into the top row
    assert 4 not in built


# Calls that set different options of one subparser, an argparse error and
# the call after it: a parser that kept state between calls would differ
# from a fresh one somewhere here.
PARSER_STATE_SEQUENCE = [
    "witness7 --n 30000 --m 100000000",
    "witness7 --n 30000 --samples 3",
    "witness7 --n 30000 --m 100000000 --samples 3",
    "witness7 --n 30000 --m 100000000",
    "closure --n 6 --r 2 --m 3",
    "closure --n 6 --r 2 --m 3 --trials 5",
    "closure --n 6 --r 2 --m 3",
    "spectrum --n 5",
    "spectrum --n 5 --r 2",
]


def _outcome(capsys, argv):
    try:
        code = main(argv.split())
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, _manifest(captured.err)["parameters"]


def test_shared_parser_carries_no_state(capsys, monkeypatch):
    from edgespectra import cli

    shared = [_outcome(capsys, argv) for argv in PARSER_STATE_SEQUENCE]
    monkeypatch.setattr(cli, "_shared_parser", cli.build_parser)  # a fresh parser per call
    fresh = [_outcome(capsys, argv) for argv in PARSER_STATE_SEQUENCE]
    assert [code for code, _, _ in shared] == [0, 0, 2, 0, 0, 0, 0, 2, 0]
    assert shared == fresh


def test_main_builds_the_parser_once(capsys, monkeypatch):
    from edgespectra import cli

    built, real = [], cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
    cli._shared_parser.cache_clear()
    try:
        run_cli(capsys, ["minr", "--m", "4", "--f", "3"])
        run_cli(capsys, ["dm", "--m", "8", "--f", "17"])
    finally:
        cli._shared_parser.cache_clear()
    assert len(built) == 1


# One argv per COMMANDS row, with its options, flags and choices set.
ONE_PER_COMMAND = {
    "spectrum": "spectrum --n 12 --r 3 --export out.txt --check",
    "witness": "witness --n 12 --r 3 --m 30 --check",
    "density": "density --n 50 --r 4",
    "interval": "interval --n 30 --r 3 --c-low 0.5 --c-high 1e-3 --clip",
    "classify": "classify --m 7 --f 12 --check",
    "minr": "minr --m 40 --f 300",
    "dm": "dm --m 8 --f 17 --check",
    "pell": "pell --k 3",
    "abc": "abc --k-max 2",
    "three-squares": "three-squares --v 1000003 --check",
    "bennett": "bennett --y-limit 50",
    "witness7": "witness7 --n 30000 --samples 3 --seed 3 --threads 1",
    "arrow": "arrow --n 5 --e 6 --m 3 --f 3 --dedup --check",
    "snm": "snm --n 6 --m 3 --f 1",
    "turan": "turan --n 7 --m 4",
    "runs": "runs --n 5 --m 3 --f 2",
    "closure": "closure --n 6 --r 2 --m 3 --trials 5",
    "concentration": "concentration --N 8 --E 10 --n 4 --trials 50",
    "repcount": "repcount --n 30 --N 8 --sum-cap 20 --csv out.csv",
    "exceptional": "exceptional --n 30 --N 9 --lo-margin 0.5 --asymptotic",
}

# Usage errors of a subcommand: a missing or unknown option, a bad value,
# a choice set twice, an extra word, and options before the name.
USAGE_ERRORS = [
    "spectrum --n 5",
    "spectrum --n 5 --r 2 --bogus",
    "spectrum --n 5 --r 2 extra words",
    "spectrum --n five --r 2",
    "interval --n 30 --r 3 --c-low 0 --c-high nan",
    "witness7 --n 30000 --m 1 --samples 3",
    "witness7 --n 30000",
    "dm --m 8 --f 17 --version",
    "--n 5 spectrum --r 2",
    "nonsense --n 5",
]


def test_subcommand_parse_matches_top_parser():
    from edgespectra import cli

    parser = cli.build_parser()
    assert set(ONE_PER_COMMAND) == set(cli.COMMANDS)
    for name, argv in ONE_PER_COMMAND.items():
        args = cli._parse(parser, argv.split())
        assert args == parser.parse_args(argv.split()) and args.cmd == name, argv


@pytest.mark.parametrize("argv", USAGE_ERRORS)
def test_subcommand_parse_usage_errors_match_top_parser(capsys, argv):
    from edgespectra import cli

    parser = cli.build_parser()
    outcomes = []
    for parse in (cli._parse, argparse.ArgumentParser.parse_args):
        with pytest.raises(SystemExit) as exc:
            parse(parser, argv.split())
        outcomes.append((exc.value.code, capsys.readouterr()))
    assert outcomes[0] == outcomes[1]
    code, captured = outcomes[0]
    assert code == 2 and captured.err.startswith("usage: edgespectra")
