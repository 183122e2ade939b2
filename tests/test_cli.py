import tracemalloc

import pytest

from schubert_gb import fixtures as fixture_mod
from schubert_gb.cli import main
from schubert_gb.fixtures import FixtureMissingError, load_generator
from schubert_gb.formats import parse_basis, parse_matrix
from schubert_gb.validation import ENUM_ENV_VAR

from conftest import wide_lead_basis_text


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParams:
    def test_reference_line(self, capsys):
        code, out, _ = run(capsys, "params", "--l", "2", "--m", "5", "--q", "2", "--alpha", "1,4")
        assert code == 0 and out == "n=7 k=3 d=4 t=1 mds=no\n"
        # a sign and blanks around each alpha entry are read
        assert run(capsys, "params", "--l", "2", "--m", "5", "--q", "2", "--alpha", " +1, 4")[1] == out

    def test_other_reference_specs(self, capsys):
        code, out, _ = run(capsys, "params", "--l", "2", "--m", "5", "--q", "2", "--alpha", "1,5")
        assert code == 0 and "n=15 k=4 d=8" in out
        code, out, _ = run(capsys, "params", "--l", "2", "--m", "5", "--q", "2", "--alpha", "2,4")
        assert code == 0 and "n=19 k=5 d=8 t=3" in out

    def test_mds_flag_yes(self, capsys):
        # full projective line gives an MDS simplex code [3, 2, 2]
        code, out, _ = run(capsys, "params", "--l", "1", "--m", "2", "--q", "2", "--alpha", "2")
        assert code == 0 and "mds=yes" in out

    def test_invalid_alpha_exits_2(self, capsys):
        code, _, err = run(capsys, "params", "--l", "2", "--m", "5", "--q", "2", "--alpha", "5,5")
        assert code == 2 and "error" in err

    def test_large_prime_modulus_answers(self, capsys):
        q = 2**61 - 1
        code, out, _ = run(capsys, "params", "--l", "1", "--m", "2", "--q", str(q), "--alpha", "2")
        assert code == 0 and out.startswith(f"n={q + 1} k=2 d={q} ")

    def test_modulus_beyond_int64_exits_2(self, capsys):
        code, _, err = run(capsys, "params", "--l", "1", "--m", "2", "--q", str(2**63),
                           "--alpha", "2")
        assert code == 2 and "int64" in err


    def test_one_point_variety_in_a_huge_ambient_space(self, capsys):
        code, out, _ = run(capsys, "params", "--l", "2", "--m", "100000", "--q", "2",
                           "--alpha", "1,2")
        assert code == 0 and out.startswith("n=1 k=1 ")


class TestBuild:
    def test_huge_ambient_space_exit_3(self, capsys, tmp_path):
        code, _, err = run(capsys, "build", "--l", "2", "--m", "100000", "--q", "2",
                           "--alpha", "1,2", "-o", str(tmp_path / "g.txt"))
        assert code == 3 and "index tuple enumeration" in err

    def test_output_matches_fixture_columns(self, capsys, tmp_path):
        out_file = tmp_path / "gen.txt"
        code, _, _ = run(
            capsys, "build", "--l", "2", "--m", "5", "--q", "2",
            "--alpha", "2,3", "-o", str(out_file),
        )
        assert code == 0
        M, p = parse_matrix(out_file.read_text())
        fixture = load_generator("2_3")
        assert sorted(map(tuple, M.T)) == sorted(map(tuple, fixture.T))

    def test_byte_identical_reruns(self, capsys, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        for f in (a, b):
            assert run(
                capsys, "build", "--l", "2", "--m", "5", "--q", "2",
                "--alpha", "1,5", "-o", str(f),
            )[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_full_grassmannian_shape(self, capsys, tmp_path):
        out_file = tmp_path / "grass.txt"
        code, _, _ = run(
            capsys, "build", "--l", "2", "--m", "5", "--q", "2",
            "--alpha", "4,5", "-o", str(out_file),
        )
        assert code == 0
        M, _ = parse_matrix(out_file.read_text())
        assert M.shape == (10, 155)

    def test_emit_points(self, capsys, tmp_path):
        out_file, pts_file = tmp_path / "g.txt", tmp_path / "p.txt"
        code, _, _ = run(
            capsys, "build", "--l", "2", "--m", "4", "--q", "2",
            "--alpha", "1,3", "-o", str(out_file), "--emit-points", str(pts_file),
        )
        assert code == 0
        lines = pts_file.read_text().splitlines()
        assert lines[0].startswith("#") and len(lines) == 3 + 1


    @pytest.mark.parametrize("argv, message", [
        (["build", "--l", "1", "--m", "2", "--q", "4294967311", "--alpha", "2"],
         "point enumeration needs 4294967312 > 16777216 points"),
        (["build", "--l", "2", "--m", "100000", "--q", "2", "--alpha", "1,2"],
         "index tuple enumeration needs 4999950000 > 16777216 index tuples"),
    ], ids=["points", "index_tuples"])
    def test_guard_names_what_it_counts(self, capsys, tmp_path, monkeypatch, argv, message):
        monkeypatch.delenv(ENUM_ENV_VAR, raising=False)
        code, _, err = run(capsys, *argv, "-o", str(tmp_path / "g.txt"))
        assert code == 3 and err == (f"error: enumeration bound exceeded: {message} "
                                     f"(set {ENUM_ENV_VAR} above 24, the bound's base-2 exponent)\n")


class TestGb:
    def test_reference_count_and_t(self, capsys, tmp_path, fixture_matrix_file):
        basis_file = tmp_path / "basis.txt"
        code, out, _ = run(
            capsys, "gb", "--matrix", fixture_matrix_file("1_4"), "-o", str(basis_file)
        )
        assert code == 0 and out == "elements=21 t=1\n"

    def test_spot_element_present_1_5(self, capsys, tmp_path, fixture_matrix_file):
        basis_file = tmp_path / "basis.txt"
        run(capsys, "gb", "--matrix", fixture_matrix_file("1_5"), "-o", str(basis_file))
        text = basis_file.read_text()
        assert "x1*x2*x3*x4 - x8*x9*x11*x13" in text

    def test_roundtrip_parse(self, capsys, tmp_path, fixture_matrix_file, bases):
        basis_file = tmp_path / "basis.txt"
        run(capsys, "gb", "--matrix", fixture_matrix_file("2_3"), "-o", str(basis_file))
        assert parse_basis(basis_file.read_text()) == bases["2_3"]

    def test_code_without_binomials_exits_2_and_writes_nothing(self, capsys, tmp_path):
        # the k = 0 code: every word is its own coset leader, so t is undefined
        matrix, out = tmp_path / "k0.txt", tmp_path / "b.txt"
        matrix.write_text("0 5 2\n")
        code, stdout, err = run(capsys, "gb", "--matrix", str(matrix), "-o", str(out))
        assert (code, stdout) == (2, "")
        assert err == "error: capability undefined: basis has no code binomials\n"
        assert not out.exists()

    def test_guard_exit_3(self, capsys, tmp_path):
        gen = tmp_path / "grass.txt"
        run(capsys, "build", "--l", "2", "--m", "5", "--q", "2", "--alpha", "4,5",
            "-o", str(gen))
        code, _, err = run(capsys, "gb", "--matrix", str(gen))
        assert code == 3 and "error" in err

    @pytest.mark.parametrize("value, status, message", [
        ("14", 0, None),
        ("13", 3, "error: enumeration bound exceeded: coset leader table needs 16384 > 8192 cosets "
                  f"(set {ENUM_ENV_VAR} above 13, the bound's base-2 exponent)"),
        ("\u0661\u0662", 2, f"error: {ENUM_ENV_VAR} must be an integer from 0 to 64, got '\u0661\u0662'"),
        ("65", 2, f"error: {ENUM_ENV_VAR} must be an integer from 0 to 64, got '65'"),
    ], ids=["14", "13", "arabic_indic", "65"])
    def test_guard_exponent_from_the_environment(
        self, capsys, monkeypatch, fixture_matrix_file, value, status, message
    ):
        monkeypatch.setenv(ENUM_ENV_VAR, value)  # [19,5,8]: 2^14 cosets
        code, out, err = run(capsys, "gb", "--matrix", fixture_matrix_file("2_4"))
        assert code == status
        if message is None:
            assert out == "elements=2127 t=3\n" and err == ""
        else:
            assert out == "" and err == message + "\n"

    def test_missing_file_exit_2(self, capsys):
        code, _, _ = run(capsys, "gb", "--matrix", "/nonexistent/file.txt")
        assert code == 2

    def test_distance_two_code_builds_and_decodes(self, capsys, tmp_path):
        # G(2,5) with alpha = (1,3) is the [3,2,2] code: its leads x2 and x1 give t = 0
        gen, basis = tmp_path / "g.txt", tmp_path / "b.txt"
        assert run(capsys, "build", "--l", "2", "--m", "5", "--q", "2", "--alpha", "1,3",
                   "-o", str(gen))[0] == 0
        code, out, _ = run(capsys, "gb", "--matrix", str(gen), "-o", str(basis))
        assert code == 0 and out == "elements=3 t=0\n"
        assert basis.read_text().splitlines()[1:] == ["x2 - x3", "x1 - x3", "x3^2 - 1"]
        code, out, _ = run(capsys, "decode", "--basis", str(basis), "--word", "110")
        assert code == 0 and out.startswith("status=decoded canonical=1 ")

    @pytest.mark.parametrize("command", ["decode", "build", "gb"])
    def test_directory_path_exit_2(self, capsys, tmp_path, fixture_matrix_file, command):
        argv = {
            "decode": ["decode", "--basis", str(tmp_path), "--word", "x1"],
            "build": ["build", "--l", "2", "--m", "5", "--q", "2", "--alpha", "1,3",
                      "-o", str(tmp_path)],
            "gb": ["gb", "--matrix", fixture_matrix_file("1_4"), "-o", str(tmp_path)],
        }[command]
        code, _, err = run(capsys, *argv)
        assert code == 2 and err.startswith("error: ") and err.count("\n") == 1
        assert "Is a directory" in err

    @pytest.mark.parametrize("command", ["gb", "simulate"])
    @pytest.mark.parametrize("n", [1000000, 99999999999999])
    def test_wide_matrix_header_refused_before_allocation(self, capsys, tmp_path, command, n):
        matrix = tmp_path / "wide.txt"
        matrix.write_text(f"0 {n} 2\n")
        args = ["--model", "fixed_weight:1"] if command == "simulate" else []
        tracemalloc.start()
        try:
            code, _, err = run(capsys, command, "--matrix", str(matrix), *args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3 and err.startswith("error: enumeration bound exceeded")
        assert err.count("\n") == 1
        assert peak < 1 << 20  # nothing sized by n was built

    def test_long_code_within_the_coset_guard_exits_2(self, capsys, tmp_path):
        # n = 70, k = 60: 2^10 cosets pass the guard, the length does not fit a word
        rows = [[int(i == j) for j in range(60)] + [1] * 10 for i in range(60)]
        matrix = tmp_path / "long.txt"
        matrix.write_text("60 70 2\n" + "".join(" ".join(map(str, r)) + "\n" for r in rows))
        code, _, err = run(capsys, "gb", "--matrix", str(matrix))
        assert code == 2 and "word length 70 exceeds limit 64" in err

    def test_entry_beyond_int64_exits_2(self, capsys, tmp_path):
        matrix = tmp_path / "huge_entry.txt"
        matrix.write_text("1 2 2\n99999999999999999999999 0\n")
        code, _, err = run(capsys, "gb", "--matrix", str(matrix))
        assert code == 2 and "int64" in err

    def test_large_prime_matrix_is_binary_only(self, capsys, tmp_path):
        matrix = tmp_path / "big_q.txt"
        matrix.write_text(f"1 1 {2**61 - 1}\n1\n")
        code, _, err = run(capsys, "gb", "--matrix", str(matrix))
        assert code == 2 and "binary only" in err


class TestDecode:
    def test_reference_row_2_3(self, capsys, basis_file):
        code, out, _ = run(
            capsys, "decode", "--basis", basis_file("2_3"), "--word", "x2*x5*x7"
        )
        assert code == 0
        assert "status=decoded" in out
        assert "canonical=x4" in out
        assert "codeword=x2*x4*x5*x7" in out

    def test_reference_row_1_4_binary_word(self, capsys, basis_file):
        code, out, _ = run(
            capsys, "decode", "--basis", basis_file("1_4"), "--word", "0111101"
        )
        # received x2*x3*x4*x5*x7 decodes to x3*x4*x5*x7 with canonical x2
        assert code == 0
        assert "canonical=x2" in out and "codeword=x3*x4*x5*x7" in out

    def test_codeword_input(self, capsys, basis_file):
        code, out, _ = run(
            capsys, "decode", "--basis", basis_file("1_4"), "--word", "1000111"
        )
        assert code == 0 and "canonical=1 " in out and "error=0000000" in out

    def test_too_many_errors_bounded_vs_complete(self, capsys, basis_file):
        word = "1100000"  # weight-2 error pattern beyond t=1
        code, out, _ = run(capsys, "decode", "--basis", basis_file("1_4"), "--word", word)
        assert code == 0 and "status=too_many_errors" in out and "nf_weight=2" in out
        code, out, _ = run(
            capsys, "decode", "--basis", basis_file("1_4"), "--word", word,
            "--mode", "complete",
        )
        assert code == 0 and "status=decoded" in out

    def test_length_mismatch_exit_2(self, capsys, basis_file):
        code, _, err = run(
            capsys, "decode", "--basis", basis_file("1_4"), "--word", "x9"
        )
        assert code == 2 and "error" in err

    def test_wide_lead_basis_exit_3(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv(ENUM_ENV_VAR, "20")
        basis = tmp_path / "wide.txt"
        basis.write_text(wide_lead_basis_text())
        code, _, err = run(capsys, "decode", "--basis", str(basis), "--word", "x1")
        assert code == 3 and "basis reducedness check" in err

    def test_basis_wider_than_word_limit_exit_2(self, capsys, tmp_path):
        basis = tmp_path / "n65.txt"
        basis.write_text("# n=65 order=degrevlex field=GF(2)\n"
                         + "".join(f"x{i}^2 - 1\n" for i in range(1, 66)))
        code, _, err = run(capsys, "decode", "--basis", str(basis), "--word", "x1")
        assert code == 2 and "word length 65 exceeds limit 64" in err

    @pytest.mark.parametrize("body,message", [
        ("x65*x1 - 1\n", "variable index 65 too large in 'x65*x1'"),
        ("x0 - 1\n", "bad term factor 'x0'"),
        ("".join(f"x{i}^2 - 1\n" for i in range(1, 64)),  # x64^2 - 1 dropped
         "basis must contain exactly the 64 field relations"),
        ("x1^2*x2 - 1\n", "mixed squared and plain factors in 'x1^2*x2'"),
    ], ids=["x65", "x0", "dropped_field_relation", "mixed_square"])
    def test_hostile_basis_file_exit_2(self, capsys, tmp_path, body, message):
        basis = tmp_path / "hostile.txt"
        basis.write_text("# n=64 order=degrevlex field=GF(2)\n" + body)
        code, _, err = run(capsys, "decode", "--basis", str(basis), "--word", "x1")
        assert code == 2 and err == f"error: {message}\n"

    @pytest.mark.parametrize("word,message", [
        ("x100000000", "variable index 100000000 too large in 'x100000000'"),
        ("x65", "variable index 65 too large in 'x65'"),
        ("x0", "bad term factor 'x0'"),
    ])
    def test_out_of_range_word_exit_2_with_a_short_line(self, capsys, basis_file, word, message):
        code, _, err = run(capsys, "decode", "--basis", basis_file("1_4"), "--word", word)
        assert code == 2 and err == f"error: {message}\n" and len(err) < 200

    @pytest.mark.parametrize("word", ["0101", "00000000"])
    def test_binary_word_of_the_wrong_length_exit_2(self, capsys, basis_file, word):
        code, _, err = run(capsys, "decode", "--basis", basis_file("1_4"), "--word", word)
        assert code == 2 and err == f"error: binary word of length {len(word)}, expected 7\n"
        # a lone 1 is the monomial 1, not a word of length 1
        code, out, _ = run(capsys, "decode", "--basis", basis_file("1_4"), "--word", "1")
        assert code == 0 and out.startswith("status=decoded canonical=1 error=0000000 ")

    @pytest.mark.parametrize("tag", ["1_4", "1_5", "2_3", "2_4"])
    def test_every_fixture_table_row_replays(self, capsys, basis_file, tag):
        from schubert_gb.fixtures import load_decode_table
        from schubert_gb.words import monomial_to_string

        for received, canonical, decoded in load_decode_table(tag):
            code, out, _ = run(
                capsys, "decode", "--basis", basis_file(tag),
                "--word", monomial_to_string(received),
            )
            assert code == 0
            assert f"canonical={monomial_to_string(canonical)} " in out
            assert f"codeword={monomial_to_string(decoded)} " in out


class TestSimulate:
    def test_radius_one_success_line(self, capsys, fixture_matrix_file):
        code, out, _ = run(
            capsys, "simulate", "--matrix", fixture_matrix_file("1_4"),
            "--model", "fixed_weight:1", "--trials", "1000", "--seed", "42",
        )
        assert code == 0
        assert "trials=1000 successes=1000" in out

    def test_determinism(self, capsys, fixture_matrix_file):
        args = (
            "simulate", "--matrix", fixture_matrix_file("2_3"),
            "--model", "bsc:0.05", "--trials", "200", "--seed", "7",
        )
        assert run(capsys, *args)[1] == run(capsys, *args)[1]

    def test_negative_trials_exit_2(self, capsys, fixture_matrix_file):
        code, out, err = run(
            capsys, "simulate", "--matrix", fixture_matrix_file("1_4"),
            "--model", "fixed_weight:1", "--trials", "-1",
        )
        assert code == 2 and out == "" and "trials must be >= 0" in err

    def test_unknown_model_exit_2(self, capsys, fixture_matrix_file):
        code, _, err = run(
            capsys, "simulate", "--matrix", fixture_matrix_file("1_4"),
            "--model", "awgn:0.1",
        )
        assert code == 2 and "unknown model" in err


    @pytest.mark.parametrize("model", [
        "bsc:" + "x" * 10**5, "fixed_weight:" + "9" * 5000,
        "bsc:0.0_5", "bsc: 1e-1 ", "bsc:1e-1", "bsc:+0.1",
    ], ids=["bsc", "fixed_weight", "bsc_separator", "bsc_padded_exponent", "bsc_exponent",
            "bsc_sign"])
    def test_hostile_model_one_short_line(self, capsys, fixture_matrix_file, model):
        code, out, err = run(
            capsys, "simulate", "--matrix", fixture_matrix_file("1_4"), "--model", model,
        )
        assert code == 2 and out == "" and err.startswith("error: bad model '")
        assert err.count("\n") == 1 and len(err.encode()) < 300

    @pytest.mark.parametrize("crossover, label", [
        ("0", "0"), ("1", "1"), ("0.05", "0.05"), (".5", "0.5"), ("1.", "1"), (" 0.1 ", "0.1"),
    ])
    def test_decimal_crossovers_read(self, capsys, fixture_matrix_file, crossover, label):
        code, out, _ = run(
            capsys, "simulate", "--matrix", fixture_matrix_file("1_4"),
            "--model", f"bsc:{crossover}", "--trials", "10",
        )
        assert code == 0 and out.endswith(f" model=bsc({label})\n")

    @pytest.mark.parametrize("flag", ["--trials", "--seed"])
    @pytest.mark.parametrize("value", ["9" * 5000, "x" * 10**5, "1_0"],
                             ids=["digits", "letters", "separator"])
    def test_hostile_count_short_usage_error(self, capsys, fixture_matrix_file, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--matrix", fixture_matrix_file("1_4"),
                  "--model", "fixed_weight:1", flag, value])
        err = capsys.readouterr().err
        assert exc.value.code == 2 and err.startswith(f"error: argument {flag}: expected an integer")
        assert err.count("\n") == 1 and len(err.encode()) < 300

    def test_signed_padded_seed_read(self, capsys, fixture_matrix_file):
        args = ("simulate", "--matrix", fixture_matrix_file("1_4"), "--model", "fixed_weight:1",
                "--trials", "10")
        assert run(capsys, *args, "--seed", " +7 ") == run(capsys, *args, "--seed", "7")

    @pytest.mark.parametrize("argv", [
        [], ["nope"], ["gb"], ["params", "--l", "2"], ["verify-paper", "--only", "nope"],
    ], ids=["no_command", "unknown_command", "missing_option", "missing_options", "bad_choice"])
    def test_argument_errors_one_line(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_hostile_alpha_one_short_line(self, capsys):
        code, _, err = run(capsys, "params", "--l", "2", "--m", "5", "--q", "2",
                           "--alpha", "1," + "a" * 10**5)
        assert code == 2 and err.startswith("error: bad alpha '")
        assert err.count("\n") == 1 and len(err.encode()) < 300


class TestNonAsciiDigits:
    """int(), float() and \\d read any Unicode digit, such as U+0661, the
    Arabic-Indic one; every number the CLI reads takes ASCII digits only."""

    @pytest.mark.parametrize("case, bad", [
        ("word", "x1\u0661"),
        ("matrix_header", "\u0661 7 2"),
        ("matrix_row", "1 0 0 0 1 1 \u0661"),
        ("basis_header", "\u0667"),
        ("trials", "\u0661\u0660"),
        ("seed", "\u0661"),
        ("alpha", "\u0661,4"),
        ("model", "fixed_weight:\u0661"),
        ("model", "bsc:0.\u0661"),
    ])
    def test_refused_with_one_quoted_line(
        self, capsys, tmp_path, basis_file, fixture_matrix_file, case, bad
    ):
        path = tmp_path / "input.txt"
        simulate = ["simulate", "--matrix", fixture_matrix_file("1_4"), "--model"]
        argv = {
            "word": ["decode", "--basis", basis_file("2_4"), "--word", bad],
            "matrix_header": ["gb", "--matrix", str(path)],
            "matrix_row": ["gb", "--matrix", str(path)],
            "basis_header": ["decode", "--basis", str(path), "--word", "x1"],
            "trials": simulate + ["fixed_weight:1", "--trials", bad],
            "seed": simulate + ["fixed_weight:1", "--seed", bad],
            "alpha": ["params", "--l", "2", "--m", "5", "--q", "2", "--alpha", bad],
            "model": simulate + [bad],
        }[case]
        path.write_text({
            "matrix_header": f"{bad}\n1 0 0 0 1 1 1\n",
            "matrix_row": f"1 7 2\n{bad}\n",
            "basis_header": f"# n={bad} order=degrevlex field=GF(2)\nx1^2 - 1\n",
        }.get(case, ""))
        capsys.readouterr()  # what writing the basis file printed
        try:
            code = main(argv)
        except SystemExit as exc:  # the argument parser refuses --trials and --seed
            code = exc.code
        out, err = capsys.readouterr()
        lines = err.splitlines()
        assert code == 2 and out == "" and len(err.encode()) < 300
        assert len(lines) == 1 and lines[0].startswith("error: ") and repr(bad) in lines[0]


class TestVerifyPaper:
    def test_full_run_passes(self, capsys):
        code, out, _ = run(capsys, "verify-paper")
        assert code == 0
        assert "FAIL" not in out
        assert out.strip().splitlines()[-1].endswith("checks passed")

    def test_only_params_section(self, capsys):
        code, out, _ = run(capsys, "verify-paper", "--only", "params")
        assert code == 0
        lines = [ln for ln in out.splitlines() if ln.startswith("PASS")]
        assert lines and all(ln.startswith("PASS params:") for ln in lines)

    def test_only_integrity(self, capsys):
        code, out, _ = run(capsys, "verify-paper", "--only", "integrity")
        assert code == 0 and "PASS integrity:checksums" in out

    def test_tampered_fixture_exit_1(self, capsys, monkeypatch):
        real_read = fixture_mod._read

        def tampered(name):
            text = real_read(name)
            if name == "c_1_4.gen.txt":
                return text.replace("1 0 0 0 1 1 1", "1 0 0 0 1 1 0", 1)
            return text

        monkeypatch.setattr(fixture_mod, "_read", tampered)
        code, out, _ = run(capsys, "verify-paper", "--only", "integrity")
        assert code == 1 and "FAIL integrity:checksums" in out

    def test_missing_fixture_exit_4(self, capsys, monkeypatch):
        def missing(name):
            raise FixtureMissingError(f"fixture {name!r} is missing")

        monkeypatch.setattr(fixture_mod, "_read", missing)
        code, _, err = run(capsys, "verify-paper", "--only", "integrity")
        assert code == 4 and "missing" in err


@pytest.fixture(scope="module")
def fixture_matrix_file(tmp_path_factory):
    """Write fixture generator matrices to disk for CLI consumption."""
    from schubert_gb.formats import format_matrix

    base = tmp_path_factory.mktemp("matrices")

    def _write(tag):
        path = base / f"gen_{tag}.txt"
        if not path.exists():
            path.write_text(format_matrix(load_generator(tag), 2))
        return str(path)

    return _write


@pytest.fixture(scope="module")
def basis_file(tmp_path_factory, fixture_matrix_file):
    from schubert_gb.cli import main as cli_main

    base = tmp_path_factory.mktemp("bases")

    def _write(tag):
        path = base / f"basis_{tag}.txt"
        if not path.exists():
            assert cli_main(["gb", "--matrix", fixture_matrix_file(tag),
                             "-o", str(path)]) == 0
        return str(path)

    return _write
