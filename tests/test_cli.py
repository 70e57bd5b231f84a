"""Exit codes, report schemas, and file round trips for the derinv CLI."""

import gc
import json

import pytest

from derinv import cli
from derinv.algebras import Algebra, load_algebra, save_algebra


@pytest.fixture
def c4_file(tmp_path, c4):
    path = tmp_path / "c4.json"
    save_algebra(c4, path)
    return str(path)


@pytest.fixture
def klein_file(tmp_path, klein):
    path = tmp_path / "klein.json"
    save_algebra(klein, path)
    return str(path)


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


class TestCheck:
    def test_reports_basic_facts(self, capsys, c4_file):
        code, doc = run_json(capsys, "check", c4_file)
        assert code == 0
        assert doc["schema_version"] == 1
        assert doc["field"] == {"p": 2, "e": 1}
        assert doc["dim"] == 4 and doc["symmetric"] is True
        assert doc["dim_center"] == 4 and doc["dim_commutator"] == 0
        assert isinstance(doc["gram_fingerprint"], str)

    def test_malformed_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        assert cli.main(["check", str(bad)]) == 2

    def test_missing_file(self, capsys, tmp_path):
        assert cli.main(["check", str(tmp_path / "nope.json")]) == 2

    @pytest.mark.parametrize("key", ["dim", "e"])
    @pytest.mark.parametrize("bad", [True, [1], {}], ids=["true", "list", "object"])
    def test_non_integer_for_an_integer(self, capsys, tmp_path, k2, key, bad):
        # true == 1, so a one-dimensional algebra got past the parser
        from derinv.algebras import algebra_to_json

        doc = algebra_to_json(k2)
        del doc["basis"]
        (doc["field"] if key == "e" else doc)[key] = bad
        path = tmp_path / "bad_int.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["check", str(path)]) == 2
        assert capsys.readouterr().out == ""

    def test_wrong_schema_version(self, capsys, tmp_path, c4):
        from derinv.algebras import algebra_to_json

        doc = algebra_to_json(c4)
        doc["schema_version"] = 99
        path = tmp_path / "v99.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["check", str(path)]) == 2


class TestSignature:
    def test_json_output_is_serialized_signature(self, capsys, c4_file):
        code, doc = run_json(capsys, "signature", c4_file)
        assert code == 0
        assert set(doc) == {"schema_version", "field", "gram_fingerprint", "entries"}
        assert doc["entries"]["dim_t_perp_1"] == 2
        assert doc["entries"]["stabilization_index"] == 2

    def test_text_output(self, capsys, c4_file):
        code, out = run(capsys, "signature", c4_file, "--text")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "field GF(2)"
        assert any(line == "stabilization_index = 2" for line in lines)

    def test_deterministic_bytes(self, capsys, klein_file):
        _, first = run(capsys, "signature", klein_file)
        _, second = run(capsys, "signature", klein_file)
        assert first == second

    def test_degree_flags(self, capsys, c4_file):
        code, doc = run_json(
            capsys, "signature", c4_file, "--n-max", "2", "--m-max", "1",
            "--kappa", "0,1", "--kappa", "1,1",
        )
        assert code == 0
        e = doc["entries"]
        assert "dim_t_perp_2" in e and "dim_t_perp_3" not in e
        assert "dim_hh_homology_1" in e and "dim_hh_homology_2" not in e
        assert "dim_im_kappa_m1_n1" in e and "dim_im_kappa_m2_n1" not in e

    def test_bad_kappa_flag(self, capsys, c4_file):
        assert cli.main(["signature", c4_file, "--kappa", "1"]) == 2
        assert cli.main(["signature", c4_file, "--kappa", "a,b"]) == 2


class TestParser:
    def test_built_once_per_process(self, capsys, c4_file, monkeypatch):
        built = []
        real = cli.build_parser

        def counting():
            built.append(1)
            return real()

        monkeypatch.setattr(cli, "build_parser", counting)
        cli._parser.cache_clear()
        try:
            outcomes = []
            for argv in (["check", c4_file], ["hh", c4_file], ["hh", c4_file, "-m", "1"],
                         ["nosuch"], ["check", c4_file]):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
                captured = capsys.readouterr()
                outcomes.append((code, captured.out, captured.err))
        finally:
            cli._parser.cache_clear()
        assert len(built) == 1
        assert [code for code, _, _ in outcomes] == [0, 2, 0, 2, 0]
        assert outcomes[0] == outcomes[4]
        assert json.loads(outcomes[2][1])["m"] == 1
        # the argparse errors read as they do from a parser built afresh
        for argv, (_, _, err) in ((["hh", c4_file], outcomes[1]), (["nosuch"], outcomes[3])):
            with pytest.raises(SystemExit):
                real().parse_args(argv)
            assert err == capsys.readouterr().err
        assert "the following arguments are required: -m" in outcomes[1][2]
        assert "invalid choice: 'nosuch'" in outcomes[3][2]


class TestCompare:
    def test_flagship_distinguished_exit_10(self, capsys, c4_file, klein_file):
        code, doc = run_json(capsys, "compare", c4_file, klein_file)
        assert code == 10
        assert doc["verdict"] == "DISTINGUISHED"
        keys = {d["key"] for d in doc["differences"]}
        assert {"dim_t_perp_1", "stabilization_index"} <= keys

    def test_self_compare_exit_0(self, capsys, c4_file):
        code, doc = run_json(capsys, "compare", c4_file, c4_file)
        assert code == 0
        assert doc["verdict"] == "INCONCLUSIVE"
        assert doc["differences"] == []

    def test_signature_file_input(self, capsys, tmp_path, c4_file, klein_file):
        _, sig_text = run(capsys, "signature", c4_file)
        sig_path = tmp_path / "sig.json"
        sig_path.write_text(sig_text)
        code, doc = run_json(capsys, "compare", str(sig_path), klein_file)
        assert code == 10 and doc["verdict"] == "DISTINGUISHED"

    def test_incomparable_fields_exit_2(self, capsys, tmp_path, c4_file, trunc3_3):
        other = tmp_path / "t3.json"
        save_algebra(trunc3_3, other)
        assert cli.main(["compare", c4_file, str(other)]) == 2


class TestDegreeCommands:
    def test_zeta_report(self, capsys, c4_file):
        code, doc = run_json(capsys, "zeta", c4_file, "-n", "1")
        assert code == 0
        assert doc["dim_center"] == 4 and doc["dim_t"] == 2
        assert doc["dim_im_zeta"] == 2 and doc["twist"] == -1
        assert doc["stabilization_index"] == 2
        assert len(doc["matrix"]) == 4

    def test_kappa_report(self, capsys, klein_file):
        code, doc = run_json(capsys, "kappa", klein_file, "-n", "1")
        assert code == 0
        assert doc["dim_a_mod_ka"] == 4
        assert doc["dim_im_kappa"] + doc["dim_ker_kappa"] == 4

    def test_hh_default_reports_both(self, capsys, c4_file):
        code, doc = run_json(capsys, "hh", c4_file, "-m", "2")
        assert code == 0
        assert doc["dim_homology"] == doc["dim_cohomology"] == 4

    def test_hh_single_side(self, capsys, c4_file):
        _, doc = run_json(capsys, "hh", c4_file, "-m", "1", "--homology")
        assert "dim_homology" in doc and "dim_cohomology" not in doc
        _, doc = run_json(capsys, "hh", c4_file, "-m", "1", "--cohomology")
        assert "dim_cohomology" in doc and "dim_homology" not in doc

    def test_hh_cap_exit_3(self, capsys, c4_file, monkeypatch):
        monkeypatch.setenv("KK_SIZE_CAP", "1000")
        assert cli.main(["hh", c4_file, "-m", "3"]) == 3

    @pytest.mark.parametrize("value", ["abc", "0", "-5", "1e6", "2**20"])
    def test_malformed_cap_exit_2(self, capsys, c4_file, monkeypatch, value):
        # a cap that is not a decimal integer >= 1 is an input error, not
        # a cap that refuses everything
        monkeypatch.setenv("KK_SIZE_CAP", value)
        for argv in (["hh", c4_file, "-m", "1"], ["signature", c4_file]):
            code = cli.main(argv)
            captured = capsys.readouterr()
            assert code == 2 and captured.out == ""
            assert captured.err.startswith("error: KK_SIZE_CAP must be a decimal integer >= 1")

    def test_command_frees_its_algebra(self, capsys, c4_file):
        # cached results hold their algebra by weak reference, so a
        # finished command leaves no algebra alive even with the
        # collector paused
        def live():
            return sum(isinstance(o, Algebra) for o in gc.get_objects())

        was_enabled = gc.isenabled()
        gc.disable()
        try:
            before = live()
            code, _ = run(capsys, "hh", c4_file, "-m", "1")
            assert code == 0
            assert live() <= before
        finally:
            if was_enabled:
                gc.enable()

    def test_kappam_report(self, capsys, c4_file):
        code, doc = run_json(capsys, "kappam", c4_file, "-m", "1", "-n", "1")
        assert code == 0
        assert doc["source_degree"] == 2 and doc["zero_regime"] is False
        assert doc["dim_hh_m"] == 4
        assert doc["dim_im_kappa"] == doc["dim_hh_m"] - doc["dim_t"]

    def test_gerst_report(self, capsys, tmp_path, dual2):
        path = tmp_path / "dual2.json"
        save_algebra(dual2, path)
        code, doc = run_json(capsys, "gerst", str(path), "--check-restricted")
        assert code == 0
        assert doc["degree"] == 1 and doc["dim_hh"] == 2
        assert doc["sigma_rank"] == 2 and doc["dim_derived_hh1"] == 1
        assert doc["restricted_axioms"]["all_passed"] is True

    def test_gerst_cap_exit_3(self, capsys, c4_file, monkeypatch):
        # 2^20 entries admit HH^2 and HH^3 of GF(2)[C4] (4^7 and 4^9), but
        # not HH^4 (4^11), whose classes the ad-power axiom compares
        monkeypatch.setenv("KK_SIZE_CAP", str(2**20))
        code = cli.main(["gerst", c4_file, "--degree", "2", "--check-restricted"])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err == ("error: coboundary matrix on degree 4 needs 4194304 entries,"
                                " cap is 1048576\n")

    @pytest.mark.parametrize("fixture", ["c4", "trunc3_3"])
    def test_gerst_degree_zero_exit_2(self, capsys, tmp_path, request, fixture):
        path = tmp_path / "a.json"
        save_algebra(request.getfixturevalue(fixture), path)
        code = cli.main(["gerst", str(path), "--degree", "0"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: restricted structure lives in degrees >= 1\n"

    def test_gerst_parity_marker(self, capsys, tmp_path, trunc3_3):
        path = tmp_path / "t3.json"
        save_algebra(trunc3_3, path)
        code, doc = run_json(capsys, "gerst", str(path), "--degree", "2")
        assert code == 0
        assert doc["sigma_rank"] == "skipped: parity"

    def test_gerst_parity_marker_builds_no_class_basis(self, capsys, tmp_path, trunc4_3,
                                                         monkeypatch):
        # with a form, dim HH^2 comes from two ranks under the cap of HH^2
        path = tmp_path / "t4.json"
        save_algebra(trunc4_3, path)
        calls = []
        monkeypatch.setattr(cli, "hh_cohomology", lambda *args: calls.append(args))
        code, out = run(capsys, "gerst", str(path), "--degree", "2")
        assert code == 0 and not calls
        assert out == ('{\n "degree": 2,\n "dim_hh": 3,\n "field": {\n  "e": 1,\n  "p": 3\n },\n'
                       ' "schema_version": 1,\n "sigma_rank": "skipped: parity"\n}\n')
        monkeypatch.setenv("KK_SIZE_CAP", str(4**7 - 1))
        code = cli.main(["gerst", str(path), "--degree", "2"])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == "" and not calls
        assert captured.err == ("error: coboundary matrix on degree 2 needs 16384 entries,"
                                " cap is 16383\n")


class TestGen:
    def test_group_cyclic_round_trip(self, capsys, tmp_path):
        out = tmp_path / "c8.json"
        code, doc = run_json(capsys, "gen", "group-cyclic", "8", "--p", "2",
                             "-o", str(out))
        assert code == 0 and doc["written"] == str(out)
        a = load_algebra(out)
        assert a.dim == 8 and a.field.p == 2 and a.form is not None

    def test_group_klein(self, capsys, tmp_path):
        out = tmp_path / "v4.json"
        code, doc = run_json(capsys, "gen", "group-klein", "--p", "2", "-o", str(out))
        assert code == 0 and doc["dim"] == 4

    def test_truncated_poly_gf9(self, capsys, tmp_path):
        out = tmp_path / "t.json"
        code, doc = run_json(capsys, "gen", "truncated-poly", "2", "--p", "3",
                             "--e", "2", "-o", str(out))
        assert code == 0
        a = load_algebra(out)
        assert (a.field.p, a.field.e) == (3, 2) and a.dim == 2

    def test_matrix_and_trivial_extension(self, capsys, tmp_path, c4_file):
        m2 = tmp_path / "m2.json"
        code, doc = run_json(capsys, "gen", "matrix", c4_file, "2", "-o", str(m2))
        assert code == 0 and doc["dim"] == 16
        tv = tmp_path / "tv.json"
        code, doc = run_json(capsys, "gen", "trivial-extension", c4_file, "-o", str(tv))
        assert code == 0 and doc["dim"] == 8
        assert load_algebra(tv).form is not None

    def test_field_flags_rejected_for_derived_variants(self, capsys, tmp_path, c4_file):
        out = tmp_path / "x.json"
        assert cli.main(["gen", "matrix", c4_file, "2", "--p", "2", "-o", str(out)]) == 2

    def test_missing_p_rejected(self, capsys, tmp_path):
        out = tmp_path / "x.json"
        assert cli.main(["gen", "group-cyclic", "4", "-o", str(out)]) == 2

    def test_non_group_table_order(self, capsys, tmp_path):
        out = tmp_path / "x.json"
        assert cli.main(["gen", "group-cyclic", "0", "--p", "2", "-o", str(out)]) == 2

    def test_generated_compare_matches_flagship(self, capsys, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert cli.main(["gen", "group-cyclic", "4", "--p", "2", "-o", str(a)]) == 0
        assert cli.main(["gen", "group-klein", "--p", "2", "-o", str(b)]) == 0
        capsys.readouterr()
        assert cli.main(["compare", str(a), str(b)]) == 10
