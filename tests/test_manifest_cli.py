"""Manifest loading diagnostics, selector resolution, CLI behavior and
exit codes."""

import json

import pytest

from orderlex import cli
from orderlex.covers import verify_shapiro
from orderlex.errors import (
    IllDefinedHomomorphismError,
    ManifestError,
    RepresentationError,
    SelectorError,
)
from orderlex.manifest import (
    load_manifest,
    loads_manifest,
    select_homomorphism,
    select_representation,
)
from orderlex.laurent import LaurentPolynomial
from orderlex.linalg import RationalMatrix
from orderlex.ordering import theorem2_report

MINIMAL = {
    "manifold": {
        "rank": 2,
        "monodromy": ["aba", "ab"],
        "monodromy_inverse": ["Ba", "Abb"],
        "label": "fig8",
    }
}


def manifest_text(**overrides):
    doc = json.loads(json.dumps(MINIMAL))
    doc.update(overrides)
    return json.dumps(doc)


class TestLoading:
    def test_minimal(self):
        m = loads_manifest(manifest_text())
        assert m.torus.fiber_rank == 2
        assert m.torus.label == "fig8"
        assert m.homomorphisms == []
        assert m.options.trials == 500

    def test_bundled_manifests(self, fig8_manifest_path, id2_manifest_path):
        fig8 = load_manifest(fig8_manifest_path)
        assert [h.label for h in fig8.homomorphisms] == ["z2", "z3", "z4", "z5"]
        assert [r.label for r in fig8.representations] == ["swap"]
        ident = load_manifest(id2_manifest_path)
        assert len(ident.homomorphisms) == 2

    def test_invalid_json_has_position(self):
        with pytest.raises(ManifestError) as exc:
            loads_manifest("{not json")
        assert "line 1" in str(exc.value)

    def test_missing_key_named(self):
        doc = json.loads(manifest_text())
        del doc["manifold"]["monodromy_inverse"]
        with pytest.raises(ManifestError) as exc:
            loads_manifest(json.dumps(doc))
        assert "monodromy_inverse" in str(exc.value)

    def test_bad_word_located(self):
        doc = json.loads(manifest_text())
        doc["manifold"]["monodromy"] = ["ax$", "ab"]
        with pytest.raises(ManifestError) as exc:
            loads_manifest(json.dumps(doc))
        assert "monodromy[0]" in str(exc.value)

    def test_wrong_type_rejected(self):
        doc = json.loads(manifest_text())
        doc["manifold"]["rank"] = "2"
        with pytest.raises(ManifestError):
            loads_manifest(json.dumps(doc))

    def test_bool_not_accepted_as_int(self):
        doc = json.loads(manifest_text())
        doc["manifold"]["rank"] = True
        with pytest.raises(ManifestError):
            loads_manifest(json.dumps(doc))

    def test_ill_defined_hom_rejected_at_load(self):
        doc = json.loads(manifest_text())
        doc["homomorphisms"] = [
            {
                "label": "bad",
                "group": {"name": "Z2", "degree": 2, "generators": ["(1 2)"]},
                "fiber_images": [1, 0],
                "stable_image": 0,
            }
        ]
        with pytest.raises(IllDefinedHomomorphismError):
            loads_manifest(json.dumps(doc))

    def test_incompatible_representation_rejected(self):
        doc = json.loads(manifest_text())
        doc["representations"] = [
            {
                "label": "sign",
                "fiber_matrices": [[[-1]], [[-1]]],
                "stable_matrix": [[1]],
            }
        ]
        with pytest.raises(RepresentationError):
            loads_manifest(json.dumps(doc))

    def test_fraction_entries(self):
        doc = json.loads(manifest_text())
        doc["representations"] = [
            {
                "label": "halves",
                "fiber_matrices": [[["1/1"]], [["1/1"]]],
                "stable_matrix": [["1/1"]],
            }
        ]
        m = loads_manifest(json.dumps(doc))
        assert m.representations[0].dimension == 1


class TestSelectors:
    def test_by_label_and_index(self, fig8_manifest_path):
        m = load_manifest(fig8_manifest_path)
        assert select_homomorphism(m, "z3").label == "z3"
        assert select_homomorphism(m, "0").label == "z2"

    def test_default_requires_unique(self, fig8_manifest_path):
        m = load_manifest(fig8_manifest_path)
        with pytest.raises(SelectorError):
            select_homomorphism(m, None)

    def test_no_match(self, fig8_manifest_path):
        m = load_manifest(fig8_manifest_path)
        with pytest.raises(SelectorError):
            select_homomorphism(m, "z9")

    def test_trivial_representation_builtin(self, fig8_manifest_path):
        m = load_manifest(fig8_manifest_path)
        rep = select_representation(m, "trivial")
        assert rep.dimension == 1

    def test_representation_by_label(self, fig8_manifest_path):
        m = load_manifest(fig8_manifest_path)
        assert select_representation(m, "swap").dimension == 2


class TestCli:
    def test_alexander_human(self, capsys, fig8_manifest_path):
        code = cli.main(["alexander", fig8_manifest_path])
        out = capsys.readouterr().out
        assert code == 0
        assert "t^2 - 3*t + 1" in out
        assert "biorderable_by_perron_rolfsen" in out

    def test_alexander_json_deterministic(self, capsys, fig8_manifest_path):
        cli.main(["alexander", fig8_manifest_path, "--json"])
        first = capsys.readouterr().out
        cli.main(["alexander", fig8_manifest_path, "--json"])
        second = capsys.readouterr().out
        assert first == second
        doc = json.loads(first)
        assert doc["polynomial"] == "t^2 - 3*t + 1"
        assert doc["status"] == "biorderable_by_perron_rolfsen"

    def test_twisted_with_hom(self, capsys, fig8_manifest_path):
        code = cli.main(["twisted", fig8_manifest_path, "--hom", "z2", "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["polynomial"] == "t^4 - 7*t^2 + 1"
        assert doc["free_rank"] == 0

    def test_twisted_trivial_rep_matches_classical(self, capsys, fig8_manifest_path):
        cli.main(["twisted", fig8_manifest_path, "--rep", "trivial", "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["polynomial"] == "t^2 - 3*t + 1"

    def test_twisted_d_scale(self, capsys, fig8_manifest_path):
        cli.main(
            ["twisted", fig8_manifest_path, "--rep", "trivial", "--d-scale", "2", "--json"]
        )
        doc = json.loads(capsys.readouterr().out)
        assert doc["polynomial"] == "t^4 - 3*t^2 + 1"

    def test_cover_json(self, capsys, fig8_manifest_path):
        code = cli.main(["cover", fig8_manifest_path, "--hom", "z2", "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["d"] == 2
        assert doc["basis"] == ["a", "b"]
        assert doc["polynomial"] == "t^4 - 7*t^2 + 1"

    def test_verify_shapiro_all_homs(self, capsys, fig8_manifest_path):
        code = cli.main(["verify", "shapiro", fig8_manifest_path])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True
        assert [c["hom"] for c in doc["checks"]] == ["z2", "z3", "z4", "z5"]

    def test_verify_lemma4(self, capsys, fig8_manifest_path):
        code = cli.main(["verify", "lemma4", fig8_manifest_path, "--hom", "z2"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True

    def test_verify_order_lemmas_seeded(self, capsys, fig8_manifest_path):
        code = cli.main(
            ["verify", "order-lemmas", fig8_manifest_path, "--trials", "20", "--seed", "3"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["seed"] == 3
        assert doc["commutators"]["violations"] == 0
        assert doc["axioms"]["violations"] == 0

    def test_verify_theorem2(self, capsys, id2_manifest_path):
        code = cli.main(["verify", "theorem2", id2_manifest_path])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert all(c["existence_equal"] for c in doc["checks"])

    def test_report(self, capsys, id2_manifest_path):
        code = cli.main(["report", id2_manifest_path])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True
        assert {h["label"] for h in doc["homomorphisms"]} == {"z2-a", "z2-at"}

    @pytest.mark.parametrize("which", ["fig8_manifest_path", "id2_manifest_path"])
    def test_report_blocks_match_library(self, capsys, request, which):
        path = request.getfixturevalue(which)
        assert cli.main(["report", path, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        manifest = load_manifest(path)
        assert len(doc["homomorphisms"]) == len(manifest.homomorphisms)
        for block, hom in zip(doc["homomorphisms"], manifest.homomorphisms):
            assert block["label"] == hom.label
            assert block["shapiro"] == verify_shapiro(manifest.torus, hom)
            assert block["theorem2"] == theorem2_report(manifest.torus, hom)

    @pytest.mark.parametrize(
        "argv, options, env, code, message",
        [
            (["verify", "shapiro"], None, None, 1, "no homomorphisms"),
            (["verify", "theorem2"], None, None, 1, "no homomorphisms"),
            (["verify", "order-lemmas", "--trials", "-3"], None, None, 2, "--trials"),
            (["verify", "order-lemmas", "--depth", "0"], None, None, 2, "--depth"),
            (["twisted", "--rep", "trivial", "--d-scale", "0"], None, None, 2, "--d-scale"),
            (["verify", "order-lemmas"], {"depth": 0}, None, 2, "options.depth"),
            (["verify", "order-lemmas"], {"trials": 0}, None, 2, "options.trials"),
            (["verify", "order-lemmas"], None, "0", 2, "ORDERLEX_DEPTH"),
        ],
    )
    def test_no_vacuous_pass_and_bounded_counts(
        self, tmp_path, capsys, monkeypatch, argv, options, env, code, message
    ):
        doc = json.loads(manifest_text())
        if options is not None:
            doc["options"] = options
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        monkeypatch.delenv("ORDERLEX_DEPTH", raising=False)
        if env is not None:
            monkeypatch.setenv("ORDERLEX_DEPTH", env)
        try:
            got = cli.main(argv + [str(path)])
        except SystemExit as e:  # argparse rejects a bad flag value
            got = e.code
        captured = capsys.readouterr()
        assert got == code
        assert message in captured.out + captured.err
        if code == cli.EXIT_CHECK_FAILED:
            assert json.loads(captured.out)["ok"] is False

    S8 = {"name": "S8", "degree": 8, "generators": ["(1 2)", "(1 2 3 4 5 6 7 8)"]}

    @pytest.mark.parametrize(
        "argv, homs, break_char_poly, code, message",
        [
            (
                ["report"],
                [{"group": S8, "fiber_images": [0, 0], "stable_image": 0}],
                False,
                cli.EXIT_PARSE_ERROR,
                "homomorphisms[0].group: group enumeration exceeded 10000 elements",
            ),
            (["alexander"], [], True, cli.EXIT_INTERNAL, "internal cross-check disagreed"),
            (["report"], [], False, cli.EXIT_CHECK_FAILED, "no homomorphisms"),
        ],
        ids=["group-beyond-limit", "consistency-error", "report-without-homomorphisms"],
    )
    def test_documented_exit_codes(
        self, tmp_path, capsys, monkeypatch, argv, homs, break_char_poly, code, message
    ):
        path = tmp_path / "m.json"
        path.write_text(manifest_text(homomorphisms=homs))
        if break_char_poly:
            monkeypatch.setattr(RationalMatrix, "char_poly", lambda self: LaurentPolynomial.one())
        got = cli.main(argv + [str(path)])
        captured = capsys.readouterr()
        assert got == code
        assert message in captured.err + captured.out
        if code == cli.EXIT_CHECK_FAILED:
            assert json.loads(captured.out)["ok"] is False

    def test_exit_code_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        assert cli.main(["alexander", str(bad)]) == cli.EXIT_PARSE_ERROR

    def test_exit_code_certification(self, tmp_path, capsys):
        doc = json.loads(manifest_text())
        doc["manifold"]["monodromy_inverse"] = ["Ba", "Ab"]
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["alexander", str(path)]) == cli.EXIT_CERTIFICATION

    def test_exit_code_selector(self, fig8_manifest_path, capsys):
        code = cli.main(["twisted", fig8_manifest_path, "--hom", "nosuch"])
        assert code == cli.EXIT_SELECTOR

    def test_depth_env_override(self, capsys, fig8_manifest_path, monkeypatch):
        monkeypatch.setenv("ORDERLEX_DEPTH", "4")
        cli.main(["verify", "order-lemmas", fig8_manifest_path, "--trials", "5"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["axioms"]["depth"] == 4

    def test_depth_flag_beats_env(self, capsys, fig8_manifest_path, monkeypatch):
        monkeypatch.setenv("ORDERLEX_DEPTH", "4")
        cli.main(
            ["verify", "order-lemmas", fig8_manifest_path, "--trials", "5", "--depth", "3"]
        )
        doc = json.loads(capsys.readouterr().out)
        assert doc["axioms"]["depth"] == 3

    def test_bad_depth_env_is_parse_error(self, fig8_manifest_path, monkeypatch, capsys):
        monkeypatch.setenv("ORDERLEX_DEPTH", "soon")
        code = cli.main(["verify", "order-lemmas", fig8_manifest_path, "--trials", "5"])
        assert code == cli.EXIT_PARSE_ERROR

    def test_failed_check_exits_one(self, capsys, fig8_manifest_path, monkeypatch):
        from orderlex import cli as cli_module

        monkeypatch.setattr(
            cli_module,
            "verify_shapiro",
            lambda m, f: {"twisted": "t", "cover": "t + 1", "equal": False, "d": 1},
        )
        code = cli_module.main(["verify", "shapiro", fig8_manifest_path, "--hom", "z2"])
        assert code == cli.EXIT_CHECK_FAILED
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is False

    def test_nonsurjective_hom_noted(self, capsys, tmp_path):
        doc = json.loads(manifest_text())
        doc["homomorphisms"] = [
            {
                "label": "into-z4",
                "group": {"name": "Z4", "degree": 4, "generators": ["(1 2 3 4)"]},
                "fiber_images": [0, 0],
                "stable_image": 2,
            }
        ]
        path = tmp_path / "sub.json"
        path.write_text(json.dumps(doc))
        code = cli.main(["twisted", str(path), "--hom", "into-z4", "--json"])
        captured = capsys.readouterr()
        assert code == 0
        assert "not surjective" in captured.err
        body = json.loads(captured.out)
        # image is the order-2 subgroup, so the regular block is 2-dimensional
        assert body["polynomial"] == "t^4 - 7*t^2 + 1"
