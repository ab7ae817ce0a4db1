"""Manifest loading diagnostics, selector resolution, CLI behavior and
exit codes."""

import argparse
import json
import pathlib

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
from orderlex.finite import DEFAULT_ELEMENT_LIMIT
from orderlex.laurent import LaurentPolynomial
from orderlex.linalg import RationalMatrix
from orderlex.ordering import theorem2_report

ROOT = pathlib.Path(__file__).resolve().parent.parent

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

    @pytest.mark.parametrize(
        "text",
        ["[" * 200000, '{"options": {"seed": ' + "9" * 4301 + "}}"],
        ids=["nested-too-deep", "integer-over-digit-limit"],
    )
    def test_json_beyond_parser_limits_located(self, text, tmp_path, capsys):
        with pytest.raises(ManifestError) as exc:
            loads_manifest(text)
        assert exc.value.location == "manifest"
        path = tmp_path / "m.json"
        path.write_text(text)
        assert cli.main(["alexander", str(path)]) == cli.EXIT_PARSE_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: manifest: ")

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

    @pytest.mark.parametrize(
        "fiber, stable, location",
        [([0, 3], 1, "fiber_images[1]"), ([0, -1], 1, "fiber_images[1]"),
         ([0, 0], 3, "stable_image"), ([0, 0], -1, "stable_image")],
    )
    def test_element_index_out_of_range(self, fiber, stable, location):
        doc = json.loads(manifest_text())
        group = {"name": "Z3", "degree": 3, "generators": ["(1 2 3)"]}
        doc["homomorphisms"] = [{"group": group, "fiber_images": fiber, "stable_image": stable}]
        with pytest.raises(ManifestError, match=r"out of range 0\.\.2") as exc:
            loads_manifest(json.dumps(doc))
        assert exc.value.location == f"homomorphisms[0].{location}"

    def test_loaded_images_keep_their_indices(self):
        """Each loaded homomorphism holds the element indices its manifest
        names, stable image last."""
        for path in (ROOT / "manifests" / "figure_eight.json",
                     ROOT / "manifests" / "identity_rank2.json",
                     ROOT / "tests" / "data" / "right_mult_s3.json"):
            specs = json.loads(path.read_text())["homomorphisms"]
            homs = load_manifest(str(path)).homomorphisms
            assert len(homs) == len(specs), path
            for f, spec in zip(homs, specs):
                assert f._indices == tuple(spec["fiber_images"] + [spec["stable_image"]]), path

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

    @pytest.mark.parametrize("entry", ["1e5", "0.5", "1e3000000"])
    def test_entry_outside_the_grammar_located(self, tmp_path, capsys, entry):
        # Fraction takes exponents, so "1e3000000" would build a
        # 10-million-bit integer; only integers and p/q strings load
        doc = json.loads(manifest_text())
        doc["representations"] = [
            {"label": "big", "fiber_matrices": [[[1]], [[1]]], "stable_matrix": [[entry]]}
        ]
        with pytest.raises(ManifestError) as exc:
            loads_manifest(json.dumps(doc))
        assert exc.value.location == "representations[0].stable_matrix[0][0]"
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["twisted", str(path), "--rep", "big"]) == cli.EXIT_PARSE_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: representations[0].stable_matrix[0][0]: ")


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

    def test_cover_json_document_pinned(self, capsys, fig8_manifest_path):
        # the whole document, lifted monodromy words included.  Figure-eight
        # onto Z5: on the basis [a, b] the lifted words are the images of
        # theta^5 letter for letter.  right-mult onto S3: a six-element
        # transversal, w = B and a rank-7 basis.
        data = pathlib.Path(__file__).parent / "data"
        for argv, pinned in [
            ([fig8_manifest_path, "--hom", "z5"], "cover_fig8_z5.json"),
            ([str(data / "right_mult_s3.json")], "cover_right_mult_s3.json"),
        ]:
            code = cli.main(["cover", *argv, "--json"])
            assert code == 0
            assert capsys.readouterr().out == (data / pinned).read_text()

    @pytest.mark.parametrize("argv, pinned", [
        (["report"], "report_fig8.json"),
        (["verify", "theorem2"], "theorem2_fig8.json"),
    ], ids=["report", "verify-theorem2"])
    def test_theorem2_documents_pinned(self, capsys, fig8_manifest_path, argv, pinned):
        # every theorem-2 field of figure-eight onto Z2..Z5, byte for byte:
        # the classical polynomial and its root count, the twisted and cover
        # polynomials, d and surjectivity
        data = pathlib.Path(__file__).parent / "data"
        assert cli.main([*argv, fig8_manifest_path, "--json"]) == 0
        assert capsys.readouterr().out == (data / pinned).read_text()

    def test_order_lemmas_document_pinned(self, monkeypatch, capsys, fig8_manifest_path):
        # both Magnus suites at seed 1, 20 trials, depth 6, byte for byte:
        # every resolved and unresolved tally moves if a comparison or a
        # random word does
        monkeypatch.delenv("ORDERLEX_DEPTH", raising=False)
        data = pathlib.Path(__file__).parent / "data"
        argv = ["verify", "order-lemmas", fig8_manifest_path, "--trials", "20", "--json"]
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == (data / "order_lemmas_fig8.json").read_text()

    @pytest.mark.parametrize("k", [24, 26])
    @pytest.mark.parametrize("as_json", [False, True])
    def test_cover_beyond_printable_letters(self, tmp_path, capsys, id2_manifest_path, k, as_json):
        """Onto Z_k with a -> 1 the identity monodromy's cover has rank
        k + 1.  Its lifted words print while the rank fits the 25 fiber
        letters (k = 24); past that (k = 26) the command exits 2 with a
        message, not a traceback."""
        doc = json.loads(pathlib.Path(id2_manifest_path).read_text())
        cycle = "(" + " ".join(str(i) for i in range(1, k + 1)) + ")"
        doc["homomorphisms"] = [
            {
                "label": f"z{k}",
                "group": {"name": f"Z{k}", "degree": k, "generators": [cycle]},
                "fiber_images": [1, 0],
                "stable_image": 0,
            }
        ]
        path = tmp_path / "cover.json"
        path.write_text(json.dumps(doc))
        code = cli.main(["cover", str(path)] + (["--json"] if as_json else []))
        captured = capsys.readouterr()
        if k == 24:
            assert code == cli.EXIT_OK
            if as_json:
                assert len(json.loads(captured.out)["lifted_monodromy"]) == 25
            else:
                assert "subgroup rank: 25" in captured.out
        else:
            assert code == cli.EXIT_PARSE_ERROR
            assert captured.out == ""
            assert "'z26'" in captured.err and "27 basis generators" in captured.err
            assert "at most 25 generator letters" in captured.err
            assert "Traceback" not in captured.err

    def test_cover_width_checked_before_the_build(self, monkeypatch, capsys):
        """b -> a 30-cycle gives a Schreier basis of 30 (2 - 1) + 1 = 31
        elements: the command exits 2 from the transversal alone, without
        lifting the monodromy through build_cover."""
        builds = []
        monkeypatch.setattr(cli, "build_cover", lambda *a: builds.append(a))
        path = pathlib.Path(__file__).parent / "data" / "cover_too_wide.json"
        code = cli.main(["cover", str(path), "--json"])
        captured = capsys.readouterr()
        assert code == cli.EXIT_PARSE_ERROR
        assert builds == []
        assert captured.out == ""
        assert "'z30'" in captured.err and "31 basis generators" in captured.err

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

    @staticmethod
    def battery_labels(which, doc):
        if which == "lemma4":
            return sorted({c["rep"] for c in doc["checks"]})
        return sorted({c[k] for c in doc["checks"] for k in ("a", "b")})

    @pytest.mark.parametrize("which", ["lemma4", "lemma5"])
    def test_verify_lemma_battery_follows_hom(self, capsys, fig8_manifest_path, which):
        """--hom keeps the trivial representation, the regular
        representation of that homomorphism only, and the explicit ones;
        without --hom the battery has every homomorphism's."""
        assert cli.main(["verify", which, fig8_manifest_path, "--hom", "z3"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True
        assert self.battery_labels(which, doc) == ["regular-z3", "swap", "trivial"]
        assert len(doc["checks"]) == 6  # 3 reps x d = 2, 3, or 3 x 4 / 2 pairs
        assert cli.main(["verify", which, fig8_manifest_path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert self.battery_labels(which, doc) == [
            "regular-z2", "regular-z3", "regular-z4", "regular-z5", "swap", "trivial"]

    @pytest.mark.parametrize("which", ["lemma4", "lemma5"])
    def test_verify_lemma_unknown_hom(self, capsys, fig8_manifest_path, which):
        code = cli.main(["verify", which, fig8_manifest_path, "--hom", "nosuch"])
        captured = capsys.readouterr()
        assert code == cli.EXIT_SELECTOR
        assert captured.out == ""
        assert captured.err == "error: no homomorphism matches 'nosuch'\n"

    def test_one_parser_per_process(self, capsys, monkeypatch, fig8_manifest_path):
        """main builds its parser at the first call and keeps it: a parser
        that has already parsed, or rejected, a command line answers the
        next one exactly as a freshly built one does."""
        argvs = [["report", fig8_manifest_path],
                 ["twisted", "--d-scale", "0", fig8_manifest_path],
                 ["verify", "lemma4", fig8_manifest_path]]

        def run(argv):
            try:
                code = cli.main(argv)
            except SystemExit as e:  # argparse rejects a bad flag value
                code = e.code
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        first = []
        for argv in argvs:
            cli.build_parser.cache_clear()
            first.append(run(argv))
        assert [code for code, _, _ in first] == [0, 2, 0]
        assert "--d-scale" in first[1][2]
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            if kwargs.get("prog") == "orderlex":  # the top-level parser
                built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        cli.build_parser.cache_clear()
        assert [run(argv) for argv in argvs] == first
        assert len(built) == 1

    @pytest.mark.parametrize("which", ["lemma4", "lemma5"])
    def test_verify_lemma_documents_pinned(self, capsys, fig8_manifest_path, which):
        code = cli.main(["verify", which, fig8_manifest_path, "--json"])
        assert code == 0
        pinned = pathlib.Path(__file__).parent / "data" / f"verify_{which}_fig8.json"
        assert capsys.readouterr().out == pinned.read_text()

    @pytest.mark.parametrize("which", ["lemma4", "lemma5"])
    def test_verify_lemma_twisted_calls(self, monkeypatch, capsys, fig8_manifest_path, which):
        # lemma4 computes d = 1 once beside d = 2, 3; lemma5 computes each
        # representation once beside each direct sum
        from orderlex import torus

        calls = []
        twisted = torus.twisted_alexander

        def counting(*args, **kwargs):
            calls.append(args)
            return twisted(*args, **kwargs)

        monkeypatch.setattr(torus, "twisted_alexander", counting)
        manifest = load_manifest(fig8_manifest_path)
        k = 1 + len(manifest.homomorphisms) + len(manifest.representations)
        assert cli.main(["verify", which, fig8_manifest_path]) == 0
        capsys.readouterr()
        expected = 3 * k if which == "lemma4" else k + k * (k + 1) // 2
        assert len(calls) == expected

    def test_verify_order_lemmas_seeded(self, capsys, fig8_manifest_path):
        code = cli.main(
            ["verify", "order-lemmas", fig8_manifest_path, "--trials", "20", "--seed", "3"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["seed"] == 3
        assert doc["commutators"]["violations"] == 0
        assert doc["axioms"]["violations"] == 0

    def test_verify_order_lemmas_fails_when_a_suite_resolves_nothing(
        self, capsys, fig8_manifest_path
    ):
        # at depth 1 this seed's commutator suite leaves every comparison
        # unresolved: no violation, but nothing was checked either
        code = cli.main(
            ["verify", "order-lemmas", fig8_manifest_path,
             "--trials", "1", "--seed", "438", "--depth", "1"]
        )
        doc = json.loads(capsys.readouterr().out)
        assert doc["commutators"]["resolved"] == 0
        assert doc["axioms"]["resolved"] > 0
        assert doc["ok"] is False
        assert doc["reason"] == "a suite resolved no comparison"
        assert code == cli.EXIT_CHECK_FAILED

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
            (["twisted", "--rep", "trivial", "--d-scale", "10001"], None, None, 2,
             "argument --d-scale: must be at most 10000, got 10001"),
            # numbers are ASCII digits: int() would read each of these
            (["verify", "order-lemmas", "--trials", "\u0663", "--depth", "\uff12"], None, None,
             2, "argument --trials: expected an integer in ASCII digits, got '\u0663'"),
            (["verify", "order-lemmas", "--depth", "\uff12"], None, None, 2, "argument --depth"),
            (["verify", "order-lemmas", "--trials", "1_0"], None, None, 2, "argument --trials"),
            (["verify", "order-lemmas", "--trials", " 3"], None, None, 2, "argument --trials"),
            (["verify", "order-lemmas", "--seed", "\u0663"], None, None, 2, "argument --seed"),
            (["twisted", "--rep", "trivial", "--d-scale", "\uff13"], None, None, 2,
             "argument --d-scale"),
            (["verify", "order-lemmas"], None, "\u0663", 2,
             "ORDERLEX_DEPTH: expected an integer in ASCII digits, got '\u0663'"),
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

    def test_d_scale_limit_parses(self):
        """The parser takes --d-scale up to D_SCALE_LIMIT; only parsed,
        since the twisted complex grows linearly in D."""
        parse = cli.build_parser().parse_args
        args = parse(["twisted", "m.json", "--d-scale", str(cli.D_SCALE_LIMIT)])
        assert args.d_scale == cli.D_SCALE_LIMIT == 10000
        assert parse(["twisted", "m.json"]).d_scale == 1

    def test_signed_ascii_seed_parses(self):
        """--seed takes ASCII digits with an optional leading '-'."""
        parse = cli.build_parser().parse_args
        for text, seed in (("-4", -4), ("0", 0), ("0012", 12)):
            assert parse(["verify", "order-lemmas", "m.json", "--seed", text]).seed == seed

    S8 = {"name": "S8", "degree": 8, "generators": ["(1 2)", "(1 2 3 4 5 6 7 8)"]}
    WIDE = {"name": "Z2", "degree": DEFAULT_ELEMENT_LIMIT + 1, "generators": ["(1 2)"]}
    UNBALANCED = {"name": "Z2", "degree": 3, "generators": ["(1 2)(3", "(1 2"]}
    NON_DIGIT = {"name": "Z2", "degree": 12, "generators": ["(1 2)", "(+1 2)"]}
    # within both the degree and the element limit, but 10^8 stored points
    LONG_CYCLE = {
        "name": "Z10000",
        "degree": DEFAULT_ELEMENT_LIMIT,
        "generators": ["(" + " ".join(map(str, range(1, DEFAULT_ELEMENT_LIMIT + 1))) + ")"],
    }

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
            (
                ["alexander"],
                [{"group": WIDE, "fiber_images": [0, 0], "stable_image": 0}],
                False,
                cli.EXIT_PARSE_ERROR,
                f"homomorphisms[0].group.degree: degree {DEFAULT_ELEMENT_LIMIT + 1} "
                f"exceeds the limit of {DEFAULT_ELEMENT_LIMIT}",
            ),
            (
                ["alexander"],
                [{"group": LONG_CYCLE, "fiber_images": [0, 0], "stable_image": 0}],
                False,
                cli.EXIT_PARSE_ERROR,
                "homomorphisms[0].group: group enumeration exceeded 10000000 points",
            ),
            (
                ["alexander"],
                [{"group": UNBALANCED, "fiber_images": [0, 0], "stable_image": 0}],
                False,
                cli.EXIT_PARSE_ERROR,
                "homomorphisms[0].group.generators[0]: bad cycle notation: '(1 2)(3'",
            ),
            (
                ["alexander"],
                [{"group": NON_DIGIT, "fiber_images": [0, 0], "stable_image": 0}],
                False,
                cli.EXIT_PARSE_ERROR,
                "homomorphisms[0].group.generators[1]: bad cycle notation: '(+1 2)'",
            ),
            (["alexander"], [], True, cli.EXIT_INTERNAL, "internal cross-check disagreed"),
            (["report"], [], False, cli.EXIT_CHECK_FAILED, "no homomorphisms"),
        ],
        ids=[
            "group-beyond-limit",
            "degree-beyond-limit",
            "points-beyond-limit",
            "unbalanced-cycle",
            "non-digit-point",
            "consistency-error",
            "report-without-homomorphisms",
        ],
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

    @pytest.mark.parametrize("argv", [["alexander"], ["verify", "shapiro", "--json"]])
    def test_ill_defined_hom_located(self, capsys, argv):
        """Of five homomorphisms, the third sends a to the generator of Z2
        and b to 0, which theta(a) = aba does not respect: exit 3 naming it."""
        path = pathlib.Path(__file__).parent / "data" / "ill_defined_hom.json"
        assert cli.main(argv + [str(path)]) == cli.EXIT_CERTIFICATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: homomorphisms[2] 'z2-through-a': "
            "images violate the mapping-torus relations\n"
        )

    @pytest.mark.parametrize(
        "rep, message",
        [
            (
                {"fiber_matrices": [[], []], "stable_matrix": []},
                "representations[0]: matrices must have dimension at least 1",
            ),
            (
                {"fiber_matrices": [[[1, 0]], [[1, 0]]], "stable_matrix": [[1, 0]]},
                "representations[0]: matrices must be square of a common dimension",
            ),
            (
                {"fiber_matrices": [[[0]], [[1]]], "stable_matrix": [[1]]},
                "representations[0]: generator matrix is singular",
            ),
        ],
        ids=["dimension-zero", "not-square", "singular"],
    )
    @pytest.mark.parametrize("argv", [["twisted", "--rep", "0", "--json"], ["verify", "lemma5"]])
    def test_bad_representation_located(self, tmp_path, capsys, rep, message, argv):
        path = tmp_path / "m.json"
        path.write_text(manifest_text(representations=[rep]))
        assert cli.main(argv + [str(path)]) == cli.EXIT_CERTIFICATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    @pytest.mark.parametrize("argv", [["twisted"], ["verify", "lemma5"]])
    def test_infinite_image_located(self, capsys, argv):
        """S = [[0, -1], [1, 0]] and U = [[0, -1], [1, 1]] have orders 4 and
        6 but generate SL(2, Z), which contains the shear (SU)^2."""
        path = pathlib.Path(__file__).parent / "data" / "sl2z_image.json"
        assert cli.main(argv + [str(path)]) == cli.EXIT_CERTIFICATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "representations[0]: image not finite within 10000 elements" in captured.err

    def test_thirteen_fold_cover_matches_twisted(self, capsys):
        """The figure-eight onto Z13 lifts theta^13, 514229 letters, and its
        cover polynomial equals the twisted one."""
        path = pathlib.Path(__file__).parent / "data" / "fig8_z13.json"
        assert cli.main(["verify", "shapiro", str(path), "--json"]) == 0
        (check,) = json.loads(capsys.readouterr().out)["checks"]
        assert check == {"hom": "z13", "d": 13, "equal": True,
                         "twisted": "t^26 - 271443*t^13 + 1",
                         "cover": "t^26 - 271443*t^13 + 1"}

    def test_kelvin_sign_is_not_a_letter(self, capsys):
        """U+212A KELVIN SIGN lowercases to 'k'; as the image of k it is an
        unknown letter, not k^-1."""
        path = pathlib.Path(__file__).parent / "data" / "kelvin_sign.json"
        assert cli.main(["alexander", str(path)]) == cli.EXIT_PARSE_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: manifold.monodromy[10]: unknown letter")

    def test_ideographic_space_is_not_whitespace(self, capsys):
        """U+3000 IDEOGRAPHIC SPACE in a monodromy word is an unknown letter,
        not a blank between letters."""
        path = pathlib.Path(__file__).parent / "data" / "ideographic_space.json"
        assert cli.main(["alexander", str(path)]) == cli.EXIT_PARSE_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: manifold.monodromy[0]: unknown letter '\\u3000' (position 2)\n")

    @pytest.mark.parametrize(
        "manifold, located",
        [
            ({"monodromy": ["a\u3000b A\x1c", "b"]},
             "manifold.monodromy[0]: unknown letter '\\u3000' (position 1)"),
            ({"monodromy": ["aba", "ab\x1c"]},
             "manifold.monodromy[1]: unknown letter '\\x1c' (position 2)"),
            ({"monodromy_inverse": ["\xa0Ba", "Abb"]},
             "manifold.monodromy_inverse[0]: unknown letter '\\xa0' (position 0)"),
        ],
        ids=["ideographic-space", "file-separator", "no-break-space"],
    )
    def test_only_ascii_whitespace_in_words(self, tmp_path, capsys, manifold, located):
        path = tmp_path / "m.json"
        path.write_text(manifest_text(manifold={**MINIMAL["manifold"], **manifold}))
        assert cli.main(["alexander", str(path)]) == cli.EXIT_PARSE_ERROR
        assert capsys.readouterr().err == f"error: {located}\n"

    @pytest.mark.parametrize("cycle", ["(1\xa02)", "\xa0(1 2)", "(1 2)\u3000", "(1\x1c2)"])
    def test_only_ascii_whitespace_in_cycles(self, tmp_path, capsys, cycle):
        hom = {"label": "z2", "group": {"degree": 2, "generators": [cycle]},
               "fiber_images": [0, 0], "stable_image": 1}
        path = tmp_path / "m.json"
        path.write_text(manifest_text(homomorphisms=[hom]))
        assert cli.main(["twisted", str(path)]) == cli.EXIT_PARSE_ERROR
        assert capsys.readouterr().err == (
            f"error: homomorphisms[0].group.generators[0]: bad cycle notation: {cycle!r}\n")

    @pytest.mark.parametrize("entry", ["\u20031", "1\xa0", "\x1c-1"])
    def test_only_ascii_whitespace_in_matrix_entries(self, tmp_path, capsys, entry):
        rep = {"fiber_matrices": [[[entry]], [[1]]], "stable_matrix": [[1]]}
        path = tmp_path / "m.json"
        path.write_text(manifest_text(representations=[rep]))
        assert cli.main(["twisted", "--rep", "0", str(path)]) == cli.EXIT_PARSE_ERROR
        assert capsys.readouterr().err == (
            "error: representations[0].fiber_matrices[0][0][0]: "
            "matrix entries must be integers or strings p or p/q\n")

    def test_ascii_whitespace_still_reads(self, tmp_path, capsys):
        hom = {"label": "z2", "group": {"degree": 2, "generators": [" (1,\t2) "]},
               "fiber_images": [0, 0], "stable_image": 1}
        rep = {"fiber_matrices": [[[" 1\n"]], [[1]]], "stable_matrix": [["\t-1"]]}
        manifold = {**MINIMAL["manifold"], "monodromy": [" a b\ta ", "a\r\nb"]}
        m = loads_manifest(manifest_text(manifold=manifold, homomorphisms=[hom],
                                         representations=[rep]))
        assert m.torus.monodromy == loads_manifest(manifest_text()).torus.monodromy
        assert m.homomorphisms[0].group.order == 2
        assert m.representations[0].stable_matrix == RationalMatrix([[-1]])

    def test_exit_code_selector(self, fig8_manifest_path, capsys):
        code = cli.main(["twisted", fig8_manifest_path, "--hom", "nosuch"])
        assert code == cli.EXIT_SELECTOR

    @pytest.mark.parametrize(
        "flag, kind", [("--hom", "homomorphism"), ("--rep", "representation")]
    )
    @pytest.mark.parametrize(
        "selector", ["²", "³", "\u0661", "\uff10"],
        ids=["superscript-2", "superscript-3", "arabic-indic-1", "fullwidth-0"],
    )
    def test_non_decimal_digit_selector(self, fig8_manifest_path, capsys, flag, kind, selector):
        # str.isdigit accepts superscripts, which int() rejects, and int()
        # reads other scripts' decimal digits: only ASCII digits index
        code = cli.main(["twisted", fig8_manifest_path, flag, selector])
        assert code == cli.EXIT_SELECTOR
        assert capsys.readouterr().err == f"error: no {kind} matches {selector!r}\n"

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
