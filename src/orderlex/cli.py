"""Command-line front end.

Subcommands: alexander, twisted, cover, verify, report.  Exit codes:
0 success, 1 a verification check failed or had nothing to check, 2 parse
error, a group beyond the element limit, a depth, trial count or d-scale
below 1, a d-scale above D_SCALE_LIMIT, or a cover with more basis
generators than word letters,
3 certification or representation failure, 4 unresolved selector, 5
internal cross-check disagreed (a bug).  ORDERLEX_DEPTH overrides the
built-in default comparison depth; an explicit --depth flag or manifest
option wins over the environment.  Numbers on the command line and in
ORDERLEX_DEPTH are read in ASCII digits only, with an optional leading '-'.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache

from .covers import build_cover, cover_alexander, verify_shapiro
from .errors import (
    CertificationError,
    ConsistencyError,
    IllDefinedHomomorphismError,
    ManifestError,
    RepresentationError,
    SelectorError,
    WordParseError,
)
from .finite import regular_representation, schreier_graph, trivial_representation
from .laurent import format_polynomial
from .manifest import load_manifest, select_homomorphism, select_representation
from .ordering import (
    DEFAULT_DEPTH,
    OrderVerdict,
    bi_order_axiom_suite,
    lemma_comm_suite,
    theorem2_report,
)
from .torus import classical_alexander, lemma4_check, lemma5_check, twisted_alexander
from .words import FIBER_ALPHABET, format_word

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE_ERROR = 2
EXIT_CERTIFICATION = 3
EXIT_SELECTOR = 4
EXIT_INTERNAL = 5


def _env_depth():
    raw = os.environ.get("ORDERLEX_DEPTH")
    if raw is None:
        return DEFAULT_DEPTH
    try:
        depth = _int(raw)
    except argparse.ArgumentTypeError as e:
        raise ManifestError(f"ORDERLEX_DEPTH: {e}") from None
    if depth < 1:
        raise ManifestError("ORDERLEX_DEPTH must be at least 1")
    return depth


def _int(text):
    """The integer text writes in ASCII digits with an optional leading
    '-': int() also reads other scripts' digits, '_' separators and
    surrounding blanks."""
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdecimal()):
        raise argparse.ArgumentTypeError(f"expected an integer in ASCII digits, got {text!r}")
    return int(text)


def _positive_int(text):
    value = _int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


# --d-scale D builds Z[t] rows about D long per entry, so its time grows
# linearly in D
D_SCALE_LIMIT = 10000


def _d_scale(text):
    value = _positive_int(text)
    if value > D_SCALE_LIMIT:
        raise argparse.ArgumentTypeError(f"must be at most {D_SCALE_LIMIT}, got {value}")
    return value


def _resolve(args, manifest, name):
    """The command-line value of name, else the manifest's."""
    value = getattr(args, name, None)
    if value is not None:
        return value
    return getattr(manifest.options, name)


def _emit(doc, as_json, human_lines):
    if as_json:
        print(json.dumps(doc, sort_keys=True, indent=2))
    else:
        for line in human_lines:
            print(line)


def _warn_not_surjective(hom):
    image_order = len(hom.image_subgroup())
    if image_order != hom.group.order:
        print(
            f"note: homomorphism {hom.label!r} is not surjective; "
            f"computing with its image subgroup of order {image_order}",
            file=sys.stderr,
        )


def cmd_alexander(args):
    manifest = load_manifest(args.manifest)
    result = classical_alexander(manifest.torus)
    verdict = OrderVerdict.from_counts(*result.root_counts)
    poly = format_polynomial(result.polynomial)
    doc = {
        "label": manifest.torus.label,
        "polynomial": poly,
        "invariant_factors": result.factor_strings(),
        "free_rank": result.free_rank,
        "positive_root_count": verdict.positive_root_count,
        "status": verdict.status.value,
    }
    _emit(
        doc,
        args.json,
        [
            poly,
            f"positive real roots: {verdict.positive_root_count}",
            f"verdict: {verdict.status.value}",
        ],
    )
    return EXIT_OK


def _pick_representation(args, manifest):
    if getattr(args, "rep", None) is not None:
        return args.rep, select_representation(manifest, args.rep)
    if getattr(args, "hom", None) is not None or manifest.homomorphisms:
        hom = select_homomorphism(manifest, getattr(args, "hom", None))
        _warn_not_surjective(hom)
        return hom.label, regular_representation(hom)
    rep = select_representation(manifest, None)
    return rep.label, rep


def cmd_twisted(args):
    manifest = load_manifest(args.manifest)
    selector_label, rep = _pick_representation(args, manifest)
    result = twisted_alexander(manifest.torus, rep, d_scale=args.d_scale)
    poly = format_polynomial(result.polynomial)
    factors = result.factor_strings()
    doc = {
        "selector": selector_label,
        "d_scale": args.d_scale,
        "polynomial": poly,
        "invariant_factors": factors,
        "free_rank": result.free_rank,
    }
    _emit(
        doc,
        args.json,
        [
            poly,
            "invariant factors: " + ("; ".join(factors) if factors else "(none)"),
            f"free rank: {result.free_rank}",
        ],
    )
    return EXIT_OK


def cmd_cover(args):
    manifest = load_manifest(args.manifest)
    hom = select_homomorphism(manifest, args.hom)
    _warn_not_surjective(hom)
    # the Schreier basis has |f(F)| (n - 1) + 1 elements, known before the build
    rank = len(schreier_graph(hom)[0]) * (manifest.torus.fiber_rank - 1) + 1
    if rank > len(FIBER_ALPHABET):
        print(
            f"error: the cover of {hom.label!r} has {rank} basis generators; "
            f"lifted words print with at most {len(FIBER_ALPHABET)} generator letters",
            file=sys.stderr,
        )
        return EXIT_PARSE_ERROR
    cover = build_cover(manifest.torus, hom)
    result = cover_alexander(cover)
    doc = {
        "hom": hom.label,
        "d": cover.d,
        "w": format_word(cover.w),
        "transversal": [format_word(u) for u in cover.schreier_transversal],
        "basis": [format_word(b) for b in cover.subgroup_basis],
        "lifted_monodromy": [
            format_word(w) for w in cover.lifted_monodromy.images
        ],
        "polynomial": format_polynomial(result.polynomial),
    }
    _emit(
        doc,
        args.json,
        [
            f"cover degree d: {cover.d}",
            f"witness w: {format_word(cover.w) or '(empty)'}",
            f"subgroup rank: {len(cover.subgroup_basis)}",
            "basis: " + ", ".join(format_word(b) for b in cover.subgroup_basis),
            f"polynomial: {format_polynomial(result.polynomial)}",
        ],
    )
    return EXIT_OK


def _rep_battery(args, manifest):
    """The trivial representation, the regular representation of each
    selected homomorphism (every one without --hom) and the manifest's
    explicit representations."""
    battery = [("trivial", trivial_representation(manifest.torus.fiber_rank))]
    for hom in _selected_homs(args, manifest):
        battery.append((f"regular-{hom.label}", regular_representation(hom)))
    for rep in manifest.representations:
        battery.append((rep.label, rep))
    return battery


def _selected_homs(args, manifest):
    if getattr(args, "hom", None) is not None:
        return [select_homomorphism(manifest, args.hom)]
    return list(manifest.homomorphisms)


def _nonempty(doc, checks, ok):
    """A battery without checks fails instead of passing vacuously."""
    if checks:
        return ok
    doc["reason"] = "manifest defines no homomorphisms"
    return False


def cmd_verify(args):
    manifest = load_manifest(args.manifest)
    torus = manifest.torus
    which = args.which
    doc = {"which": which}
    ok = True

    if which == "shapiro":
        checks = []
        for hom in _selected_homs(args, manifest):
            report = verify_shapiro(torus, hom)
            checks.append({"hom": hom.label, **report})
            ok = ok and report["equal"]
        doc["checks"] = checks
        ok = _nonempty(doc, checks, ok)
    elif which == "lemma4":
        checks = []
        for label, rep in _rep_battery(args, manifest):
            for report in lemma4_check(torus, rep, (2, 3)):
                checks.append({"rep": label, **report})
                ok = ok and report["equal"]
        doc["checks"] = checks
    elif which == "lemma5":
        battery = _rep_battery(args, manifest)
        pairs = [(a, b) for i, a in enumerate(battery) for b in battery[i:]]
        equal = lemma5_check(torus, [(rep_a, rep_b) for (_, rep_a), (_, rep_b) in pairs])
        doc["checks"] = [
            {"a": label_a, "b": label_b, "equal": e}
            for ((label_a, _), (label_b, _)), e in zip(pairs, equal)
        ]
        ok = all(equal)
    elif which == "theorem2":
        checks = []
        for hom in _selected_homs(args, manifest):
            report = theorem2_report(torus, hom)
            hom_ok = report["existence_equal"]
            checks.append({"hom": hom.label, "ok": hom_ok, **report})
            ok = ok and hom_ok
        doc["checks"] = checks
        ok = _nonempty(doc, checks, ok)
    elif which == "order-lemmas":
        depth = _resolve(args, manifest, "depth") or _env_depth()
        trials = _resolve(args, manifest, "trials")
        seed = _resolve(args, manifest, "seed")
        commutators = lemma_comm_suite(2, trials, depth=depth, seed=seed)
        axioms = bi_order_axiom_suite(2, trials, depth=depth, seed=seed)
        doc.update(
            {
                "seed": seed,
                "commutators": commutators,
                "axioms": axioms,
            }
        )
        ok = commutators["violations"] == 0 and axioms["violations"] == 0
        if not (commutators["resolved"] and axioms["resolved"]):
            doc["reason"] = "a suite resolved no comparison"
            ok = False
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown verification {which!r}")

    doc["ok"] = ok
    print(json.dumps(doc, sort_keys=True, indent=2))
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_report(args):
    manifest = load_manifest(args.manifest)
    torus = manifest.torus
    classical = classical_alexander(torus)
    verdict = OrderVerdict.from_counts(*classical.root_counts)
    doc = {
        "label": torus.label,
        "classical": {
            "polynomial": format_polynomial(classical.polynomial),
            "positive_root_count": verdict.positive_root_count,
            "status": verdict.status.value,
        },
        "homomorphisms": [],
    }
    ok = True
    for hom in manifest.homomorphisms:
        theorem2 = theorem2_report(torus, hom)
        # verify_shapiro's block, read off the one theorem-2 computation;
        # formatted polynomials are equal exactly when the polynomials are.
        shapiro = {
            "twisted": theorem2["twisted"],
            "cover": theorem2["cover"],
            "equal": theorem2["twisted"] == theorem2["cover"],
            "d": theorem2["d"],
        }
        hom_ok = shapiro["equal"] and theorem2["existence_equal"]
        ok = ok and hom_ok
        doc["homomorphisms"].append(
            {
                "label": hom.label,
                "surjective": hom.is_surjective(),
                "shapiro": shapiro,
                "theorem2": theorem2,
                "ok": hom_ok,
            }
        )
    ok = _nonempty(doc, doc["homomorphisms"], ok)
    doc["ok"] = ok
    print(json.dumps(doc, sort_keys=True, indent=2))
    return EXIT_OK if ok else EXIT_CHECK_FAILED


@cache  # one parser per process, built at the first main call
def build_parser():
    parser = argparse.ArgumentParser(
        prog="orderlex",
        description=(
            "Exact Alexander polynomial and bi-orderability computations "
            "for mapping tori of free-group automorphisms"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, hom=False, rep=False, d_scale=False, suite=False):
        p.add_argument("manifest", help="path to a JSON manifest")
        p.add_argument("--json", action="store_true", help="emit a JSON document")
        if hom:
            p.add_argument("--hom", help="homomorphism label or index")
        if rep:
            p.add_argument("--rep", help="representation label, index, or 'trivial'")
        if d_scale:
            p.add_argument(
                "--d-scale",
                dest="d_scale",
                type=_d_scale,
                default=1,
                help=f"exponent assigned to the stable letter, 1 to {D_SCALE_LIMIT} (default 1)",
            )
        if suite:
            p.add_argument("--depth", type=_positive_int, help="Magnus truncation depth")
            p.add_argument("--trials", type=_positive_int, help="randomized trials per suite")
            p.add_argument("--seed", type=_int, help="random seed echoed in reports")

    p = sub.add_parser("alexander", help="classical polynomial and verdict")
    add_common(p)
    p.set_defaults(func=cmd_alexander)

    p = sub.add_parser("twisted", help="twisted polynomial for a selector")
    add_common(p, hom=True, rep=True, d_scale=True)
    p.set_defaults(func=cmd_twisted)

    p = sub.add_parser("cover", help="cover data and cover polynomial")
    add_common(p, hom=True)
    p.set_defaults(func=cmd_cover)

    p = sub.add_parser("verify", help="run a verification battery")
    p.add_argument(
        "which",
        choices=["shapiro", "lemma4", "lemma5", "theorem2", "order-lemmas"],
    )
    add_common(p, hom=True, suite=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("report", help="full summary for a manifest")
    add_common(p)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ManifestError, WordParseError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    except (CertificationError, IllDefinedHomomorphismError, RepresentationError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CERTIFICATION
    except SelectorError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_SELECTOR
    except ConsistencyError as e:
        print(f"error: internal cross-check disagreed (a bug): {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
