"""JSON manifests describing a mapping torus, homomorphisms to finite
groups, and optional explicit matrix representations.

Schema (all words use the letter grammar of words.parse_word; permutations
use cycle notation; homomorphism images are indices into the target group's
breadth-first element list):

    {
      "manifold": {
        "rank": 2,
        "monodromy": ["aba", "ab"],
        "monodromy_inverse": ["Ba", "Abb"],
        "label": "figure-eight"
      },
      "homomorphisms": [
        {
          "label": "Z2-regular",
          "group": {"name": "Z2", "degree": 2, "generators": ["(1 2)"]},
          "fiber_images": [0, 0],
          "stable_image": 1
        }
      ],
      "representations": [
        {"label": "eps", "fiber_matrices": [[[1]], [[1]]], "stable_matrix": [[1]]}
      ],
      "options": {"depth": 6, "trials": 500, "seed": 1}
    }
"""

from __future__ import annotations

import json

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import EnumerationLimitError, ManifestError, RepresentationError
from .errors import SelectorError, WordParseError
from .finite import FiniteGroup, FiniteRepresentation, TorusHomomorphism, parse_cycles
from .freegroup import FreeEndomorphism
from .linalg import RationalMatrix
from .torus import MappingTorus
from .words import parse_word


@dataclass
class ManifestOptions:
    depth: int | None = None
    trials: int = 500
    seed: int = 0


@dataclass
class LoadedManifest:
    torus: MappingTorus
    homomorphisms: list = field(default_factory=list)
    representations: list = field(default_factory=list)
    options: ManifestOptions = field(default_factory=ManifestOptions)


_MISSING = object()


def _expect(value, kind, location):
    if not isinstance(value, kind) or isinstance(value, bool):
        name = kind[0].__name__ if isinstance(kind, tuple) else kind.__name__
        raise ManifestError(f"expected {name}, got {type(value).__name__}", location)
    return value


def _get(mapping, key, kind, location, default=_MISSING):
    if key not in mapping:
        if default is not _MISSING:
            return default
        raise ManifestError(f"missing required key {key!r}", location)
    return _expect(mapping[key], kind, f"{location}.{key}")


def _parse_word_field(text, rank, location):
    try:
        return parse_word(_expect(text, str, location), rank)
    except WordParseError as e:
        raise ManifestError(str(e), location) from e


def _load_group(spec, location):
    _expect(spec, dict, location)
    degree = _get(spec, "degree", int, location)
    gen_specs = _get(spec, "generators", list, location)
    name = _get(spec, "name", str, location, default=None)
    generators = []
    for i, text in enumerate(gen_specs):
        loc = f"{location}.generators[{i}]"
        _expect(text, str, loc)
        try:
            generators.append(parse_cycles(text, degree))
        except ValueError as e:
            raise ManifestError(str(e), loc) from e
    try:
        return FiniteGroup(degree, generators, name=name)
    except (ValueError, EnumerationLimitError) as e:
        raise ManifestError(str(e), location) from e


def _load_homomorphism(spec, torus, index):
    location = f"homomorphisms[{index}]"
    _expect(spec, dict, location)
    group = _load_group(_get(spec, "group", dict, location), f"{location}.group")
    fiber_indices = _get(spec, "fiber_images", list, location)
    stable_index = _get(spec, "stable_image", int, location)
    label = _get(spec, "label", str, location, default=f"hom{index}")
    if len(fiber_indices) != torus.fiber_rank:
        raise ManifestError(
            f"expected {torus.fiber_rank} fiber images, got {len(fiber_indices)}",
            f"{location}.fiber_images",
        )
    images = []
    for i, idx in enumerate(fiber_indices):
        loc = f"{location}.fiber_images[{i}]"
        _expect(idx, int, loc)
        if not 0 <= idx < group.order:
            raise ManifestError(
                f"element index {idx} out of range 0..{group.order - 1}", loc
            )
        images.append(group.element(idx))
    if not 0 <= stable_index < group.order:
        raise ManifestError(
            f"element index {stable_index} out of range 0..{group.order - 1}",
            f"{location}.stable_image",
        )
    hom = TorusHomomorphism(
        group, images, group.element(stable_index), label=label
    )
    hom.require_well_defined(torus.monodromy)
    return hom


def _load_matrix(rows, location):
    _expect(rows, list, location)
    out = []
    for i, row in enumerate(rows):
        _expect(row, list, f"{location}[{i}]")
        entries = []
        for j, x in enumerate(row):
            loc = f"{location}[{i}][{j}]"
            if isinstance(x, bool) or not isinstance(x, (int, str)):
                raise ManifestError(
                    "matrix entries must be integers or fraction strings", loc
                )
            try:
                entries.append(Fraction(x))
            except (ValueError, ZeroDivisionError) as e:
                raise ManifestError(str(e), loc) from e
        out.append(entries)
    try:
        return RationalMatrix(out)
    except ValueError as e:
        raise ManifestError(str(e), location) from e


def _load_representation(spec, torus, index):
    location = f"representations[{index}]"
    _expect(spec, dict, location)
    label = _get(spec, "label", str, location, default=f"rep{index}")
    fiber_specs = _get(spec, "fiber_matrices", list, location)
    if len(fiber_specs) != torus.fiber_rank:
        raise ManifestError(
            f"expected {torus.fiber_rank} fiber matrices, got {len(fiber_specs)}",
            f"{location}.fiber_matrices",
        )
    fibers = [
        _load_matrix(rows, f"{location}.fiber_matrices[{i}]")
        for i, rows in enumerate(fiber_specs)
    ]
    stable = _load_matrix(
        _get(spec, "stable_matrix", list, location), f"{location}.stable_matrix"
    )
    rep = FiniteRepresentation(fibers, stable, label=label)
    if not rep.satisfies_relations(torus.monodromy):
        raise RepresentationError(
            f"{location}: matrices violate the mapping-torus relations"
        )
    return rep


def _load_torus(spec):
    location = "manifold"
    _expect(spec, dict, location)
    rank = _get(spec, "rank", int, location)
    if rank < 1:
        raise ManifestError("rank must be at least 1", f"{location}.rank")
    label = _get(spec, "label", str, location, default="")
    images_spec = _get(spec, "monodromy", list, location)
    inverses_spec = _get(spec, "monodromy_inverse", list, location)
    if len(images_spec) != rank or len(inverses_spec) != rank:
        raise ManifestError(
            "monodromy and monodromy_inverse must list one word per generator",
            location,
        )

    def words(key, specs):
        return tuple(
            _parse_word_field(s, rank, f"{location}.{key}[{i}]")
            for i, s in enumerate(specs)
        )

    monodromy = FreeEndomorphism(
        rank, words("monodromy", images_spec), words("monodromy_inverse", inverses_spec)
    )
    return MappingTorus(rank, monodromy, label=label)


def loads_manifest(text):
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise ManifestError(
            f"invalid JSON: {e.msg}", f"line {e.lineno} column {e.colno}"
        ) from e
    _expect(data, dict, "manifest")
    torus = _load_torus(_get(data, "manifold", dict, "manifest"))
    homs = [
        _load_homomorphism(spec, torus, i)
        for i, spec in enumerate(_get(data, "homomorphisms", list, "manifest", default=[]))
    ]
    reps = [
        _load_representation(spec, torus, i)
        for i, spec in enumerate(
            _get(data, "representations", list, "manifest", default=[])
        )
    ]
    opt_spec = _get(data, "options", dict, "manifest", default={})
    options = ManifestOptions(
        depth=_get(opt_spec, "depth", int, "options", default=None),
        trials=_get(opt_spec, "trials", int, "options", default=500),
        seed=_get(opt_spec, "seed", int, "options", default=0),
    )
    for key in ("depth", "trials"):
        value = getattr(options, key)
        if value is not None and value < 1:
            raise ManifestError(f"must be at least 1, got {value}", f"options.{key}")
    return LoadedManifest(torus, homs, reps, options)


def load_manifest(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise ManifestError(str(e), str(path)) from e
    return loads_manifest(text)


def select_homomorphism(manifest, selector=None):
    homs = manifest.homomorphisms
    if selector is None:
        if len(homs) == 1:
            return homs[0]
        raise SelectorError(
            "manifest has no unique homomorphism; pass a selector"
            if homs
            else "manifest defines no homomorphisms"
        )
    for hom in homs:
        if hom.label == selector:
            return hom
    if selector.isdigit() and int(selector) < len(homs):
        return homs[int(selector)]
    raise SelectorError(f"no homomorphism matches {selector!r}")


def select_representation(manifest, selector=None):
    """Resolve an explicit representation by label or index; the name
    "trivial" always resolves to the one-dimensional trivial representation."""
    reps = manifest.representations
    if selector in (None, "trivial"):
        if selector == "trivial" or not reps:
            return FiniteRepresentation.trivial(manifest.torus.fiber_rank)
        if len(reps) == 1:
            return reps[0]
        raise SelectorError("manifest has no unique representation; pass a selector")
    for rep in reps:
        if rep.label == selector:
            return rep
    if selector.isdigit() and int(selector) < len(reps):
        return reps[int(selector)]
    raise SelectorError(f"no representation matches {selector!r}")
