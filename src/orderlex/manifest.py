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
import re

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import EnumerationLimitError, ManifestError, RepresentationError
from .errors import IllDefinedHomomorphismError, SelectorError, WordParseError
from .finite import DEFAULT_ELEMENT_LIMIT, FiniteGroup, FiniteRepresentation
from .finite import TorusHomomorphism, parse_cycles, trivial_representation
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

# a matrix entry string: an integer or p/q, so that the interpreter's digit
# limit bounds it; Fraction alone also takes exponents such as "1e3000000".
# Under re.ASCII, \s is words._SPACE, the whitespace of every manifest string
_ENTRY = re.compile(r"\s*[+-]?[0-9]+(/[0-9]+)?\s*", re.ASCII)


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
    # every permutation is a list of degree points, so bound it before parsing
    if degree > DEFAULT_ELEMENT_LIMIT:
        raise ManifestError(
            f"degree {degree} exceeds the limit of {DEFAULT_ELEMENT_LIMIT}",
            f"{location}.degree",
        )
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


def _element_index(value, group, location):
    _expect(value, int, location)
    if not 0 <= value < group.order:
        raise ManifestError(
            f"element index {value} out of range 0..{group.order - 1}", location
        )
    return value


def _load_homomorphism(spec, torus, index):
    location = f"homomorphisms[{index}]"
    _expect(spec, dict, location)
    group = _load_group(_get(spec, "group", dict, location), f"{location}.group")
    fiber_indices = _get(spec, "fiber_images", list, location)
    stable = _get(spec, "stable_image", int, location)
    label = _get(spec, "label", str, location, default=f"hom{index}")
    if len(fiber_indices) != torus.fiber_rank:
        raise ManifestError(
            f"expected {torus.fiber_rank} fiber images, got {len(fiber_indices)}",
            f"{location}.fiber_images",
        )
    indices = [
        _element_index(idx, group, f"{location}.fiber_images[{i}]")
        for i, idx in enumerate(fiber_indices)
    ]
    indices.append(_element_index(stable, group, f"{location}.stable_image"))
    hom = TorusHomomorphism(
        group, [group.element(i) for i in indices[:-1]], group.element(indices[-1]),
        label=label,
    )
    if not hom.is_well_defined(torus.monodromy):
        raise IllDefinedHomomorphismError(
            f"{location} {label!r}: images violate the mapping-torus relations"
        )
    return hom


def _load_matrix(rows, location):
    _expect(rows, list, location)
    out = []
    for i, row in enumerate(rows):
        _expect(row, list, f"{location}[{i}]")
        entries = []
        for j, x in enumerate(row):
            loc = f"{location}[{i}][{j}]"
            if not (type(x) is int or isinstance(x, str) and _ENTRY.fullmatch(x)):
                raise ManifestError(
                    "matrix entries must be integers or strings p or p/q", loc
                )
            try:
                entries.append(x if type(x) is int else Fraction(x))
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
    try:
        rep = FiniteRepresentation(fibers, stable, label=label)
    except RepresentationError as e:
        raise RepresentationError(f"{location}: {e}") from e
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
    except RecursionError:
        raise ManifestError("invalid JSON: nested too deeply", "manifest") from None
    except ValueError as e:
        # json raises a plain ValueError only for an integer literal
        # beyond the interpreter's digit limit for int conversion
        raise ManifestError(
            "invalid JSON: an integer literal exceeds the digit limit", "manifest"
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


def _select(items, selector, kind):
    """The item labelled selector, else the one it indexes, written in ASCII
    digits: int() also reads other scripts' digits, such as U+0661."""
    for item in items:
        if item.label == selector:
            return item
    if selector.isascii() and selector.isdecimal() and int(selector) < len(items):
        return items[int(selector)]
    raise SelectorError(f"no {kind} matches {selector!r}")


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
    return _select(homs, selector, "homomorphism")


def select_representation(manifest, selector=None):
    """Resolve an explicit representation by label or index; the name
    "trivial" always resolves to the one-dimensional trivial representation."""
    reps = manifest.representations
    if selector in (None, "trivial"):
        if selector == "trivial" or not reps:
            return trivial_representation(manifest.torus.fiber_rank)
        if len(reps) == 1:
            return reps[0]
        raise SelectorError("manifest has no unique representation; pass a selector")
    return _select(reps, selector, "representation")
