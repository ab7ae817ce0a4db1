"""Fuzzing the manifest loader through the CLI: every mutation of a shipped
manifest ends in a documented exit code, never a traceback, and every error
exit prints a located `error:` line.  A manifest the CLI accepts is ASCII in
every string it reads by the manifest grammar."""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from orderlex import cli

BASE = json.loads(
    (Path(__file__).resolve().parent.parent / "manifests" / "identity_rank2.json").read_text()
)
COMMANDS = (["alexander"], ["report"], ["twisted", "--rep", "0"])
ZERO_DIMENSION = copy.deepcopy(BASE)
ZERO_DIMENSION["representations"] = [
    {"label": "z", "fiber_matrices": [[], []], "stable_matrix": []}
]


def replaced(path, value):
    """BASE with the value at path replaced."""
    doc = copy.deepcopy(BASE)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


def json_paths(node, path=()):
    """Every path into node, the root () included."""
    yield path
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield from json_paths(child, path + (key,))


def lexed_strings(node, key=None):
    """The strings in node that the loader reads by the manifest grammar:
    every one but a label or a group name, which are free text."""
    if isinstance(node, str):
        if key not in ("label", "name"):
            yield node
    elif isinstance(node, dict):
        for k, child in node.items():
            yield from lexed_strings(child, k)
    elif isinstance(node, list):
        for child in node:
            yield from lexed_strings(child, key)


PATHS = list(json_paths(BASE))
# beside ASCII: characters of the Unicode categories Zs (U+3000, U+00A0,
# U+2003), Cc (U+001C, U+0085) and Nd (U+0661, U+FF11), for all of which
# str.isspace or str.isdecimal holds, and non-ASCII letters (U+212A KELVIN
# SIGN, U+FF41, U+00E9)
EXOTIC = "\u3000\xa0\u2003\x1c\x85\u0661\uff11\u212a\uff41\xe9"
VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-3, max_value=12),
    st.text("abABx " + EXOTIC, max_size=4),
    st.tuples(st.lists(st.sampled_from("0123" + EXOTIC), max_size=3),
              st.sampled_from(" ," + EXOTIC)).map(lambda c: "(" + c[1].join(c[0]) + ")"),
    st.tuples(st.integers(-3, 3), st.integers(0, 3), st.sampled_from(" " + EXOTIC)).map(
        lambda f: f"{f[2]}{f[0]}/{f[1]}"),
    st.just([]),
    st.just({}),
)


@st.composite
def mutated_manifests(draw):
    """The base manifest with the value at one path replaced, or one key
    deleted."""
    path = draw(st.sampled_from(PATHS))
    if not path:
        return draw(VALUES)
    doc = copy.deepcopy(BASE)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if isinstance(parent, dict) and draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(VALUES)
    return doc


@settings(max_examples=150, deadline=None)
@example(ZERO_DIMENSION)
@example(replaced(("manifold", "monodromy", 0), "a\u3000"))
@example(replaced(("homomorphisms", 0, "group", "generators", 0), "(1\xa02)"))
@example(replaced(("representations", 0, "fiber_matrices", 0, 0, 0), "\u2003-1"))
@given(mutated_manifests())
def test_cli_exit_codes_on_mutated_manifests(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.json"
        path.write_text(json.dumps(doc))
        for argv in COMMANDS:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv + [str(path)])
            assert code in range(6), (argv, code)
            if code in (cli.EXIT_OK, cli.EXIT_CHECK_FAILED):
                assert all(text.isascii() for text in lexed_strings(doc)), (argv, doc)
            if code >= cli.EXIT_PARSE_ERROR:
                assert any(
                    line.startswith("error:") for line in err.getvalue().splitlines()
                ), (argv, code, err.getvalue())
