"""Fuzzing the manifest loader through the CLI: every mutation of a shipped
manifest ends in a documented exit code, never a traceback, and every error
exit prints a located `error:` line."""

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


PATHS = list(json_paths(BASE))
VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-3, max_value=12),
    st.text("abABx", max_size=4),
    st.lists(st.integers(min_value=0, max_value=3), max_size=3).map(
        lambda c: "(" + " ".join(map(str, c)) + ")"
    ),
    st.tuples(st.integers(-3, 3), st.integers(0, 3)).map(lambda f: f"{f[0]}/{f[1]}"),
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
            if code >= cli.EXIT_PARSE_ERROR:
                assert any(
                    line.startswith("error:") for line in err.getvalue().splitlines()
                ), (argv, code, err.getvalue())
