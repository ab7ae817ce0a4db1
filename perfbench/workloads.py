"""Seeded inputs and checked items for the four benchmark workloads.

A workload turns a seed into a *pass*: a fixed list of items.  One item is
one call into the library's public API; running it returns the output
document that is digested against the golden file, plus a problem string
when the library's own independent route disagrees (None when it agrees).

Every library function is looked up through ``lib`` at call time, never
captured during set-up, so that the tracer's rebinding of module attributes
reaches every call an item makes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random

WORKLOADS = ("sweep", "cover_ladder", "order_suites", "cli_report")

# Battery entries whose monodromy grows, so that covers of growing degree
# need ever longer words.
GROWING = ("fig8", "fig8-alt", "fig8-swapped", "tribonacci", "tribonacci-mirror")
# The largest cover degree per growing entry.  Figure-eight style maps grow by
# a factor of about 2.6 per degree: on a 2-vCPU Xeon, degree 6 takes about
# 1 s and degree 7 about 9 s, which would be most of a run, so they stop at 6
# and only the slower-growing tribonacci maps reach 7.
LADDER_TOP = {"fig8": 6, "fig8-alt": 6, "fig8-swapped": 6, "tribonacci": 7,
              "tribonacci-mirror": 7}
# A pass takes every SWEEP_STRIDE-th homomorphism class of each battery
# entry, in a fixed order, so that every entry is represented in proportion
# and every seed runs the same battery classes.  The whole battery (about
# 270 classes, about 20 s on a 2-vCPU Xeon) is too long a pass to repeat in
# one run.
SWEEP_STRIDE = 7
SWEEP_EXTRAS = (2, 2, 3)  # ranks of the seed-drawn automorphisms
# Each seed-drawn automorphism adds this many of its classes onto Z2, so that
# the seed's share of the pass stays small and costs about the same on every
# seed.  (Classes onto larger images of these maps cost from 20 ms to 1 s.)
SWEEP_EXTRA_CLASSES = 2

# Nominal time of one pass and its set-up, rescaled to the reference host
# (run.REFERENCE_S): a run of --seconds makes round(--seconds / PASS_SECONDS)
# passes, whatever the speed of the code.
PASS_SECONDS = {"sweep": 3.2, "cover_ladder": 2.7, "order_suites": 3.0, "cli_report": 4.0}

SUITE_ITEMS = 32
SUITE_TRIALS = {"axioms": 128, "commutators": 24}
SUITE_DEPTH = 6

# One manifest per entry: (battery automorphism, image orders of its
# homomorphisms).  The shapes are fixed; the seed relabels the automorphism
# and draws the classes, so every seed costs about the same.  Each shape
# appears three times so that a pass averages over three draws.  Regular
# representations stay at dimension 3 or less, so lemma5 direct sums reach
# dimension 6.
CLI_MANIFESTS = (("tribonacci", (2,)), ("fig8", (2,)), ("fig8-alt", (3,)),
                 ("fig8-swapped", (2, 3))) * 3
CLI_COMMANDS = (
    ("report", ["report"]),
    ("lemma4", ["verify", "lemma4"]),
    ("lemma5", ["verify", "lemma5"]),
)


def digest(obj):
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Item:
    __slots__ = ("key", "kind", "call")

    def __init__(self, key, kind, call):
        self.key = key
        self.kind = kind
        self.call = call


# -- seeded automorphisms -----------------------------------------------


def _nielsen_move(lib, rng, rank):
    """One elementary Nielsen automorphism, with its inverse images."""
    letters = lib.words.FIBER_ALPHABET[:rank]
    images = list(letters)
    inverses = list(letters)
    i, j = rng.sample(range(rank), 2)
    x, y = letters[i], letters[j]
    y_pow, y_inv = (y, y.upper()) if rng.random() < 0.5 else (y.upper(), y)
    kind = rng.choice(("right", "left", "invert", "swap"))
    if kind == "right":
        images[i], inverses[i] = x + y_pow, x + y_inv
    elif kind == "left":
        images[i], inverses[i] = y_pow + x, y_inv + x
    elif kind == "invert":
        images[i] = inverses[i] = x.upper()
    else:
        images[i], images[j] = y, x
        inverses[i], inverses[j] = y, x
    return lib.autos.automorphism(rank, images, inverses)


def nielsen_automorphism(lib, rng, rank):
    """A product of one to three Nielsen moves, certified by compose."""
    auto = _nielsen_move(lib, rng, rank)
    for _ in range(rng.randint(0, 2)):
        auto = auto.compose(_nielsen_move(lib, rng, rank))
    return auto


def relabel(lib, rng, auto):
    """Conjugate of auto by a seed-drawn signed permutation of the
    generators: a different automorphism with the same word lengths, growth
    and mapping torus, certified by compose."""
    letters = lib.words.FIBER_ALPHABET[:auto.rank]
    images = [""] * auto.rank
    inverses = [""] * auto.rank
    for i, j in enumerate(rng.sample(range(auto.rank), auto.rank)):
        flip = rng.random() < 0.5
        images[i] = letters[j].upper() if flip else letters[j]
        inverses[j] = letters[i].upper() if flip else letters[i]
    psi = lib.autos.automorphism(auto.rank, images, inverses)
    return psi.compose(auto).compose(psi.inverse_endomorphism())


def auto_key(auto):
    """Text of the monodromy images, independent of any label."""
    return "/".join(
        [str(auto.rank)]
        + ["".join(f"{g * s}." for g, s in w.letters) for w in auto.images]
    )


def _classes(lib, auto, max_order=None):
    """Homomorphism classes of the mapping torus into the small groups,
    one representative per image_key, in catalog order."""
    classes = {}
    for group in lib.finite.small_groups_catalog():
        if max_order is not None and group.order > max_order:
            continue
        for f in lib.finite.enumerate_homomorphisms(auto, group):
            classes.setdefault(f.image_key(), f)
    return classes


def _class_text(image_key):
    fibers, stable = image_key
    return repr((list(map(list, fibers)), list(stable)))


# -- sweep ----------------------------------------------------------------


def _theorem2_item(lib, torus, f, key):
    def call():
        report = lib.ordering.theorem2_report(torus, f)
        problem = None
        if not report["existence_equal"]:
            problem = "twisted and cover disagree on positive-root existence"
        elif report["d"] != lib.finite.cover_degree(f)[0]:
            problem = f"cover of degree {report['d']}, not cover_degree(f)"
        return report, problem

    return Item(key, "theorem2", call)


def build_sweep(lib, rng, tiny):
    items = []
    battery = [(label, auto, False) for label, auto in lib.autos.standard_battery()]
    extras = [(f"nielsen-{i}", nielsen_automorphism(lib, rng, rank), True)
              for i, rank in enumerate(SWEEP_EXTRAS)]
    for label, auto, drawn in battery + extras:
        torus = lib.torus.MappingTorus(auto.rank, auto, label=label)
        classes = sorted(_classes(lib, auto).items(), key=lambda kv: _class_text(kv[0]))
        if drawn:
            classes = [(k, f) for k, f in classes if len(k[1]) == 2]
            classes = rng.sample(classes, min(SWEEP_EXTRA_CLASSES, len(classes)))
        else:
            classes = classes[::SWEEP_STRIDE]
        for image_key, f in classes:
            key = f"{auto_key(auto)}|{_class_text(image_key)}"
            items.append(_theorem2_item(lib, torus, f, key))
    if tiny:
        items = items[:2] + items[-2:]
    rng.shuffle(items)
    return items, {}


# -- cover_ladder ---------------------------------------------------------


def _shapiro_item(lib, torus, k, key):
    group = lib.finite.cyclic_group(k)
    f = lib.finite.TorusHomomorphism(
        group, [group.identity()] * torus.fiber_rank, group.element(1)
    )

    def call():
        report = lib.covers.verify_shapiro(torus, f)
        problem = None
        if not report["equal"]:
            problem = "twisted and cover polynomials differ"
        elif report["d"] != k:
            problem = f"cover degree {report['d']} for Z{k}"
        return report, problem

    return Item(key, "shapiro", call)


def build_cover_ladder(lib, rng, tiny):
    battery = dict(lib.autos.standard_battery())
    rungs = []
    for label in GROWING:
        auto = relabel(lib, rng, battery[label])
        rungs += [(label, auto, k) for k in range(2, LADDER_TOP[label] + 1)]
    if tiny:
        rungs = [r for r in rungs if r[2] <= 3][:4]
    items = []
    for label, auto, k in rungs:
        torus = lib.torus.MappingTorus(auto.rank, auto, label=label)
        items.append(_shapiro_item(lib, torus, k, f"{auto_key(auto)}|Z{k}"))
    rng.shuffle(items)
    return items, {}


# -- order_suites ---------------------------------------------------------


def _suite_item(lib, suite, rank, trials, seed):
    def call():
        fn = (lib.ordering.bi_order_axiom_suite if suite == "axioms"
              else lib.ordering.lemma_comm_suite)
        report = fn(rank, trials, depth=SUITE_DEPTH, seed=seed)
        problem = None
        if report["violations"]:
            problem = f"{report['violations']} violations"
        elif report["trials"] != trials or not report["resolved"]:
            problem = "suite ran no resolved comparison"
        return report, problem

    return Item(f"{suite}|{rank}|{trials}|{seed}", suite, call)


def build_order_suites(lib, rng, tiny):
    items = []
    for i in range(SUITE_ITEMS):
        suite = ("axioms", "commutators")[i % 2]
        rank = 2 + (i // 2) % 2
        items.append(_suite_item(lib, suite, rank, SUITE_TRIALS[suite], rng.getrandbits(32)))
    if tiny:
        items = items[:4]
    rng.shuffle(items)
    return items, {}


# -- cli_report -----------------------------------------------------------


def _manifest(lib, rng, index, auto, orders):
    """A manifest document for the automorphism with one seed-drawn
    homomorphism class per image order and one explicit representation.
    Every order up to 6 has at least the class that kills the fiber and
    sends t to a generator of the cyclic group."""
    by_order = {}
    for image_key, f in sorted(_classes(lib, auto, max(orders)).items(),
                               key=lambda kv: _class_text(kv[0])):
        by_order.setdefault(len(image_key[1]), []).append(f)
    chosen = [rng.choice(by_order[order]) for order in orders]
    fmt = lib.words.format_word
    homs = []
    for j, f in enumerate(chosen):
        group = f.group
        homs.append({
            "label": f"h{j}",
            "group": {
                "name": group.name,
                "degree": group.degree,
                "generators": [lib.finite.format_cycles(g) for g in group.generators],
            },
            "fiber_images": [group.index(p) for p in f.fiber_images],
            "stable_image": group.index(f.stable_image),
        })
    dim = 2 + index % 2
    identity = [[int(i == j) for j in range(dim)] for i in range(dim)]
    cycle = [[int(j == (i + 1) % dim) for j in range(dim)] for i in range(dim)]
    return {
        "manifold": {
            "rank": auto.rank,
            "monodromy": [fmt(w) for w in auto.images],
            "monodromy_inverse": [fmt(w) for w in auto.inverse_images],
            "label": f"seeded-{index}",
        },
        "homomorphisms": homs,
        "representations": [{
            "label": f"cycle{dim}",
            "fiber_matrices": [identity] * auto.rank,
            "stable_matrix": cycle,
        }],
    }


def _cli_item(lib, name, argv, path, key):
    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = lib.cli.main(argv + [path, "--json"])
        if code != 0:
            return {"exit": code}, f"exit code {code}: {err.getvalue().strip()}"
        doc = json.loads(out.getvalue())
        return doc, None if doc.get("ok") is True else "ok is not true"

    return Item(key, name, call)


def build_cli_report(lib, rng, tiny, workdir):
    items = []
    manifests = {}
    battery = dict(lib.autos.standard_battery())
    for i, (label, orders) in enumerate(CLI_MANIFESTS[:1] if tiny else CLI_MANIFESTS):
        doc = _manifest(lib, rng, i, relabel(lib, rng, battery[label]), orders)
        text = json.dumps(doc, indent=2, sort_keys=True)
        path = workdir / f"seeded-{i}.json"
        path.write_text(text)
        manifests[path.name] = text
        lib.manifest.load_manifest(str(path))
        for name, argv in CLI_COMMANDS:
            items.append(_cli_item(lib, name, argv, str(path), f"{name}|{digest(text)}"))
    rng.shuffle(items)
    return items, manifests


def build(workload, lib, seed, tiny, workdir):
    """Return (items, extra input files) for one seed; the same seed always
    gives the same inputs."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "sweep":
        return build_sweep(lib, rng, tiny)
    if workload == "cover_ladder":
        return build_cover_ladder(lib, rng, tiny)
    if workload == "order_suites":
        return build_order_suites(lib, rng, tiny)
    if workload == "cli_report":
        return build_cli_report(lib, rng, tiny, workdir)
    raise ValueError(f"unknown workload {workload!r}")


def warm_up(workload, lib, workdir):
    """Fill lazy state before timing: the Magnus letter cache and the first
    call through each code path of the workload."""
    if workload == "order_suites":
        for rank in (2, 3):
            lib.ordering.bi_order_axiom_suite(rank, 2, depth=SUITE_DEPTH, seed=0)
            lib.ordering.lemma_comm_suite(rank, 2, depth=SUITE_DEPTH, seed=0)
    elif workload == "sweep":
        auto = lib.autos.identity_automorphism(2)
        torus = lib.torus.MappingTorus(2, auto, label="warm-up")
        group = lib.finite.cyclic_group(2)
        f = lib.finite.TorusHomomorphism(group, [group.identity()] * 2, group.element(1))
        lib.ordering.theorem2_report(torus, f)
    elif workload == "cover_ladder":
        _shapiro_item(lib, lib.torus.MappingTorus(
            2, lib.autos.identity_automorphism(2), label="warm-up"), 2, "").call()
    elif workload == "cli_report":
        with contextlib.redirect_stdout(io.StringIO()):
            lib.cli.main(["alexander", str(workdir / "seeded-0.json"), "--json"])
