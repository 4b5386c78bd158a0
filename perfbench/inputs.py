"""Seeded input builders for the agq benchmark.

Every builder is a pure function of the benchmark seed: the same seed gives
byte-identical ``.agq`` texts.  The closed workloads fix their sizes (one
size, or a ladder of sizes) and the seed draws only the structure, so two
seeds ask for about the same amount of work.  The fixtures and the oracle
corpus are fixed sets; there the seed only orders the ops.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

FIXTURES = Path(__file__).resolve().parent / "fixtures"

# The three commands a user runs on a file, as ``agq`` arguments.
CLI_COMMANDS = {
    "gldim": ("gldim", "{file}", "--witness"),
    "gorenstein": ("gorenstein", "{file}", "--json"),
    "check": ("check", "{file}"),
}


@dataclass(frozen=True)
class Item:
    """One input instance: ``.agq`` text (or a fixture command) and its size."""

    key: str
    text: str
    vertices: int
    arrows: int
    relations: int
    argv: tuple[str, ...] = ()


def agq_size(text: str) -> tuple[int, int, int]:
    """(V, A, R) counted from the text itself, without the package."""
    v = a = r = 0
    for line in text.splitlines():
        head = line.split(None, 1)[0] if line.strip() else ""
        if head == "vertex":
            v += len(line.split()) - 1
        elif head == "arrow":
            a += 1
        elif head == "rel":
            r += 1
    return v, a, r


def _item(key: str, text: str, argv: tuple[str, ...] = ()) -> Item:
    return Item(key, text, *agq_size(text), argv=argv)


# -- cli_fixtures --------------------------------------------------------------

def fixture_items() -> list[Item]:
    """Each shipped fixture under each CLI command, in a fixed order."""
    items = []
    for path in sorted(FIXTURES.glob("*.agq")):
        text = path.read_text(encoding="utf-8")
        for cmd, argv in CLI_COMMANDS.items():
            args = tuple(a.format(file=str(path)) for a in argv)
            items.append(_item(f"{path.name} {cmd}", text, args))
    return items


# -- closed_cyclic -------------------------------------------------------------

CYCLIC_MAX_VERTICES = 150
CYCLIC_MAX_ARROWS = 300
CYCLIC_VERTICES = 120   # every instance has V = 120 +- 3 and A = 2V +- 6


def generator_draws(gseed: int, max_vertices: int, max_arrows: int) -> tuple[int, int]:
    """The vertex and arrow counts ``random_ag_pair`` will draw for a seed.

    Repeats the generator's first two draws so that seeds of a wanted size
    are found without building every candidate.  The real size of each
    accepted instance is checked after generation.
    """
    rng = random.Random(gseed)
    return rng.randint(1, max_vertices), rng.randint(0, max_arrows)


def _generate(gseed: int, want: tuple[int, int], tol: tuple[int, int], **params) -> str:
    from agq.generator import GeneratorParams, random_ag_pair

    pair, text = random_ag_pair(GeneratorParams(seed=gseed, **params))
    v, a = len(pair.quiver.vertices), len(pair.quiver.arrows)
    if abs(v - want[0]) > tol[0] or abs(a - want[1]) > tol[1]:
        raise RuntimeError(f"generator seed {gseed} gave V={v} A={a}, expected about "
                           f"V={want[0]} A={want[1]}; the generator's draws have changed")
    return text


def cyclic_items(seed: int, count: int) -> list[Item]:
    """Dense generator instances (loops allowed, A close to 2V), all of one size."""
    rng = random.Random(f"closed_cyclic:{seed}")
    want = (CYCLIC_VERTICES, 2 * CYCLIC_VERTICES)
    items = []
    while len(items) < count:
        gseed = rng.randrange(2**31)
        nv, na = generator_draws(gseed, CYCLIC_MAX_VERTICES, CYCLIC_MAX_ARROWS)
        if abs(nv - want[0]) <= 3 and abs(na - want[1]) <= 6:
            text = _generate(gseed, want, (3, 6), max_vertices=CYCLIC_MAX_VERTICES,
                             max_arrows=CYCLIC_MAX_ARROWS)
            items.append(_item(f"cyclic-g{gseed}", text))
    return items


# -- closed_acyclic ------------------------------------------------------------

def acyclic_text(rng: random.Random, n_arrows: int, name: str) -> str:
    """An almost gentle pair on a quiver without oriented cycles.

    Vertices are v0..v{n-1} with n = A/2; every arrow goes from a vertex to
    one of the next three, so forbidden paths run long.  At each vertex a
    random partial matching of in-arrows to out-arrows gives the nonzero
    compositions and every other composable pair is a relation.  Each arrow
    then has at most one nonzero successor and predecessor, and an acyclic
    quiver has no nonzero cycle, so the pair validates by construction.
    """
    n_v = max(2, n_arrows // 2)
    ends = []
    ins: list[list[int]] = [[] for _ in range(n_v)]
    outs: list[list[int]] = [[] for _ in range(n_v)]
    for k in range(n_arrows):
        s = rng.randrange(n_v - 1)
        t = min(n_v - 1, s + rng.randint(1, 3))
        ends.append((s, t))
        outs[s].append(k)
        ins[t].append(k)
    nonzero = set()
    for v in range(n_v):
        a_in, a_out = ins[v][:], outs[v][:]
        rng.shuffle(a_in)
        rng.shuffle(a_out)
        for a, b in zip(a_in, a_out):
            if rng.random() < 0.5:
                nonzero.add((a, b))
    rels = sorted((a, b) for v in range(n_v) for a in ins[v] for b in outs[v]
                  if (a, b) not in nonzero)
    lines = [f"algebra {name}", "vertex " + " ".join(f"v{i}" for i in range(n_v))]
    lines += [f"arrow a{k} : v{s} -> v{t}" for k, (s, t) in enumerate(ends)]
    lines += [f"rel a{a} a{b}" for a, b in rels]
    return "\n".join(lines) + "\n"


def acyclic_items(seed: int, count: int) -> list[Item]:
    """Acyclic instances on a log-spaced ladder of arrow counts, 150 to 2000.

    The seed draws the structure of each rung, not its size.
    """
    rng = random.Random(f"closed_acyclic:{seed}")
    items = []
    for k in range(count):
        n_arrows = round(150 * (2000 / 150) ** ((k + 0.5) / count))
        name = f"acyclic_{seed}_{k}"
        items.append(_item(name, acyclic_text(rng, n_arrows, name)))
    return items


# -- oracle_corpus -------------------------------------------------------------

ORACLE_MAX_LOOPS = 10   # one-vertex instances with more loops are left out


def oracle_items(count: int) -> list[Item]:
    """The acceptance criterion 6 corpus: default ``GeneratorParams``, seeds 1, 2, ...

    The first `count` generator seeds, skipping one-vertex instances with
    more than ORACLE_MAX_LOOPS loops (seeds 19, 104, 127, 139, 162, 196 and
    200 among the first 207), which take from 0.85 to 7.5 s each.  Oracle times of
    the others still span three orders of magnitude, so a fresh draw of
    instances per benchmark seed would move the median by about a fifth;
    the benchmark seed only orders this fixed corpus.
    """
    from agq.generator import GeneratorParams, random_ag_pair

    items = []
    gseed = 0
    while len(items) < count:
        gseed += 1
        pair, text = random_ag_pair(GeneratorParams(seed=gseed))
        if len(pair.quiver.vertices) > 1 or len(pair.quiver.arrows) <= ORACLE_MAX_LOOPS:
            items.append(_item(f"oracle-g{gseed}", text))
    return items
