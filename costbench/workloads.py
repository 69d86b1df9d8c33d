"""Seeded task generators for the three benchmark workloads.

Each generator takes a seed and returns `Task` records: the background facts,
the training and held-out examples, the bias and the planted program that
labelled the examples.  `write_workload` renders them into task directories
in the format `lexicost bench` reads.  The learner only ever sees those
files; the planted program is kept for the checker.

Head predicates never occur in the background, as in the paper's tasks (the
learner mis-costs background facts on a head predicate; see CHANGES.md).

What varies with the seed is chosen so that the amount of work stays nearly
the same from seed to seed (see README.md, "Workloads"):

- closure: the names of the nodes, the order of the examples and which
  unconnected pairs serve as extra negatives.  The graph shapes are fixed,
  because the generator's work depends on which candidates cover no
  positive example, and that is a property of the shape.
- graph: a random 2-in/2-out regular digraph, random unary properties of
  fixed sizes, and a stratified sample of examples.
- noisy: one instance drawn from a fixed seed, because the combiner's effort
  swings several-fold between random draws; the workload seed renames every
  constant and shuffles the facts and examples.
"""

from __future__ import annotations

import random
import shutil
import string
from dataclasses import dataclass
from pathlib import Path

Fact = tuple  # (predicate, arg, ...)

WORKLOADS = ("closure", "graph", "noisy")


@dataclass
class Task:
    name: str
    facts: list[Fact]
    pos: list[Fact]
    neg: list[Fact]
    test_pos: list[Fact]
    test_neg: list[Fact]
    head_preds: list[tuple[str, int]]
    body_preds: list[tuple[str, int]]
    max_vars: int
    max_body: int
    max_clauses: int
    recursion: bool
    planted: list[str]  # rules in `head:- b1,b2.` syntax


def _names(rng: random.Random, n: int, prefix: str) -> list[str]:
    """n distinct random constant names, each starting with `prefix`."""
    out: set[str] = set()
    while len(out) < n:
        out.add(prefix + "".join(rng.choices(string.ascii_lowercase, k=5)))
    names = sorted(out)
    rng.shuffle(names)
    return names


# ---------------------------------------------------------------------------
# closure: transitive closure over chains, recursion enabled
# ---------------------------------------------------------------------------

CLOSURE_TRAIN_CHAIN = 5
CLOSURE_TEST_CHAIN = 6
CLOSURE_CROSS_NEG = 4


def _chain_pairs(nodes: list[str]) -> list[tuple[str, str]]:
    return [(nodes[i], nodes[j]) for i in range(len(nodes)) for j in range(i + 1, len(nodes))]


def closure_tasks(seed: int) -> list[Task]:
    rng = random.Random(f"closure:{seed}")
    names = _names(rng, CLOSURE_TRAIN_CHAIN + CLOSURE_TEST_CHAIN, "n")
    train, test = names[:CLOSURE_TRAIN_CHAIN], names[CLOSURE_TRAIN_CHAIN:]
    facts = [("edge", a, b) for chain in (train, test) for a, b in zip(chain, chain[1:])]

    cross = [(a, b) for a in train for b in test] + [(b, a) for a in train for b in test]

    def split(nodes):
        pos = [("path", a, b) for a, b in _chain_pairs(nodes)]
        neg = [("path", b, a) for a, b in _chain_pairs(nodes)]
        return pos, neg

    pos, neg = split(train)
    test_pos, test_neg = split(test)
    picked = rng.sample(cross, 2 * CLOSURE_CROSS_NEG)
    neg += [("path", *p) for p in picked[:CLOSURE_CROSS_NEG]]
    test_neg += [("path", *p) for p in picked[CLOSURE_CROSS_NEG:]]
    for xs in (pos, neg, test_pos, test_neg):
        rng.shuffle(xs)
    return [Task(
        name="chain", facts=facts, pos=pos, neg=neg, test_pos=test_pos, test_neg=test_neg,
        head_preds=[("path", 2)], body_preds=[("edge", 2)],
        max_vars=3, max_body=2, max_clauses=2, recursion=True,
        planted=["path(A,B):- edge(A,B).", "path(A,B):- edge(A,C),path(C,B)."],
    )]


# ---------------------------------------------------------------------------
# graph: planted non-recursive concept over a random regular digraph
# ---------------------------------------------------------------------------

GRAPH_NODES = 32
GRAPH_DEGREE = 2
GRAPH_TRAIN = {"pos": 8, "p_only": 3, "q_only": 4, "other": 3}


def _regular_digraph(rng: random.Random, nodes: list[str], degree: int) -> list[tuple[str, str]]:
    """Union of `degree` random permutations: every node has exactly `degree`
    out-edges and in-edges, with no self-loop, no 2-cycle and no repeated edge."""
    while True:
        edges: set[tuple[str, str]] = set()
        for _ in range(degree):
            perm = nodes[:]
            rng.shuffle(perm)
            edges.update(zip(nodes, perm))
        if len(edges) == degree * len(nodes) and all(
            a != b and (b, a) not in edges for a, b in edges
        ):
            return sorted(edges)


def graph_tasks(seed: int) -> list[Task]:
    rng = random.Random(f"graph:{seed}")
    while True:
        nodes = _names(rng, GRAPH_NODES, "v")
        edges = _regular_digraph(rng, nodes, GRAPH_DEGREE)
        p = set(rng.sample(nodes, GRAPH_NODES // 2))
        q = set(rng.sample(nodes, GRAPH_NODES // 2))
        succ: dict[str, list[str]] = {}
        for a, b in edges:
            succ.setdefault(a, []).append(b)
        has_q = {a for a in nodes if any(b in q for b in succ[a])}
        groups = {
            "pos": [a for a in nodes if a in p and a in has_q],
            "p_only": [a for a in nodes if a in p and a not in has_q],
            "q_only": [a for a in nodes if a not in p and a in has_q],
            "other": [a for a in nodes if a not in p and a not in has_q],
        }
        if all(len(groups[g]) > k for g, k in GRAPH_TRAIN.items()):
            break
    train: dict[str, list[str]] = {g: rng.sample(sorted(xs), GRAPH_TRAIN[g]) for g, xs in groups.items()}
    chosen = {a for xs in train.values() for a in xs}
    pos = [("f", a) for a in train["pos"]]
    neg = [("f", a) for g in ("p_only", "q_only", "other") for a in train[g]]
    rest = [a for a in nodes if a not in chosen]
    test_pos = [("f", a) for a in rest if a in p and a in has_q]
    test_neg = [("f", a) for a in rest if not (a in p and a in has_q)]
    facts = ([("e", a, b) for a, b in edges] + [("p", a) for a in sorted(p)]
             + [("q", a) for a in sorted(q)])
    for xs in (facts, pos, neg, test_pos, test_neg):
        rng.shuffle(xs)
    return [Task(
        name="regular", facts=facts, pos=pos, neg=neg, test_pos=test_pos, test_neg=test_neg,
        head_preds=[("f", 1)], body_preds=[("e", 2), ("p", 1), ("q", 1)],
        max_vars=3, max_body=3, max_clauses=1, recursion=False,
        planted=["f(A):- e(A,B),p(A),q(B)."],
    )]


# ---------------------------------------------------------------------------
# noisy: planted union of unary conjunctions with flipped labels
# ---------------------------------------------------------------------------

NOISY_TEMPLATE_SEED = 0
NOISY_TASKS = 1
NOISY_TRAIN = 60
NOISY_TEST = 20
NOISY_PREDS = 9
NOISY_CLAUSES = 3
NOISY_FLIP = 0.15


def _noisy_template(index: int) -> Task:
    """One noisy task over placeholder constants x0, x1, ...

    The combine stage's effort depends sharply on the exact coverage bit
    patterns: across random draws of this shape one task took 0.8 s to 15 s.
    So the instance is drawn once from a fixed seed, and the workload seed
    only renames and reorders it (see `noisy_tasks`).
    """
    rng = random.Random(f"noisy-template:{NOISY_TEMPLATE_SEED}:{index}")
    nodes = [f"x{i}" for i in range(NOISY_TRAIN + NOISY_TEST)]
    preds = [f"p{i}" for i in range(NOISY_PREDS)]
    holds = {pr: set(rng.sample(nodes, len(nodes) // 2)) for pr in preds}
    conj: list[tuple[str, str]] = []
    while len(conj) < NOISY_CLAUSES:
        pair = tuple(sorted(rng.sample(preds, 2)))
        if pair not in conj:
            conj.append(pair)

    def label(group: list[str]) -> tuple[list[Fact], list[Fact]]:
        flip = set(rng.sample(group, round(NOISY_FLIP * len(group))))
        truth = {c for c in group if any(c in holds[a] and c in holds[b] for a, b in conj)}
        pos = [("f", c) for c in group if (c in truth) != (c in flip)]
        neg = [("f", c) for c in group if (c in truth) == (c in flip)]
        return pos, neg

    pos, neg = label(nodes[:NOISY_TRAIN])
    test_pos, test_neg = label(nodes[NOISY_TRAIN:])
    return Task(
        name=f"t{index}", facts=[(pr, c) for pr in preds for c in sorted(holds[pr])],
        pos=pos, neg=neg, test_pos=test_pos, test_neg=test_neg,
        head_preds=[("f", 1)], body_preds=[(pr, 1) for pr in preds],
        max_vars=1, max_body=2, max_clauses=8, recursion=False,
        planted=[f"f(A):- {a}(A),{b}(A)." for a, b in conj],
    )


def _rename(t: Task, rng: random.Random, prefix: str) -> Task:
    """Rename every constant at random and shuffle facts and examples.

    Permuting the examples permutes the bits of every coverage bitset alike,
    which leaves the combine search, and the learned program, unchanged.
    """
    consts = sorted({c for f in t.facts + t.pos + t.neg + t.test_pos + t.test_neg for c in f[1:]})
    new = dict(zip(consts, _names(rng, len(consts), prefix)))

    def ren(xs: list[Fact]) -> list[Fact]:
        out = [(f[0], *(new[c] for c in f[1:])) for f in xs]
        rng.shuffle(out)
        return out

    return Task(
        name=t.name, facts=ren(t.facts), pos=ren(t.pos), neg=ren(t.neg),
        test_pos=ren(t.test_pos), test_neg=ren(t.test_neg),
        head_preds=t.head_preds, body_preds=t.body_preds, max_vars=t.max_vars,
        max_body=t.max_body, max_clauses=t.max_clauses, recursion=t.recursion,
        planted=t.planted,
    )


def noisy_tasks(seed: int) -> list[Task]:
    rng = random.Random(f"noisy:{seed}")
    return [_rename(_noisy_template(i), rng, f"c{i}") for i in range(NOISY_TASKS)]


GENERATORS = {"closure": closure_tasks, "graph": graph_tasks, "noisy": noisy_tasks}


def make_tasks(workload: str, seed: int) -> list[Task]:
    return GENERATORS[workload](seed)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def _atom(f: Fact) -> str:
    return f"{f[0]}({','.join(f[1:])})"


def _examples(pos: list[Fact], neg: list[Fact]) -> str:
    return "".join(f"pos({_atom(a)}).\n" for a in pos) + "".join(
        f"neg({_atom(a)}).\n" for a in neg)


def bias_text(t: Task) -> str:
    lines = [f"head_pred({p},{n})." for p, n in t.head_preds]
    lines += [f"body_pred({p},{n})." for p, n in t.body_preds]
    lines += [f"max_vars({t.max_vars}).", f"max_body({t.max_body}).",
              f"max_clauses({t.max_clauses})."]
    if t.recursion:
        lines.append("enable_recursion.")
    return "\n".join(lines) + "\n"


def write_workload(root: Path, workload: str, tasks: list[Task]) -> Path:
    """Write `root/<workload>/<task>/` directories; returns the suite root."""
    if root.exists():
        shutil.rmtree(root)
    for t in tasks:
        d = root / workload / t.name
        d.mkdir(parents=True)
        (d / "bk.datalog").write_text("".join(f"{_atom(f)}.\n" for f in t.facts))
        (d / "exs.datalog").write_text(_examples(t.pos, t.neg))
        (d / "test_exs.datalog").write_text(_examples(t.test_pos, t.test_neg))
        (d / "bias.txt").write_text(bias_text(t))
    return root
