"""Independent reference implementations used to cross-check the package.

Deliberately written from first principles rather than reusing package
internals: naive repeat-until-fixpoint model computation, a recursive
hypothesis-space enumerator with its own canonicalisation and subsumption,
a 2^n subset enumeration of combine problems with its own cost arithmetic
and its own dominance filter, and a 2^n sign-enumeration signed-rank
p-value.
"""

from __future__ import annotations

import itertools
import random

from lexicost.combiner import CombineProblem, CombineSolution
from lexicost.cost import CostSpec, evaluate
from lexicost.errors import LexicostError
from lexicost.evaluator import Confusion
from lexicost.kb import Atom, Bias, Program, Rule, Task, is_var, variable_name

# ---------------------------------------------------------------------------
# Naive least model
# ---------------------------------------------------------------------------


def _substitutions(rule: Rule, model: set[Atom]):
    """All substitutions grounding the body inside the model, by brute search."""

    def extend(body: list[Atom], sub: dict[str, str]):
        if not body:
            yield sub
            return
        first, rest = body[0], body[1:]
        for fact in model:
            if fact.predicate != first.predicate or fact.arity != first.arity:
                continue
            new = dict(sub)
            ok = True
            for t, ft in zip(first.args, fact.args):
                if is_var(t):
                    if t in new and new[t] != ft:
                        ok = False
                        break
                    new[t] = ft
                elif t != ft:
                    ok = False
                    break
            if ok:
                yield from extend(rest, new)

    yield from extend(list(rule.body), {})


def naive_least_model(p: Program, facts: frozenset[Atom]) -> frozenset[Atom]:
    model = set(facts)
    changed = True
    while changed:
        changed = False
        snapshot = frozenset(model)
        for rule in p.rules:
            for sub in _substitutions(rule, snapshot):
                head = rule.head.substitute(sub)
                if head not in model:
                    model.add(head)
                    changed = True
    return frozenset(model)


def naive_coverage(p: Program, t: Task) -> Confusion:
    model = naive_least_model(p, t.bk_facts)
    tp = sum(1 for a in t.pos if a in model)
    fp = sum(1 for a in t.neg if a in model)
    return Confusion(tp=tp, fp=fp, tn=len(t.neg) - fp, fn=len(t.pos) - tp)


def naive_coverage_bits(p: Program, t: Task) -> tuple[int, int]:
    model = naive_least_model(p, t.bk_facts)
    pos = sum(1 << i for i, a in enumerate(t.pos) if a in model)
    neg = sum(1 << i for i, a in enumerate(t.neg) if a in model)
    return pos, neg


# ---------------------------------------------------------------------------
# Independent subsumption and rule canonicalisation
# ---------------------------------------------------------------------------


def brute_subsumes(r1: Rule, r2: Rule) -> bool:
    """Enumerate every mapping from r1's variables into r2's terms."""
    if (r1.head.predicate, r1.head.arity) != (r2.head.predicate, r2.head.arity):
        return False
    vars1 = sorted(r1.variables())
    terms2 = sorted(
        {t for a in (r2.head, *r2.body) for t in a.args},
        key=lambda t: (is_var(t), t),
    )
    body2 = set(r2.body)
    for image in itertools.product(terms2, repeat=len(vars1)):
        sub = dict(zip(vars1, image))
        if r1.head.substitute(sub) != r2.head:
            continue
        if all(a.substitute(sub) in body2 for a in r1.body):
            return True
    return False


def brute_canonical(head: Atom, body: tuple[Atom, ...]) -> tuple:
    """A renaming-invariant key: the minimum over every variable bijection."""
    all_vars = sorted({v for a in (head, *body) for v in a.variables()})
    names = [variable_name(i) for i in range(len(all_vars))]
    best = None
    for perm in itertools.permutations(names):
        sub = dict(zip(all_vars, perm))
        h = head.substitute(sub)
        b = tuple(sorted((a.substitute(sub) for a in set(body)), key=Atom.sort_key))
        key = (h.sort_key(), tuple(a.sort_key() for a in b))
        if best is None or key < best:
            best = key
    return best


# ---------------------------------------------------------------------------
# Hypothesis-space enumeration
# ---------------------------------------------------------------------------


def enumerate_safe_rules(bias: Bias) -> list[Rule]:
    """Every safe rule in the bias space, deduplicated modulo renaming.

    Safe means each head variable occurs in the body; connectivity and other
    redundancy filters are intentionally not applied here.
    """
    preds = sorted(
        set(bias.body_preds)
        | (set(bias.head_preds) if bias.enable_recursion else set())
    )
    variables = [variable_name(i) for i in range(bias.max_vars)]
    literals = [
        Atom(pred, args)
        for pred, arity in preds
        for args in itertools.product(variables, repeat=arity)
    ]
    seen = set()
    out = []
    for hp, ha in sorted(bias.head_preds):
        if ha > bias.max_vars:
            continue
        head = Atom(hp, tuple(variables[:ha]))
        for k in range(1, bias.max_body + 1):
            for combo in itertools.combinations(literals, k):
                used = set(head.variables())
                for a in combo:
                    used.update(a.variables())
                if len(used) > bias.max_vars:
                    continue
                body_vars = {v for a in combo for v in a.variables()}
                if not set(head.variables()) <= body_vars:
                    continue
                key = brute_canonical(head, combo)
                if key in seen:
                    continue
                seen.add(key)
                out.append(Rule(head, combo))
    return out


def enumerate_programs(bias: Bias, rules: list[Rule] | None = None):
    """Every bias-respecting program up to max_clauses over the safe rules.

    Multi-rule programs are part of the space regardless of the recursion
    flag: without recursion the engine reaches them through the combine
    stage rather than the generator.
    """
    if rules is None:
        rules = enumerate_safe_rules(bias)
    for k in range(1, bias.max_clauses + 1):
        for combo in itertools.combinations(rules, k):
            yield Program(combo)


def exhaustive_best_cost(t: Task, spec: CostSpec) -> tuple:
    """Minimum cost over every bias-respecting program, the empty one included."""
    return exhaustive_best_costs(t, [spec])[spec.name]


def exhaustive_best_costs(t: Task, specs) -> dict[str, tuple]:
    """Exhaustive minima for several cost functions, enumerating the space once."""
    empty = Confusion(tp=0, fp=0, tn=len(t.neg), fn=len(t.pos))
    best = {s.name: evaluate(s, empty, 0) for s in specs}
    count = 0
    for p in enumerate_programs(t.bias):
        count += 1
        conf = naive_coverage(p, t)
        for s in specs:
            cost = evaluate(s, conf, p.size)
            if cost < best[s.name]:
                best[s.name] = cost
    best["__space_size__"] = count
    return best


# ---------------------------------------------------------------------------
# Non-redundant space (mirrors the generator's documented candidate space)
# ---------------------------------------------------------------------------


def _connected(rule: Rule) -> bool:
    reach = set(rule.head.variables())
    pending = list(rule.body)
    moved = True
    while moved and pending:
        moved = False
        rest = []
        for a in pending:
            vs = set(a.variables())
            if vs & reach:
                reach |= vs
                moved = True
            else:
                rest.append(a)
        pending = rest
    return not pending


def _oracle_rule_ok(rule: Rule) -> bool:
    return _connected(rule) and rule.head not in rule.body


def _oracle_program_ok(p: Program, bias: Bias) -> bool:
    for r in p.rules:
        if not _oracle_rule_ok(r):
            return False
    for r1, r2 in itertools.permutations(p.rules, 2):
        if brute_subsumes(r1, r2):
            return False
    return all_rules_can_fire(p.rules, bias.body_preds)


def all_rules_can_fire(rules, edb_preds) -> bool:
    """Every rule can fire: each body predicate is a background relation or
    derivable, where derivability is the fixpoint of "some rule for the
    predicate has an all-available body".  A recursive program without a
    base rule fails, as does a rule consuming an underivable head predicate."""
    derivable: set[tuple[str, int]] = set()
    changed = True
    while changed:
        changed = False
        for r in rules:
            hk = (r.head.predicate, r.head.arity)
            if hk not in derivable and all(
                (a.predicate, a.arity) in edb_preds or (a.predicate, a.arity) in derivable
                for a in r.body
            ):
                derivable.add(hk)
                changed = True
    return all(
        (a.predicate, a.arity) in edb_preds or (a.predicate, a.arity) in derivable
        for r in rules
        for a in r.body
    )


def _defines_a_body_predicate(p: Program) -> bool:
    heads = {(r.head.predicate, r.head.arity) for r in p.rules}
    return any((a.predicate, a.arity) in heads for r in p.rules for a in r.body)


def enumerate_candidate_space(bias: Bias) -> list[Program]:
    """The generator's declared stream contents, derived independently: the
    rules, and under recursion the non-separable unions of 2 .. max_clauses
    rules (some rule's body uses a predicate that a rule of it defines)."""
    rules = [r for r in enumerate_safe_rules(bias) if _oracle_rule_ok(r)]
    out = []
    max_k = bias.max_clauses if bias.enable_recursion else 1
    for k in range(1, max_k + 1):
        for combo in itertools.combinations(rules, k):
            p = Program(combo)
            if k > 1 and not _defines_a_body_predicate(p):
                continue
            if len(p.rules) == k and _oracle_program_ok(p, bias):
                out.append(p)
    return out


# ---------------------------------------------------------------------------
# Brute-force combination
# ---------------------------------------------------------------------------

BRUTE_FORCE_LIMIT = 20

# the levels of each named cost function, each level a sum of terms
COST_LEVELS = {
    "error": (("fp", "fn"),),
    "errorsize": (("fp", "fn"), ("size",)),
    "fnfp": (("fn",), ("fp",)),
    "fnfpsize": (("fn",), ("fp",), ("size",)),
    "fpfn": (("fp",), ("fn",)),
    "fpfnsize": (("fp",), ("fn",), ("size",)),
    "mdl": (("fp", "fn", "size"),),
}


def cost_levels(spec: CostSpec) -> tuple[tuple[str, ...], ...]:
    """The levels of `spec`: the table's for a named cost function, else the
    terms whose coefficient is set in each of its components."""
    if spec.name in COST_LEVELS:
        return COST_LEVELS[spec.name]
    return tuple(tuple(term for term, coef in zip(("fp", "fn", "size"),
                                                  (c.a_fp, c.b_fn, c.c_size)) if coef)
                 for c in spec.components)


def _examples(bits: int) -> set[int]:
    return {i for i in range(bits.bit_length()) if bits >> i & 1}


def non_dominated(entries) -> list:
    """The entries that no other entry dominates, in id order.

    As README ("How the combine search works") defines it, f dominates e
    when f covers every positive that e covers and no negative that e does
    not, with no more literals.  Of two entries with the same coverage and
    literal count, only the smaller id can dominate.
    """
    def dominates(f, e) -> bool:
        if not (_examples(f.pos_bits) >= _examples(e.pos_bits)
                and _examples(f.neg_bits) <= _examples(e.neg_bits)
                and f.size <= e.size):
            return False
        tie = (_examples(f.pos_bits) == _examples(e.pos_bits)
               and _examples(f.neg_bits) == _examples(e.neg_bits)
               and f.size == e.size)
        return not tie or f.id < e.id

    return sorted((e for e in entries
                   if not any(f is not e and dominates(f, e) for f in entries)),
                  key=lambda e: e.id)


class TooLargeError(LexicostError):
    """The instance exceeds the size bound of an exhaustive procedure."""


def brute_force_combination(p: CombineProblem) -> CombineSolution:
    """The selection with the smallest `(cost, sorted ids)` over all 2^n
    subsets of at most `max_rules` entries, for |entries| <= 20."""
    n = len(p.entries)
    if n > BRUTE_FORCE_LIMIT:
        raise TooLargeError(f"{n} entries exceeds the brute-force limit of "
                            f"{BRUTE_FORCE_LIMIT}")
    entries = sorted(p.entries, key=lambda e: e.id)
    budget = float("inf") if p.max_rules is None else p.max_rules
    levels = cost_levels(p.spec)
    best = None

    def rec(i: int, pos: int, neg: int, size: int, ids: tuple) -> None:
        nonlocal best
        if i == n:
            tp, fp = bin(pos).count("1"), bin(neg).count("1")
            terms = {"fp": fp, "fn": p.n_pos - tp, "size": size}
            key = (tuple(sum(terms[t] for t in level) for level in levels), ids)
            if best is None or key < best[0]:
                conf = Confusion(tp=tp, fp=fp, tn=p.n_neg - fp, fn=p.n_pos - tp)
                best = (key, conf, size)
            return
        e = entries[i]
        rec(i + 1, pos, neg, size, ids)
        if len(ids) < budget:
            rec(i + 1, pos | e.pos_bits, neg | e.neg_bits, size + e.size,
                ids + (e.id,))

    rec(0, 0, 0, 0, ())
    (cost, ids), conf, size = best
    return CombineSolution(selected=ids, cost=cost, conf=conf, total_size=size)


def scanning_fn_first_cut(order, spec: CostSpec, i: int, pos: int, neg: int, lb: tuple,
                          ids: tuple, best: tuple) -> bool:
    """The combiner's reach cut for a first component of fn alone, as it was
    first written: each call rescans order[i:] once per later component.

    R is the positives that order[i:] can add to `pos`.  A completion missing
    some of R loses on fn; one covering R raises component j by at least the
    least weight `a·|e.neg_bits & ~neg| + c·e.size` of an entry covering k,
    for every k in R.  With slack t = best[0][j] - lb[j], the node is cut if
    some k has no weight <= t, kept if every k has one < t, else j + 1
    decides, and the ids after the last component.
    """
    r = 0
    for e in order[i:]:
        r |= e.pos_bits
    r &= ~pos
    if not r or lb[0] != best[0][0]:
        return False
    for j, comp in enumerate(spec.components[1:], 1):
        t = best[0][j] - lb[j]
        below = upto = 0
        for e in order[i:]:
            if e.pos_bits & r:
                w = comp.a_fp * bin(e.neg_bits & ~neg).count("1") + comp.c_size * e.size
                if w < t:
                    below |= e.pos_bits
                elif w == t:
                    upto |= e.pos_bits
        if r & ~(below | upto):
            return True
        if not r & ~below:
            return False
    return ids >= best[1]


# ---------------------------------------------------------------------------
# Brute-force Wilcoxon p-value
# ---------------------------------------------------------------------------


def brute_wilcoxon_p(xs, ys) -> float:
    diffs = [x - y for x, y in zip(xs, ys) if x != y]
    n = len(diffs)
    order = sorted(range(n), key=lambda i: abs(diffs[i]))
    ranks = [0.0] * n
    i = 0
    while i < n:
        j = i
        while j + 1 < n and abs(diffs[order[j + 1]]) == abs(diffs[order[i]]):
            j += 1
        for k in range(i, j + 1):
            ranks[order[k]] = (i + j) / 2 + 1
        i = j + 1
    total = sum(ranks)
    w_obs = sum(r for r, d in zip(ranks, diffs) if d > 0)
    w_min = min(w_obs, total - w_obs)
    count = 0
    for signs in itertools.product((0, 1), repeat=n):
        w = sum(r for r, s in zip(ranks, signs) if s)
        if w <= w_min + 1e-9:
            count += 1
    return min(1.0, 2 * count / 2**n)


# ---------------------------------------------------------------------------
# Random instance generators (deterministic given the rng)
# ---------------------------------------------------------------------------


def random_facts(rng: random.Random, preds, constants, n_facts) -> frozenset[Atom]:
    facts = set()
    for _ in range(n_facts):
        pred, arity = rng.choice(preds)
        args = tuple(rng.choice(constants) for _ in range(arity))
        facts.add(Atom(pred, args))
    return frozenset(facts)


def random_rule(rng: random.Random, head_pred, body_preds, max_vars, max_body) -> Rule:
    hp, ha = head_pred
    variables = [variable_name(i) for i in range(max_vars)]
    head = Atom(hp, tuple(variables[:ha]))
    while True:
        body = []
        for _ in range(rng.randint(1, max_body)):
            pred, arity = rng.choice(body_preds)
            body.append(
                Atom(pred, tuple(rng.choice(variables) for _ in range(arity)))
            )
        body_vars = {v for a in body for v in a.variables()}
        if set(head.variables()) <= body_vars:
            return Rule(head, body)


def random_program(rng: random.Random, head_pred, body_preds, max_vars, max_body,
                   n_rules) -> Program:
    return Program(
        random_rule(rng, head_pred, body_preds, max_vars, max_body)
        for _ in range(n_rules)
    )
