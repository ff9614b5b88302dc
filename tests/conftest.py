"""Shared fixtures: small tables and naive oracles used across the suite."""

import itertools

import pytest

from actionpairs import presentations as pr
from actionpairs import ptrans, wreath
from actionpairs.fmonoid import (BoundExceeded, CayleyTable, Presentation,
                                 _bfs_words, closure_from_generators,
                                 greedy_generators)
from actionpairs.registry import monoid_table, subset_ids


@pytest.fixture(scope="session")
def c2():
    return monoid_table("c2")


@pytest.fixture(scope="session")
def c3():
    return monoid_table("c3")


@pytest.fixture(scope="session")
def sl2():
    return monoid_table("sl2")


# --- independent oracles ------------------------------------------------------

def brute_closure(gens, product):
    """Naive fixpoint closure, independent of the library's BFS engine."""
    seen = set(gens)
    changed = True
    while changed:
        changed = False
        for a in list(seen):
            for b in list(seen):
                c = product(a, b)
                if c not in seen:
                    seen.add(c)
                    changed = True
    return seen


def brute_congruence(table, pairs, side):
    """Smallest equivalence containing `pairs` compatible on the given sides,
    computed as a raw fixpoint over classes of frozensets."""
    classes = {x: {x} for x in range(table.size)}

    def merge(a, b):
        ca, cb = classes[a], classes[b]
        if ca is cb:
            return False
        cu = ca | cb
        for x in cu:
            classes[x] = cu
        return True

    work = list(pairs)
    changed = True
    for a, b in work:
        merge(a, b)
    while changed:
        changed = False
        roots = {id(c): c for c in classes.values()}
        for c in roots.values():
            base = sorted(c)
            a = base[0]
            for b in base[1:]:
                for x in range(table.size):
                    if side in ("right", "two_sided"):
                        if merge(table.mul(a, x), table.mul(b, x)):
                            changed = True
                    if side in ("left", "two_sided"):
                        if merge(table.mul(x, a), table.mul(x, b)):
                            changed = True
    return {frozenset(c) for c in classes.values()}


def naive_enumerate(p, node_cap):
    """(table, nodes) of the HLT enumeration of `p` with a `merge` on every
    coincidence and no completion mark: construction passes, each tracing
    every relation from every live node, until every row reachable from
    the root is complete and every relation closes from every live node.
    Raises BoundExceeded(undecided=True) at `node_cap` nodes."""
    nl = len(p.alphabet)
    rows, uf = [[-1] * nl], [0]

    def find(x):
        while uf[x] != x:
            x = uf[x]
        return x

    def new_node():
        if len(uf) >= node_cap:
            raise BoundExceeded("node budget exhausted", undecided=True, nodes=len(uf))
        uf.append(len(uf))
        rows.append([-1] * nl)
        return len(uf) - 1

    def merge(a, b):
        stack = [(a, b)]
        while stack:
            x, y = sorted(map(find, stack.pop()))
            if x != y:
                uf[y] = x
                for k in range(nl):
                    if rows[x][k] == -1:
                        rows[x][k] = rows[y][k]
                    elif rows[y][k] != -1:
                        stack.append((rows[x][k], rows[y][k]))

    def trace(x, w):
        for k in w:
            row = rows[x]
            if row[k] == -1:
                row[k] = new_node()
            x = row[k] = find(row[k])
        return x

    def compact():
        ids, order, right = {0: 0}, [0], []
        for e in order:
            out = []
            for t in rows[e]:
                if t == -1:
                    return None
                t = find(t)
                if t not in ids:
                    ids[t] = len(order)
                    order.append(t)
                out.append(ids[t])
            right.append(out)
        return right

    while True:
        i = 0
        while i < len(rows):
            if find(i) == i:
                for k in range(nl):
                    trace(i, [k])
                for u, v in p.relations:
                    merge(trace(find(i), u), trace(find(i), v))
            i += 1
        right = compact()
        if right is not None and all(
                trace(x, u) == trace(x, v) for x in range(len(rows))
                if find(x) == x for u, v in p.relations):
            break
    gens, identity = right[0], 0
    if p.kind == "semigroup" and not any(0 in row for row in right):
        right = [[j - 1 for j in row] for row in right[1:]]
        gens, identity = [j - 1 for j in gens], None
    nf, parent = _bfs_words(right, gens, identity)
    return CayleyTable(len(right), gens, right, nf, parent, identity), len(uf)


def audit_infinite(relations, order, rules):
    """Re-check a completion that certifies infinite, apart from
    `rewriting.complete`: `relations` are over letters, `order` lists the
    letters smallest first and `rules` (left side -> right side) are over
    their ranks in it.  Returns the failed check, or None when it holds:
      1. every rule is shortlex-decreasing, so rewriting terminates;
      2. both sides of every relation reduce to the same word;
      3. every overlap and every inclusion of two left sides resolves;
    so the rules are a confluent system whose congruence contains the
    relations, the presented monoid maps onto the irreducible words, and
      4. infinitely many words contain no left side."""
    rank = {a: r for r, a in enumerate(order)}
    rules = {tuple(lhs): tuple(rhs) for lhs, rhs in rules.items()}
    if not all((len(r), r) < (len(lhs), lhs) for lhs, r in rules.items()):
        return "a rule is not shortlex-decreasing"

    def reduce(w):
        """Rewrite the left side that starts leftmost until none occurs."""
        w = tuple(w)
        i = 0
        while i < len(w):
            for lhs, rhs in rules.items():
                if w[i:i + len(lhs)] == lhs:
                    w, i = w[:i] + rhs + w[i + len(lhs):], 0
                    break
            else:
                i += 1
        return w

    if any(reduce(rank[a] for a in u) != reduce(rank[a] for a in v)
           for u, v in relations):
        return "a relation does not reduce to one word"
    for a, ra in rules.items():
        for b, rb in rules.items():
            for i in range(len(a) - len(b) + 1):              # a = x b y
                if a != b and a[i:i + len(b)] == b and \
                        reduce(ra) != reduce(a[:i] + rb + a[i + len(b):]):
                    return f"{b} inside {a} does not resolve"
            for k in range(1, min(len(a), len(b))):         # a = xy, b = yz
                if a[-k:] == b[:k] and reduce(ra + b[k:]) != reduce(a[:-k] + rb):
                    return f"the overlap of {a} and {b} does not resolve"
    # irreducible words through their last m - 1 letters, which decide
    # whether the next letter ends a left side: a window reached again
    # along a path spells infinitely many
    m = max(map(len, rules), default=1)
    done, path = set(), set()

    def cycles(w):
        if w in path:
            return True
        if w in done:
            return False
        path.add(w)
        for c in range(len(order)):
            x = w + (c,)
            if not any(x[len(x) - len(lhs):] == lhs for lhs in rules
                       if len(lhs) <= len(x)) and \
                    cycles(x[max(0, len(x) - (m - 1)):]):
                return True
        path.discard(w)
        done.add(w)
        return False
    return None if cycles(()) else "finitely many irreducible words"


def naive_subset_ids(amb, kind, n):
    """Element ids of a named subset of a wreath ambient, from predicates
    on each element: a plain family kind holds the elements whose map is in
    the family; "pmap:K" those whose map is in K and whose tuple is the
    identity on its domain and zero elsewhere; E and SingE the elements
    whose map is a partial identity (not the identity for SingE) and whose
    entries are all zero or the identity; M0n those whose map is the
    partial identity on the tuple's support; Mn those over the identity."""
    base = amb.elements[0].tup.base
    ident = ptrans.identity(n)
    families = {
        "PT": lambda a: True,
        "T": lambda a: a.is_total(),
        "I": lambda a: a.is_injective(),
        "G": lambda a: a.is_bijection(),
        "SingPT": lambda a: not a.is_bijection(),
        "SingT": lambda a: a.is_total() and not a.is_bijection(),
        "SingI": lambda a: a.is_injective() and not a.is_bijection(),
        "PTminusT": lambda a: not a.is_total(),
        "E": lambda a: all(v in (ptrans.UNDEF, x) for x, v in enumerate(a.img, 1)),
    }
    families["SingE"] = lambda a: families["E"](a) and a != ident

    def indicator(w):
        dom = w.pmap.dom()
        return all(v == (base.identity if x in dom else wreath.ZERO)
                   for x, v in enumerate(w.tup.entries, 1))
    if kind.startswith("pmap:"):
        pred = lambda w: families[kind[5:]](w.pmap) and indicator(w)
    elif kind in ("E", "SingE"):
        pred = lambda w: families[kind](w.pmap) and all(
            v in (wreath.ZERO, base.identity) for v in w.tup.entries)
    elif kind == "M0n":
        pred = lambda w: w.pmap == ptrans.id_on(w.tup.supp(), n)
    elif kind == "Mn":
        pred = lambda w: w.pmap == ident
    else:
        pred = lambda w: families[kind](w.pmap)
    return frozenset(i for i, w in enumerate(amb.elements) if pred(w))


def catalogue_letters(amb, kind, n):
    """A `presentations.LetteredSubset` for a named subset of a wreath
    ambient (a `registry.subset_ids` kind), from the catalogue bundle of the
    subset: E from En, and SingE from En's relations read as a semigroup
    presentation; Mn and M0n from their bundles over the ambient's base;
    "pmap:T" and "pmap:G" from Tn and Gn, and the other embedded families
    from Mwr{K}n over c1, through each element's map; a wreath subproduct
    over K from Mwr{K}n over the ambient's base.  SingI has no catalogue
    bundle, so its letters are its elements under their product table."""
    base = amb.elements[0].tup.base
    fam = kind.removeprefix("pmap:")
    if kind == "pmap:SingI":
        ids = sorted(subset_ids(amb, kind, n))
        pos = {x: i for i, x in enumerate(ids)}
        return pr.LetteredSubset(Presentation.make(
            [f"x{x}" for x in ids],
            [((pos[x], pos[y]), (pos[amb.mul(x, y)],)) for x in ids for y in ids],
            "semigroup"), tuple(ids))
    if kind in ("E", "SingE"):
        b = pr.build_catalog("En", n=n)
        values = [wreath.embed_pmap(base, a) for a in b.target.elements]
    elif kind in ("Mn", "M0n"):
        b = pr.build_catalog(kind, n=n, base=base)
        values = [wreath.embed_tuple(wreath.MTuple(base, t)) for t in b.target.elements]
    elif kind in ("pmap:T", "pmap:G"):
        b = pr.build_catalog(f"{fam}n", n=n)
        values = [wreath.embed_pmap(base, a) for a in b.target.elements]
    elif fam != kind:
        b = pr.build_catalog(f"Mwr{fam}n", n=n, base=monoid_table("c1"))
        values = [wreath.embed_pmap(base, w.pmap) for w in b.target.elements]
    else:
        b = pr.build_catalog(f"Mwr{fam}n", n=n, base=base)
        values = b.target.elements
    pres = Presentation.make(b.pres.alphabet, b.pres.relations, "semigroup") \
        if kind == "SingE" else b.pres
    return pr.LetteredSubset(pres, tuple(amb.index[values[g]] for g in b.gen_map))


def all_total_maps(n):
    return [ptrans.PartialMap(n, img)
            for img in itertools.product(range(1, n + 1), repeat=n)]


def brute_morphisms(alg):
    """(automorphisms, partial endomorphisms) of an algebra from the plain
    definition, as sorted lists of 1-based image tuples: every bijection of
    the carrier, and every map of every subset closed under the operations
    into the carrier, kept when it respects every operation instance of its
    domain.  Nothing is reduced to generators."""
    n = alg.size

    def instances(dom):
        return [(op, args) for op in alg.ops
                for args in itertools.product(dom, repeat=op.arity)]

    def respects(f):
        return all(f[op.apply(n, args)] == op.apply(n, tuple(f[a] for a in args))
                   for op, args in instances(f))

    def img(f):
        return tuple(f[x] + 1 if x in f else ptrans.UNDEF for x in range(n))

    autos = [img(f) for f in (dict(enumerate(p))
                              for p in itertools.permutations(range(n)))
             if respects(f)]
    pend = []
    for r in range(n + 1):
        for dom in itertools.combinations(range(n), r):
            if all(op.apply(n, args) in dom for op, args in instances(dom)):
                pend += [img(f) for f in (dict(zip(dom, vals)) for vals in
                                          itertools.product(range(n), repeat=r))
                         if respects(f)]
    return sorted(autos), sorted(pend)


# --- the pair definitions, read literally ---------------------------------------
# Every quantifier ranges over all elements; nothing is reduced to generators.

def _law_kinds(ctx, f):
    """Failure kinds of the action laws and compatibility for the map
    f(s, u) = s>u on S1 x U1."""
    m = ctx.m
    u1, s1, slist = ctx.u1(), ctx.s1(), ctx.s_list()
    kinds = set()
    if any(f(s, u) not in u1 for s in s1 for u in u1):
        kinds.add("action-range")
    if any(f(s, f(t, u)) != f(m.mul(s, t), u) for s in s1 for t in s1 for u in u1):
        kinds.add("action-composition")
    if any(f(s, m.mul(u, v)) != m.mul(f(s, u), f(s, v))
           for s in s1 for u in u1 for v in u1):
        kinds.add("action-morphism")
    if any(m.mul(s, u) != m.mul(f(s, u), s) for s in slist for u in u1):
        kinds.add("compatibility")
    return kinds


def _kernel_kinds(ctx, splus):
    m = ctx.m
    pairs = [(u, s) for u in ctx.u1() for s in ctx.s_list()]
    if any(m.mul(u, s) == m.mul(v, t) and m.mul(u, splus(s)) != m.mul(v, splus(t))
           for u, s in pairs for v, t in pairs):
        return {"kernel-condition"}
    return set()


def naive_weak_kinds(ctx, table):
    """Failure kinds `check_weak_pair` must report for the action given as a
    dict (s, u) -> s>u, the identity acting identically where not given;
    s+ is s>1, and 1+ is 1 (`ActionTable.splus`)."""
    ident = ctx.identity

    def f(s, u):
        return table.get((s, u), u if s == ident else None)
    return _law_kinds(ctx, f) | _kernel_kinds(
        ctx, lambda s: ident if s == ident else f(s, ident))


def naive_pair_kinds(ctx):
    """Failure kinds `check_pair_from_plus` must report: the conditions on
    s -> s+, then the laws of s>u = v s+ for the least v in U1 with su = vs."""
    m, plus, ident = ctx.m, ctx.plus, ctx.identity
    u1, slist = ctx.u1(), ctx.s_list()
    witnesses = {(s, u): [v for v in u1 if m.mul(v, s) == m.mul(s, u)]
                 for s in slist for u in u1}
    if not all(witnesses.values()):
        return {"sU1-in-U1s"}
    kinds = set()
    if any(m.mul(plus[s], s) != s for s in slist):
        kinds.add("s-equals-plus-s")
    if any(m.mul(s, plus[t]) != m.mul(plus[m.mul(s, t)], s) for s in slist for t in slist):
        kinds.add("shift-projection")
    if any(plus[m.mul(s, t)] != m.mul(plus[m.mul(s, t)], plus[s])
           for s in slist for t in slist):
        kinds.add("projection-absorbs")
    kinds |= _kernel_kinds(ctx, plus.__getitem__)
    if any(len({m.mul(v, plus[s]) for v in vs}) > 1 for (s, u), vs in witnesses.items()):
        kinds.add("action-ill-defined")
    table = {(s, u): m.mul(min(vs), plus[s]) for (s, u), vs in witnesses.items()}

    def f(s, u):
        return table.get((s, u), u if s == ident else None)
    return kinds | _law_kinds(ctx, f)


def naive_special(ctx, act, sd, sigma):
    """(congruence_ok, axioms) of `check_special_congruence`, from the
    definitions: s ~u t iff (u, s) sigma (u, t), trivial at an identity
    outside U."""
    m, ident = ctx.m, ctx.identity
    ulist, slist = ctx.u_list(), ctx.s_list()
    t = sd.table
    root = [sigma.find(x) for x in range(t.size)]
    first = {}
    rep = [first.setdefault(r, x) for x, r in enumerate(root)]
    related = [(x, y) for x in range(t.size) for y in range(t.size) if root[x] == root[y]]
    congruence = all(root[t.mul(x, z)] == root[t.mul(rep[x], z)] and
                     root[t.mul(z, x)] == root[t.mul(z, rep[x])]
                     for x in range(t.size) for z in range(t.size))

    def sim(u, s, s2):
        if u == ident and ident not in ctx.u_set:
            return s == s2
        return root[sd.id_of(u, s)] == root[sd.id_of(u, s2)]

    def proj(x):
        u, s = t.elements[x]
        return m.mul(u, act.splus(s))

    sims = {u: [(s, s2) for s in slist for s2 in slist if sim(u, s, s2)] for u in ulist}
    sections = [s for s in slist if act.splus(s) in ctx.u_set]
    axioms = [
        all(root[sd.id_of(u, s)] == root[sd.id_of(m.mul(u, act.splus(s)), s)]
            for u in ulist for s in slist),
        all(s == s2 for s in sections for s2 in sections
            if root[sd.id_of(act.splus(s), s)] == root[sd.id_of(act.splus(s2), s2)]),
        all(proj(x) == proj(y) for x, y in related),
        all(not sim(ident, s, s2) for s in slist for s2 in slist if s != s2),
        all(sim(u, m.mul(s, x), m.mul(s2, x)) for u in ulist for s, s2 in sims[u]
            for x in slist),
        all(sim(m.mul(w, u), s, s2) for u in ulist for s, s2 in sims[u] for w in ulist),
        all(sim(act(x, u), m.mul(x, s), m.mul(x, s2)) for u in ulist
            for s, s2 in sims[u] for x in slist),
        all(m.mul(u, act(s, w)) == m.mul(u, act(s2, w)) and sim(m.mul(u, act(s, w)), s, s2)
            for u in ulist for s, s2 in sims[u] for w in ulist),
    ]
    return congruence, axioms


def naive_left_restriction(table, carrier, plus_of):
    """The four left-restriction identities on the carrier P, every one over
    P x P; a product outside P has no x+ and fails the identity reading it."""
    mul, els = table.mul, sorted(carrier)

    def plus(x):
        return plus_of.get(x)
    return all(mul(plus_of[x], x) == x for x in els) and all(
        mul(plus_of[x], plus_of[y]) == mul(plus_of[y], plus_of[x])
        and plus(mul(plus_of[x], y)) == mul(plus_of[x], plus_of[y])
        and plus(mul(x, y)) is not None
        and mul(x, plus_of[y]) == mul(plus(mul(x, y)), x)
        for x in els for y in els)


def tuple_pair_closure(ctx, act, candidates, identity_hint, size):
    """The pairs (u, s) generated under (u, s)(v, t) = (u.(s>v), st), with
    the candidates pruned by `greedy_generators`, as a closure over (u, s)
    tuples of U1 x S1 (every action value lies in U1); raises ValueError
    unless it is `size` pairs."""
    m = ctx.m

    def prod(x, y):
        (u, s), (v, t) = x, y
        return (m.mul(u, act(s, v)), m.mul(s, t))
    gens = greedy_generators([c for c in candidates if c != identity_hint],
                             prod) or [identity_hint]
    table = closure_from_generators(gens, prod, identity_hint=identity_hint)
    if table.size != size:
        raise ValueError("the tuple closure is not the given pairs")
    return table


def naive_semidirect_flags(ctx, act, sd):
    """(retraction_ok, is_monoid, mid_identity_ok) of `semidirect`, from the
    definitions over all elements and the product (u, s)(v, t) =
    (u.(s>v), st): the retraction r(u, s) = ((1>u) s+, s) maps onto
    m1 & m2, fixes it and preserves every product; (1, 1) is a two-sided
    identity of U x S; x (1, 1) y = xy in the extended product."""
    m, ident, t = ctx.m, ctx.identity, sd.table
    els = t.elements

    def prod(x, y):
        (u, s), (v, w) = x, y
        return (m.mul(u, act(s, v)), m.mul(s, w))

    def r(x):
        u, s = x
        return (m.mul(act(ident, u), act.splus(s)), s)
    image = {els[i] for i in sd.mm}
    retraction = all(r(x) in image for x in els) and all(r(x) == x for x in image) \
        and all(r(prod(x, y)) == prod(r(x), r(y)) for x in els for y in els)
    one = (ident, ident)
    monoid = one in t.index and all(prod(one, x) == x == prod(x, one) for x in els)
    u1, s1 = ctx.u1(), ctx.s1()
    mid = all(m.mul(m.mul(u, act.splus(s)), act(s, v)) == m.mul(u, act(s, v))
              for u in u1 for s in s1 for v in u1)
    return retraction, monoid, mid
