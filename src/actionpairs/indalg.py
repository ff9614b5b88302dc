"""Finite independence-algebra instances and their structure.

Carriers are integer ids; operations are stored as dense tables, of arity
at most `ARITY_CAP`.  Dimension and codimension are computed by greedy basis
growth (`extend`, the one loop behind both), which the exchange property
justifies; custom algebras therefore have the exchange property verified
exhaustively before any dimension claim is made.

A morphism is fixed by its values on a generating set.  Automorphisms and
partial endomorphisms therefore come from one search: choose images for the
greedy generators of the domain, extend them along the closure trail (each
other member is an operation applied to members reached before it), and keep
the maps that respect every operation instance inside the domain.  `AUT_CAP`
bounds that search by its candidates: a domain with k generators in a carrier
of n elements is refused when it has more than AUT_CAP! choices of images.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from operator import add, eq
from typing import Iterable, Optional, Sequence

from . import ptrans, wreath
from .fmonoid import (CayleyTable, SizeBoundExceeded, right_orbit,
                      table_from_elements)
from .registry import monoid_table


EXCHANGE_SCAN_CAP = 9      # largest carrier the exchange-property scan takes
# largest operation arity: a carrier of one element takes any arity with a
# one-entry table, and the closure forms argument tuples of that length
ARITY_CAP = 8


class NotIndependenceAlgebra(Exception):
    pass


@dataclass(frozen=True)
class Operation:
    arity: int
    table: tuple      # arity 0: (value,); else dense tuple in mixed radix

    def apply(self, size: int, args: Iterable[int]) -> int:
        idx = 0
        for a in args:
            idx = idx * size + a
        return self.table[idx]


class AlgebraInstance:
    """A finite universal algebra with cached subalgebra closure."""

    def __init__(self, size: int, ops: Sequence[Operation], family: str = "custom",
                 *, ep_known: bool = False):
        self.size = size
        self.ops = list(ops)
        self.family = family
        self.ep_known = ep_known
        self._closure_cache: dict = {}
        self._lattice: Optional["SubalgebraLattice"] = None
        for op in self.ops:
            if not 0 <= op.arity <= ARITY_CAP:
                raise ValueError(f"operation arity {op.arity} outside 0..{ARITY_CAP}")
            if len(op.table) != size ** op.arity:
                raise ValueError("operation table has the wrong shape")
            if any(not 0 <= v < size for v in op.table):
                raise ValueError("operation value escapes the carrier")
        if size < 1:
            raise ValueError(f"carrier {size} is below 1: an algebra needs an element")

    # -- construction ---------------------------------------------------------

    @staticmethod
    def from_dict(d: dict) -> "AlgebraInstance":
        """An algebra from `to_dict`'s shape; raises ValueError unless d is
        an object with an int carrier and a list of ops, each an object
        with an int arity and a table of ints (a lone int for arity 0)."""
        def ints(xs):
            return all(type(x) is int for x in xs)

        if not (isinstance(d, dict) and isinstance(d.get("ops"), list)
                and ints([d.get("carrier")])):
            raise ValueError("an algebra is an object with an int carrier and a list of ops")
        ops = []
        for entry in d["ops"]:
            flat = entry.get("table") if isinstance(entry, dict) else None
            if type(flat) is int:
                flat = [flat]
            if not (isinstance(flat, list) and ints([entry.get("arity")] + flat)):
                raise ValueError("an operation is an int arity and a table of ints")
            ops.append(Operation(entry["arity"], tuple(flat)))
        return AlgebraInstance(d["carrier"], ops)

    def to_dict(self) -> dict:
        return {"carrier": self.size,
                "ops": [{"arity": op.arity, "table": list(op.table)}
                        for op in self.ops]}

    # -- closure --------------------------------------------------------------

    def trail(self, seeds: Iterable[int]) -> list:
        """The closure of `seeds` in the order reached, as (member, op, args):
        seeds first with op None, then each new member as op applied to
        members reached before it.  A constant is an operation of arity 0,
        applied to the one empty argument tuple, so it is reached in its
        place among the operations of the first round."""
        trail = [(x, None, ()) for x in seeds]
        seen = {x for x, _, _ in trail}
        changed = True
        while changed:
            changed = False
            base = sorted(seen)
            for op in self.ops:
                for args in itertools.product(base, repeat=op.arity):
                    v = op.apply(self.size, args)
                    if v not in seen:
                        seen.add(v)
                        trail.append((v, op, args))
                        changed = True
        return trail

    def closure(self, subset: Iterable[int]) -> frozenset:
        key = frozenset(subset)
        got = self._closure_cache.get(key)
        if got is None:
            got = self._closure_cache[key] = frozenset(v for v, _, _ in self.trail(key))
        return got

    def extend(self, start: Iterable[int], candidates: Iterable[int]) -> list:
        """Greedy basis growth: the candidates, in order, that the closure
        of `start` and of the candidates kept before them does not hold."""
        kept: list = []
        grown = self.closure(start)
        for x in candidates:
            if x not in grown:
                kept.append(x)
                grown = self.closure(grown | {x})
        return kept

    def generators(self, subset: Iterable[int]) -> list:
        """The greedy generating set of a subalgebra: its members, in id
        order, that the earlier ones do not generate."""
        return self.extend((), sorted(subset))

    def constants(self) -> frozenset:
        return self.closure(())

    # -- independence ---------------------------------------------------------

    def is_independent(self, xs: Iterable[int]) -> bool:
        xs = frozenset(xs)
        return all(x not in self.closure(xs - {x}) for x in xs)

    def independent_sets(self) -> list[frozenset]:
        """All independent subsets (independence is hereditary, so a DFS by
        increasing greatest element suffices)."""
        out = [frozenset()]
        stack = [((), list(range(self.size)))]
        while stack:
            cur, rest = stack.pop()
            for i, x in enumerate(rest):
                cand = cur + (x,)
                if self.is_independent(cand):
                    out.append(frozenset(cand))
                    stack.append((cand, rest[i + 1:]))
        return out

    def verify_exchange_property(self) -> bool:
        """Exhaustive exchange-property scan (justifies greedy bases), for
        carriers of at most EXCHANGE_SCAN_CAP elements."""
        if self.size > EXCHANGE_SCAN_CAP:
            raise SizeBoundExceeded(
                f"carrier {self.size} beyond the scan cap {EXCHANGE_SCAN_CAP}")
        universe = range(self.size)
        for r in range(self.size + 1):
            for xs in itertools.combinations(universe, r):
                cx = self.closure(xs)
                for y in universe:
                    cxy = self.closure(frozenset(xs) | {y})
                    for x in universe:
                        if x in cxy and x not in cx:
                            if y not in self.closure(frozenset(xs) | {x}):
                                return False
        return True

    def ensure_exchange(self):
        if self.ep_known:
            return
        if not self.verify_exchange_property():
            raise NotIndependenceAlgebra("exchange property fails; "
                                         "dimension is undefined")
        self.ep_known = True

    def dim(self, subset: Optional[Iterable[int]] = None) -> int:
        """Greedy basis size of a subalgebra (the whole algebra by default)."""
        self.ensure_exchange()
        return len(self.generators(range(self.size) if subset is None else subset))

    def codim(self, subset: Iterable[int]) -> int:
        """Size of a greedy relative basis of the whole algebra over a subalgebra."""
        self.ensure_exchange()
        return len(self.extend(subset, range(self.size)))

    def is_strong(self) -> tuple[bool, Optional[tuple]]:
        """Independent pieces with constant-only overlap stay independent when
        joined; returns the verdict with a witness on failure."""
        const = self.constants()
        indep = self.independent_sets()
        for xs in indep:
            cx = self.closure(xs)
            for ys in indep:
                if self.closure(ys) & cx == const and not self.is_independent(xs | ys):
                    return False, (xs, ys)
        return True, None


# -- builtin families ---------------------------------------------------------

def set_algebra(n: int) -> AlgebraInstance:
    return AlgebraInstance(n, [], family=f"set{n}", ep_known=True)


def vecspace(p: int, d: int) -> AlgebraInstance:
    """F_p^d with addition, negation, zero and one unary scalar per field
    element; the carrier is ordered lexicographically by coordinates."""
    if p not in (2, 3) or not 1 <= d <= 4:
        raise ValueError("vector spaces are limited to p in {2,3}, d <= 4")
    vecs = list(itertools.product(range(p), repeat=d))
    pos = {v: i for i, v in enumerate(vecs)}
    n = len(vecs)
    add = tuple(pos[tuple((a + b) % p for a, b in zip(u, v))]
                for u in vecs for v in vecs)
    neg = tuple(pos[tuple((-a) % p for a in u)] for u in vecs)
    ops = [Operation(2, add), Operation(1, neg), Operation(0, (pos[(0,) * d],))]
    for lam in range(p):
        ops.append(Operation(1, tuple(pos[tuple((lam * a) % p for a in u)]
                                      for u in vecs)))
    return AlgebraInstance(n, ops, family=f"gf{p}_{d}", ep_known=True)


def free_act(group: CayleyTable, x: int) -> AlgebraInstance:
    """The free act of a group on x generators: carrier = group x points,
    one unary operation per group element acting on the left."""
    if group.identity is None or not all(
            any(group.mul(a, b) == group.identity for b in range(group.size))
            for a in range(group.size)):
        raise ValueError("the base must be a group")
    if group.size > 4 or x > 3:
        raise ValueError("free acts are limited to |G| <= 4, |X| <= 3")
    n = group.size * x
    def pid(g, pt):
        return g * x + pt
    ops = []
    for a in range(group.size):
        ops.append(Operation(1, tuple(pid(group.mul(a, g), pt)
                                      for g in range(group.size)
                                      for pt in range(x))))
    return AlgebraInstance(n, ops, family=f"act{group.size}_{x}", ep_known=True)


def fl93() -> AlgebraInstance:
    """The four-element ternary exception: the operation fixes constant
    triples, returns the minority value on two-of-a-kind triples, and the
    missing fourth value on distinct triples."""
    n = 4
    table = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                vals = (i, j, k)
                distinct = set(vals)
                if len(distinct) == 1:
                    table.append(i)
                elif len(distinct) == 3:
                    table.append(next(v for v in range(n) if v not in distinct))
                else:
                    maj = max(distinct, key=lambda v: vals.count(v))
                    minority = next(v for v in distinct if v != maj)
                    table.append(minority)
    return AlgebraInstance(n, [Operation(3, tuple(table))], family="fl93",
                           ep_known=True)


BUILTIN_ALGEBRAS = ("fl93", "set2", "set3", "set4", "set5",
                    "gf2_2", "gf2_3", "gf3_2", "act2_2")


def builtin_algebra(name: str) -> AlgebraInstance:
    """A builtin algebra by name, or an algebra read from a .json path in
    `AlgebraInstance.to_dict`'s shape."""
    if name.endswith(".json"):
        with open(name) as fh:
            return AlgebraInstance.from_dict(json.load(fh))
    if name == "fl93":
        return fl93()
    if name.startswith("set"):
        return set_algebra(int(name[3:]))
    if name.startswith("gf"):
        p, d = name[2:].split("_")
        return vecspace(int(p), int(d))
    if name.startswith("act"):
        g, x = name[3:].split("_")
        return free_act(monoid_table(f"c{g}"), int(x))
    raise KeyError(f"unknown algebra {name!r}")


# -- subalgebra lattices -------------------------------------------------------

SUBALG_CAP = 512


@dataclass
class SubalgebraLattice:
    alg: AlgebraInstance
    subs: list                        # frozensets, sorted by (size, members)
    index: dict = field(init=False)

    def __post_init__(self):
        self.index = {s: i for i, s in enumerate(self.subs)}

    def join(self, a: frozenset, b: frozenset) -> frozenset:
        return self.alg.closure(a | b)

    def maximal(self) -> list:
        return [s for s in self.subs if self.alg.codim(s) == 1]

    def meet_table(self) -> CayleyTable:
        """The intersection semilattice as a monoid table (identity = carrier)."""
        return table_from_elements(self.subs, lambda a, b: a & b,
                                   gens=self.maximal() or None,
                                   identity=frozenset(range(self.alg.size)))


def all_subalgebras(alg: AlgebraInstance) -> SubalgebraLattice:
    """Every subalgebra, generated by one-point extensions from the least one."""
    if alg.size > SUBALG_CAP:
        raise SizeBoundExceeded(f"carrier {alg.size} beyond {SUBALG_CAP}")
    found = right_orbit([alg.closure(()), frozenset(range(alg.size))],
                        lambda b: [alg.closure(b | {x}) for x in range(alg.size)
                                   if x not in b])
    subs = sorted(found, key=lambda s: (len(s), sorted(s)))
    lat = SubalgebraLattice(alg, subs)
    alg._lattice = lat
    return lat


def lattice(alg: AlgebraInstance) -> SubalgebraLattice:
    return alg._lattice or all_subalgebras(alg)


def maximal_decomposition(alg: AlgebraInstance, b: frozenset) -> Optional[list]:
    """b as an intersection of codim(b)-many maximal subalgebras, when finite."""
    lat = lattice(alg)
    k = alg.codim(b)
    maxes = [c for c in lat.maximal() if b <= c]
    for combo in itertools.combinations(maxes, k):
        acc = frozenset(range(alg.size))
        for c in combo:
            acc &= c
        if acc == b:
            return list(combo)
    return None


def inclusion_exclusion_check(alg: AlgebraInstance) -> tuple[bool, Optional[tuple]]:
    """dim(B v C) + dim(B ^ C) = dim B + dim C over all lattice pairs."""
    lat = lattice(alg)
    for b in lat.subs:
        for c in lat.subs:
            lhs = alg.dim(lat.join(b, c)) + alg.dim(b & c)
            if lhs != alg.dim(b) + alg.dim(c):
                return False, (b, c)
    return True, None


# -- automorphisms --------------------------------------------------------------

AUT_CAP = 10      # a morphism search takes at most AUT_CAP! candidates


def _morphisms(alg: AlgebraInstance, sub: frozenset, *,
               bijective: bool) -> list[ptrans.PartialMap]:
    """All morphisms from the subalgebra `sub` into `alg` (bijections of the
    carrier when `bijective`), one candidate per choice of images for the
    greedy generators of `sub`, extended along their closure trail."""
    n = alg.size
    gens = alg.generators(sub)
    k = len(gens)
    if (math.perm(n, k) if bijective else n ** k) > math.factorial(AUT_CAP):
        raise SizeBoundExceeded(f"{k} generators in a carrier of {n} give more "
                                f"than {AUT_CAP}! candidate morphisms")
    rest = alg.trail(gens)[k:]
    # per operation: its table, one column of argument ids per position over
    # every instance inside sub, and the instances' values
    checks = []
    for op in alg.ops:
        argss = list(itertools.product(sorted(sub), repeat=op.arity))
        checks.append((op.table.__getitem__, list(zip(*argss)),
                       [op.apply(n, args) for args in argss]))
    choices = (itertools.permutations(range(n), k) if bijective
               else itertools.product(range(n), repeat=k))
    out = []
    for images in choices:
        img = [None] * n
        for x, y in zip(gens, images):
            img[x] = y
        for v, op, args in rest:
            img[v] = op.apply(n, map(img.__getitem__, args))
        if bijective and len(set(img)) < n:
            continue
        if all(_respects(img.__getitem__, n, *check) for check in checks):
            out.append(ptrans.PartialMap(n, tuple(
                ptrans.UNDEF if y is None else y + 1 for y in img)))
    return out


def _respects(img, n: int, table, cols: list, outs: list) -> bool:
    """Whether img(table(args)) == table(img(args)) on every instance, in C:
    the mixed-radix index of img(args) is folded column by column."""
    idx = itertools.repeat(0, len(outs))
    for col in cols:
        idx = map(add, map(n.__mul__, idx), map(img, col))
    return all(map(eq, map(table, idx), map(img, outs)))


def automorphisms(alg: AlgebraInstance) -> list[ptrans.PartialMap]:
    """All automorphisms, as total maps on the 1-based carrier."""
    return sorted(_morphisms(alg, frozenset(range(alg.size)), bijective=True),
                  key=lambda a: a.img)


def partial_endomorphisms(alg: AlgebraInstance) -> list[ptrans.PartialMap]:
    """All morphisms from subalgebras into the algebra."""
    return sorted((a for b in lattice(alg).subs
                   for a in _morphisms(alg, b, bijective=False)),
                  key=lambda a: a.img)


def partial_automorphisms(alg: AlgebraInstance) -> list[ptrans.PartialMap]:
    subs = lattice(alg).index
    return [a for a in partial_endomorphisms(alg)
            if a.is_injective()
            and frozenset(v - 1 for v in a.im()) in subs]


def fix_set(alg: AlgebraInstance, a: ptrans.PartialMap) -> frozenset:
    return frozenset(x - 1 for x in a.dom() if a(x) == x)


def cofix(alg: AlgebraInstance, a: ptrans.PartialMap) -> int:
    return alg.codim(fix_set(alg, a))


def gamma(alg: AlgebraInstance, kappa: int,
          autos: Optional[list] = None) -> list[ptrans.PartialMap]:
    """Automorphisms whose fix set has the given codimension."""
    autos = autos if autos is not None else automorphisms(alg)
    return [a for a in autos if cofix(alg, a) == kappa]


def generated_subgroup(gens: Iterable[ptrans.PartialMap], n: int) -> frozenset:
    gen_list = list(gens)
    return frozenset(right_orbit([ptrans.identity(n)],
                                 lambda a: [a * g for g in gen_list]))


@dataclass
class GammaReport:
    aut_size: int
    gamma1: int
    gamma2: int
    union_generates: bool
    gamma1_generates: bool
    gamma2_generates: bool
    gamma1_span: int
    fix_containment_ok: bool     # factorizations never shrink the fix set


def check_gamma_generates(alg: AlgebraInstance, *, check_fix: bool = True) -> GammaReport:
    """The corank-one and corank-two automorphisms generate the whole group;
    refinements hold under the structural conditions of the classification.
    check_fix additionally witnesses factorizations through generators whose
    fix sets contain the target's, closing one subgroup per distinct fix set."""
    autos = automorphisms(alg)
    aut_set = frozenset(autos)
    n = alg.size
    g1 = gamma(alg, 1, autos)
    g2 = gamma(alg, 2, autos)
    span1 = generated_subgroup(g1, n)
    span2 = generated_subgroup(g2, n)
    # the union's span contains both, so it needs a closure of its own only
    # when neither is the whole group
    union_generates = aut_set in (span1, span2) or \
        generated_subgroup(g1 + g2, n) == aut_set

    fix_ok = True
    if check_fix:
        gen_fixes = [(g, fix_set(alg, g)) for g in g1 + g2]
        spans: dict = {}
        for a in autos:
            fa = fix_set(alg, a)
            if fa not in spans:
                spans[fa] = generated_subgroup(
                    [g for g, fg in gen_fixes if fa <= fg], n)
            if a not in spans[fa]:
                fix_ok = False
                break
    return GammaReport(len(autos), len(g1), len(g2), union_generates,
                       span1 == aut_set, span2 == aut_set, len(span1), fix_ok)


# -- structural classifications -------------------------------------------------

@dataclass
class ConditionReport:
    unique_basis_conditions: tuple         # the six one-point-subalgebra conditions
    unique_basis_consistent: bool
    full_symmetry_conditions: tuple        # the three full-automorphism conditions
    full_symmetry_consistent: bool
    partial_symmetry_conditions: tuple     # the two partial-automorphism conditions
    partial_symmetry_consistent: bool
    near_basis_conditions: Optional[tuple] # five conditions, when unique-basis fails
    near_basis_consistent: Optional[bool]
    cover_conditions: tuple                # maximal-union and basis forms
    cover_implication_ok: bool
    strong: bool


def classify_conditions(alg: AlgebraInstance) -> ConditionReport:
    alg.ensure_exchange()
    lat = lattice(alg)
    const = alg.constants()
    carrier = frozenset(range(alg.size))
    xset = sorted(carrier - const)
    n_dim = alg.dim()
    subs = set(lat.subs)
    maxes = set(lat.maximal())

    def is_sub(s):
        return frozenset(s) in subs

    # one-point-deleted subalgebras / unique basis
    c1 = any(is_sub(carrier - {x}) for x in xset)
    c2 = bool(xset) and all(is_sub(carrier - {x}) for x in xset)
    c3 = alg.is_independent(xset)
    bases = [s for s in alg.independent_sets() if alg.closure(s) == carrier]
    c4 = bases == [frozenset(xset)] if xset else False
    # the spans of the constants with each subset of xset
    spans = {frozenset(const | set(extra)) for r in range(len(xset) + 1)
             for extra in itertools.combinations(xset, r)}
    c5 = subs == spans
    c6 = maxes == {carrier - {x} for x in xset}
    sub1 = (c1, c2, c3, c4, c5, c6)
    sub1_consistent = len(set(sub1)) == 1 if n_dim else True

    autos = automorphisms(alg)
    d1 = bool(xset) and alg.is_independent(frozenset(xset) - {xset[0]})
    d2 = bool(xset) and all(alg.is_independent(frozenset(xset) - {x}) for x in xset)
    d3 = len(autos) == math.factorial(len(xset))
    sub2 = (d1, d2, d3)

    pauts = partial_automorphisms(alg)
    expected = sum(math.comb(len(xset), k) ** 2 * math.factorial(k)
                   for k in range(len(xset) + 1))
    p1 = c3
    p2 = len(pauts) == expected
    sub5 = (p1, p2)

    sub3 = sub3_consistent = None
    if not any(sub1) and n_dim:
        e12 = (d1, d2)
        e3 = all(is_sub(carrier - {x, y})
                 for x, y in itertools.combinations(xset, 2))
        e4 = subs == {b for b in spans if len(carrier - b) != 1}
        e5 = maxes == {carrier - {x, y}
                       for x, y in itertools.combinations(xset, 2)}
        sub3 = e12 + (e3, e4, e5)
        sub3_consistent = len(set(sub3)) == 1

    # maximal covers: no two maximals cover the carrier / basis variant
    f1 = all(b | c != carrier for b in maxes for c in maxes)
    f2 = True
    for basis in bases:
        b = sorted(basis)
        for x, y in itertools.combinations(b, 2):
            lft = alg.closure(basis - {x})
            rgt = alg.closure(basis - {y})
            if lft | rgt == carrier:
                f2 = False
    strong, _ = alg.is_strong()
    cover_impl = (not f1 or f2) and (not strong or f1 == f2)

    return ConditionReport(sub1, sub1_consistent, sub2, len(set(sub2)) == 1,
                           sub5, len(set(sub5)) == 1, sub3, sub3_consistent,
                           (f1, f2), cover_impl, strong)


# -- bridge to wreath products ---------------------------------------------------

def pend_table(alg: AlgebraInstance) -> CayleyTable:
    """The monoid of partial endomorphisms under left-to-right composition."""
    elems = partial_endomorphisms(alg)
    return table_from_elements(elems, ptrans.compose,
                               identity=ptrans.identity(alg.size))


def free_act_wreath_iso(group: CayleyTable, x: int) -> bool:
    """The partial endomorphism monoid of a free group act matches the wreath
    product of the group with the partial maps on the act's generators, via
    the natural coordinates (copy labels, induced map on copies)."""
    alg = free_act(group, x)
    pend = partial_endomorphisms(alg)

    def pid(g, pt):
        return g * x + pt

    def coords(a: ptrans.PartialMap):
        ent = [wreath.ZERO] * x
        img = [ptrans.UNDEF] * x
        for pt in range(x):
            src = pid(group.identity, pt) + 1
            v = a(src)
            if v is None:
                continue
            g, tgt = divmod(v - 1, x)
            ent[pt] = g
            img[pt] = tgt + 1
        return wreath.WreathElement(wreath.MTuple(group, ent),
                                    ptrans.PartialMap(x, img))

    table = {a: coords(a) for a in pend}
    if len(set(table.values())) != len(pend):
        return False
    if len(pend) != wreath.wreath_size(group.size, "PT", x):
        return False
    for a in pend:
        for b in pend:
            if table[a * b] != wreath.wr_product(table[a], table[b]):
                return False
    return True
