"""Classification of action pairs inside a concrete finite monoid.

A pair (U, S) of subsemigroups of an ambient monoid, together with a map
s -> s+ into U + {1}, is checked against the compatibility axioms; on
success the action of S on U + {1} is reconstructed and the machinery of
semidirect products, kernel congruences, congruence generating sets,
special-congruence axioms, proper covers and the central embedding all
operate on the resulting data.

Conventions: U1/S1 always mean the subsets extended by the ambient identity,
and the action is extended monoidally (the identity acts identically).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from .fmonoid import (FULL_TABLE_CAP, CayleyTable, CongruencePartition,
                      closure_from_generators, congruence_closure,
                      greedy_generators, is_compatible, quotient, right_orbit)


class NotSubsemigroup(Exception):
    pass


class HypothesisFailed(Exception):
    pass


# ---------------------------------------------------------------------------
# Contexts and reports
# ---------------------------------------------------------------------------

@dataclass
class AmbientContext:
    """A candidate pair inside an ambient monoid table.

    U and S are nonempty sets of ambient ids closed under the product, and
    plus maps each member of S to an element of U1.
    """

    m: CayleyTable
    u_set: frozenset
    s_set: frozenset
    plus: dict
    name: str = ""
    _gens: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)

    def __post_init__(self):
        if self.m.identity is None:
            raise ValueError("ambient table must be a monoid")
        self.u_set = frozenset(self.u_set)
        self.s_set = frozenset(self.s_set)
        ident = self.m.identity
        for label, sub in (("U", self.u_set), ("S", self.s_set)):
            if not sub:
                raise ValueError(f"{label} of {self.name or 'the pair'} is empty")
            for a in sub:
                for b in sub:
                    if self.m.mul(a, b) not in sub:
                        raise NotSubsemigroup(f"{label} not closed at ({a},{b})")
        u1 = self.u_set | {ident}
        for s in self.s_set:
            if self.plus[s] not in u1:
                raise ValueError(f"plus({s}) escapes U1")

    @property
    def identity(self):
        return self.m.identity

    def u1(self) -> list:
        return sorted(self.u_set | {self.identity})

    def s1(self) -> list:
        return sorted(self.s_set | {self.identity})

    def s_list(self) -> list:
        return sorted(self.s_set)

    def u_list(self) -> list:
        return sorted(self.u_set)

    def gens(self, which: str) -> list:
        """A certified generating set of U, U1, S or S1 (as `which` names
        it) as a semigroup under the ambient product, computed once.

        `greedy_generators` runs over the members in ambient id order, the
        shortlex order of their normal forms in a closure's table.  Every
        member is a candidate, so the kept list generates exactly the
        members (Froidure & Pin 1997).  For U1 and S1 it keeps the identity
        when U or S lacks it, since no product of members of U or S gives
        it then.
        """
        if which not in self._gens:
            members = {"U": self.u_list, "U1": self.u1,
                       "S": self.s_list, "S1": self.s1}[which]()
            self._gens[which] = greedy_generators(members, self.m.mul)
        return self._gens[which]

    def product_set(self) -> frozenset:
        m = self.m
        return frozenset(m.mul(u, s) for u in self.u_set for s in self.s_set)


class ActionTable:
    """The action of S1 on U1, stored as a dense dict (s, u) -> u'.

    `report` is the PairReport of the last check that verified this action
    (`check_pair_from_plus` or `check_weak_pair`); the later stages read it
    instead of checking the pair again.  `sd` and `th` hold the results of
    `semidirect` and `theta_and_friends` once computed, and a second call
    returns them.
    """

    def __init__(self, ctx: AmbientContext, table: dict):
        self.ctx = ctx
        self.table = dict(table)
        self.report: Optional[PairReport] = None
        self.sd: Optional[SemidirectResult] = None
        self.th: Optional[ThetaResult] = None
        ident = ctx.identity
        for u in ctx.u1():
            self.table.setdefault((ident, u), u)

    def pair_report(self) -> PairReport:
        """The stored report; an action no check has seen is checked once by
        `check_weak_pair`."""
        if self.report is None:
            check_weak_pair(self.ctx, self)
        return self.report

    def __call__(self, s, u):
        return self.table[(s, u)]

    def splus(self, s):
        if s == self.ctx.identity:
            return self.ctx.identity
        return self.table[(s, self.ctx.identity)]

    def verify_laws(self) -> list:
        """The action laws and the compatibility law su = (s>u) s, as
        failure records: values in U1, then composition (at most one witness
        per (s, t)), the morphism law (per (s, u)) and compatibility (per s).

        The range check is a full scan.  Writing f_s(u) = s>u, the other
        laws hold on all elements once they hold on the certified
        generators (`AmbientContext.gens`), by induction on word length:

        - Composition f_s(f_t(u)) = f_st(u), with t over the generators of
          S1 once every value lies in U1.  For t = t'g,
          f_st'g(u) = f_st'(f_g(u)) = f_s(f_t'(f_g(u))) = f_s(f_t'g(u)):
          the generator case twice, and the case t' at the point f_g(u).
        - The morphism law f_s(uv) = f_s(u) f_s(v), with v over the
          generators of U1.  For v = v'h, f_s(uv'h) = f_s(uv') f_s(h) =
          f_s(u) f_s(v') f_s(h) = f_s(u) f_s(v'h).  Once composition holds,
          s also ranges over the generators of S1 only: then f_tg = f_t f_g
          is a composite of morphisms of U1.
        - Compatibility, with s over the generators of S once composition
          holds.  For s = s'g, s'gu = s' f_g(u) g = f_s'(f_g(u)) s'g =
          f_s'g(u) s'g.

        A law whose premise failed is scanned over all elements, so the set
        of failure kinds is the one the full scans give; only the witnesses
        may name generators.  A value outside U1 is reported, never looked
        up as a key: s>x for such x equals no defined term, and 1>x = x.
        """
        ctx = self.ctx
        m = ctx.m
        u1 = ctx.u1()
        u1set = set(u1)
        s1 = ctx.s1()
        failures = [("action-range", (s, u))
                    for s in s1 for u in u1 if self(s, u) not in u1set]
        in_range = not failures
        table, ident = self.table, ctx.identity
        for s in s1:
            for t in ctx.gens("S1") if in_range else s1:
                st = m.mul(s, t)
                for u in u1:
                    # s>x for x outside U1 equals no defined term; 1>x = x
                    x = self(t, u)
                    if table.get((s, x), x if s == ident else None) \
                            != self(st, u):
                        failures.append(("action-composition", (s, t, u)))
                        break
        composes = not failures
        for s in ctx.gens("S1") if composes else s1:
            for u in u1:
                for v in ctx.gens("U1"):
                    if self(s, m.mul(u, v)) != m.mul(self(s, u), self(s, v)):
                        failures.append(("action-morphism", (s, u, v)))
                        break
        for s in ctx.gens("S") if composes else ctx.s_list():
            for u in u1:
                if m.mul(s, u) != m.mul(self(s, u), s):
                    failures.append(("compatibility", (s, u)))
                    break
        return failures


SPECIAL_AXIOM_NAMES = (
    "pairs absorb the projection on the right",
    "projection sections separate",
    "related pairs share their projection part",
    "trivial at the tuple identity",
    "per-element relations are right congruences",
    "per-element relations grow under left factors",
    "acting shifts per-element relations",
    "per-element relations survive twisted extension",
)


@dataclass
class PairReport:
    name: str = ""
    weak: bool = False
    action: bool = False
    strong: bool = False
    failures: list = field(default_factory=list)
    p_set: Optional[frozenset] = None
    sigma: Optional[CongruencePartition] = None
    proper: Optional[bool] = None
    left_dense: Optional[bool] = None
    w_conditions: Optional[tuple] = None
    sigma_is_transitive_kappa: Optional[bool] = None
    sigma_equational_ok: Optional[bool] = None
    disjointness_ok: Optional[bool] = None
    right_unit_rule_ok: Optional[bool] = None
    mid_identity_ok: Optional[bool] = None

    def implication_chain_ok(self) -> bool:
        """strong => action => weak; proper => action."""
        if self.strong and not self.action:
            return False
        if self.action and not self.weak:
            return False
        if self.proper and not self.action:
            return False
        return True

    def to_dict(self, ctx: AmbientContext):
        nf = ctx.m.nf

        def words(w):
            """An ambient id as its normal-form word; a tuple or list of
            them, nested to any depth, as the list of its members."""
            if isinstance(w, (tuple, list)):
                return [words(x) for x in w]
            return list(nf[w])
        return {
            "name": self.name,
            "weak": self.weak,
            "action": self.action,
            "strong": self.strong,
            "proper": self.proper,
            "left_dense": self.left_dense,
            "p_size": len(self.p_set) if self.p_set is not None else None,
            "p_elements": words(sorted(self.p_set)) if self.p_set is not None else None,
            "sigma_classes": len(self.sigma.classes()) if self.sigma else None,
            "w_conditions": list(self.w_conditions) if self.w_conditions else None,
            "mid_identity_ok": self.mid_identity_ok,
            "failures": [[which, words(wit)] for which, wit in self.failures],
        }


# ---------------------------------------------------------------------------
# Axioms and action reconstruction
# ---------------------------------------------------------------------------

def _kernel_failures(ctx: AmbientContext, splus) -> list:
    """The kernel condition us = vt => u s+ = v t+, one witness per fibre of
    (u, s) -> us over U1 x S."""
    m = ctx.m
    fibres: dict = {}
    for u in ctx.u1():
        for s in ctx.s_list():
            fibres.setdefault(m.mul(u, s), []).append((u, s))
    failures = []
    for items in fibres.values():
        u0, s0 = items[0]
        ref = m.mul(u0, splus(s0))
        for u, s in items[1:]:
            if m.mul(u, splus(s)) != ref:
                failures.append(("kernel-condition", ((u0, s0), (u, s))))
                break
    return failures


def check_pair_from_plus(ctx: AmbientContext
                         ) -> tuple[PairReport, Optional[ActionTable]]:
    """Verify the pair axioms from the s -> s+ data and rebuild the action.

    Checks sU1 <= U1 s, then the four defining conditions of the projection
    map, then reconstructs s>u as v s+ for the least witness v with su = vs
    (re-checking that the choice of witness does not matter) and verifies
    that the result is a genuine action by semigroup morphisms satisfying
    the compatibility law su = (s>u) s.  The report is stored on the action.
    """
    m = ctx.m
    rep = PairReport(name=ctx.name)
    u1 = ctx.u1()
    slist = ctx.s_list()
    ident = ctx.identity
    failures = rep.failures

    # sU1 <= U1 s, with witness lists per (s, value of su)
    witness: dict = {}
    for s in slist:
        traj = {}
        for v in u1:
            traj.setdefault(m.mul(v, s), []).append(v)
        for u in u1:
            su = m.mul(s, u)
            if su in traj:
                witness[(s, u)] = traj[su]
            else:
                failures.append(("sU1-in-U1s", (s, u)))
                return rep, None

    plus = ctx.plus
    for s in slist:
        if m.mul(plus[s], s) != s:
            failures.append(("s-equals-plus-s", (s,)))
    for s in slist:
        for t in slist:
            st = m.mul(s, t)
            if m.mul(s, plus[t]) != m.mul(plus[st], s):
                failures.append(("shift-projection", (s, t)))
            if plus[st] != m.mul(plus[st], plus[s]):
                failures.append(("projection-absorbs", (s, t)))

    kernel = _kernel_failures(ctx, plus.__getitem__)
    failures.extend(kernel)

    # reconstruct the action, least witness first, well-definedness re-checked
    table = {}
    well_defined = True
    for s in slist:
        for u in u1:
            vs = witness[(s, u)]
            vals = {m.mul(v, plus[s]) for v in vs}
            if len(vals) != 1:
                well_defined = False
                failures.append(("action-ill-defined", (s, u, sorted(vs)[:2])))
            table[(s, u)] = m.mul(min(vs), plus[s])
    act = ActionTable(ctx, table)

    law_failures = act.verify_laws()
    failures.extend(law_failures)

    rep.weak = not law_failures and well_defined
    rep.action = rep.weak and not kernel and not any(
        which in ("s-equals-plus-s", "shift-projection", "projection-absorbs")
        for which, _ in failures)
    rep.strong = rep.action and all(plus[s] == ident for s in slist)
    act.report = rep
    return rep, act


def check_weak_pair(ctx: AmbientContext, act: ActionTable) -> PairReport:
    """Verify the compatibility axiom for a user-supplied action; the kernel
    condition is reported separately in the action verdict.  The report is
    stored on the action."""
    rep = PairReport(name=ctx.name)
    rep.failures = act.verify_laws()
    rep.weak = not rep.failures
    kernel = _kernel_failures(ctx, act.splus)
    rep.failures += kernel
    rep.action = rep.weak and not kernel
    rep.strong = rep.action and all(act.splus(s) == ctx.identity for s in ctx.s_list())
    act.report = rep
    return rep


# ---------------------------------------------------------------------------
# P, sigma, properness
# ---------------------------------------------------------------------------

def projection_semigroup(ctx: AmbientContext, act: ActionTable) -> frozenset:
    """The subsemigroup of U1 generated by the projections s+."""
    gens = {act.splus(s) for s in ctx.s_list()}
    return frozenset(right_orbit(gens, lambda a: [ctx.m.mul(a, g) for g in gens]))


def sigma_partition(ctx: AmbientContext, act: ActionTable,
                    p_set: frozenset) -> tuple[CongruencePartition, bool]:
    """sigma as the transitive closure of {(s, t) : ps = qt for p, q in P1};
    also reports whether the one-step relation was already transitive."""
    m = ctx.m
    slist = ctx.s_list()
    part = CongruencePartition(slist)
    p1 = sorted(p_set | {ctx.identity})
    buckets: dict = {}
    for s in slist:
        for p in p1:
            buckets.setdefault(m.mul(p, s), set()).add(s)
    onestep: dict = {s: {s} for s in slist}
    for group in buckets.values():
        group = sorted(group)
        for s in group[1:]:
            part.union(group[0], s)
        for s in group:
            onestep[s].update(group)
    transitive = all(set(c) <= onestep[c[0]] for c in part.classes())
    return part, transitive


def classify_proper(ctx: AmbientContext, act: ActionTable,
                    rep: PairReport) -> PairReport:
    """Fill the properness side of the report: P, sigma, the proper verdict,
    left-density of P in U, the ten one-sided identity conditions, and the
    equational cross-checks available when P is a semilattice or left-regular
    band."""
    m = ctx.m
    ident = ctx.identity
    u1 = ctx.u1()
    slist = ctx.s_list()

    p_set = projection_semigroup(ctx, act)
    rep.p_set = p_set

    sigma, transitive = sigma_partition(ctx, act, p_set)
    rep.sigma = sigma
    # kappa is reflexive, symmetric and compatible, so sigma is its
    # transitive closure; when P is right-reversible the two coincide
    p_els = sorted(p_set)
    right_reversible = all(
        any(m.mul(a, x) == m.mul(b, y) for a in p_els for b in p_els)
        for x in p_els for y in p_els) if p_els else True
    rep.sigma_is_transitive_kappa = (not right_reversible) or transitive

    # proper: us = vt  iff  u s+ = v t+ and s sigma t, that is, the map
    # us -> (u s+, sigma class of s) is well defined and injective
    keys_of: dict = {}
    for u in u1:
        for s in slist:
            keys_of.setdefault(m.mul(u, s), set()).add(
                (m.mul(u, act.splus(s)), sigma.find(s)))
    keys = [k for ks in keys_of.values() for k in ks]
    rep.proper = len(keys) == len(keys_of) == len(set(keys))

    # left density of P in U: every u admits p in P with pu in P
    rep.left_dense = all(any(m.mul(p, u) in p_set for p in p_els)
                         for u in ctx.u_list()) if p_els else False

    # the ten one-sided identity conditions
    us_pairs = [(u, s) for u in ctx.u_list() for s in slist]
    w1 = any(all(m.mul(s, u) == s for s in slist) for u in ctx.u_list())
    w2 = all(any(m.mul(s, u) == s for u in ctx.u_list()) for s in slist)
    w3 = any(all(m.mul(u, s) == s for s in slist) for u in ctx.u_list())
    w4 = all(any(m.mul(u, s) == s for u in ctx.u_list()) for s in slist)
    prod_set = ctx.product_set()
    w5 = all(s in prod_set for s in slist)
    w6 = any(s in prod_set for s in slist)
    w7 = any(all(m.mul(m.mul(u, s), v) == m.mul(u, s) for u, s in us_pairs)
             for v in ctx.u_list())
    w8 = all(any(m.mul(m.mul(u, s), v) == m.mul(u, s) for v in ctx.u_list())
             for u, s in us_pairs)
    w9 = any(all(m.mul(u, act(s, v)) == u for u, s in us_pairs)
             for v in ctx.u_list())
    w10 = all(any(m.mul(u, act(s, v)) == u for v in ctx.u_list())
              for u, s in us_pairs)
    rep.w_conditions = (w1, w2, w3, w4, w5, w6, w7, w8, w9, w10)

    # equational forms of sigma, available for proper pairs over a
    # commutative / left-regular-band P
    if rep.proper:
        commutative = all(m.mul(a, b) == m.mul(b, a) for a in p_els for b in p_els)
        lrb = all(m.mul(m.mul(a, b), a) == m.mul(a, b) for a in p_els for b in p_els)
        ok = True
        if commutative:
            for s in slist:
                for t in slist:
                    eq = m.mul(act.splus(t), s) == m.mul(act.splus(s), t)
                    if eq != sigma.same(s, t):
                        ok = False
        elif lrb:
            for s in slist:
                for t in slist:
                    sp, tp = act.splus(s), act.splus(t)
                    eq = m.mul(m.mul(sp, tp), s) == m.mul(sp, t)
                    if eq != sigma.same(s, t):
                        ok = False
        rep.sigma_equational_ok = ok

    if rep.strong:
        rep.disjointness_ok = (ctx.u_set & ctx.s_set) <= {ident}
    in_right_units = all(any(m.mul(s, t) == ident for t in range(m.size))
                         for s in slist)
    rep.right_unit_rule_ok = rep.strong if in_right_units else None

    # left density + trivial sigma forces properness; cross-check
    if rep.left_dense and sigma.is_trivial() and not rep.proper:
        rep.failures.append(("density-properness-mismatch", ()))
    return rep


def _classified(ctx: AmbientContext, act: ActionTable) -> PairReport:
    """The action's report with its properness side filled in once (a second
    `classify_proper` would append its failures again)."""
    rep = act.pair_report()
    if rep.p_set is None:
        classify_proper(ctx, act, rep)
    return rep


# The failure kinds that make an action no weak pair: the action laws,
# compatibility, and a reconstruction that depends on the witness chosen.
_LAW_KINDS = frozenset({"action-range", "action-composition", "action-morphism",
                        "compatibility", "action-ill-defined"})


def _require_laws(act: ActionTable, stage: str) -> None:
    """Refuse an action that fails its laws, naming the failed kinds.

    `semidirect`, `theta_and_friends`, `check_special_congruence`,
    `proper_cover` and `embed_central` assume an action pair: S acts on U1
    by morphisms, compatibly with the product, which is what makes U x S a
    semigroup.  On any other action none of their results means anything,
    so each calls this first and raises `HypothesisFailed`.
    """
    rep = act.pair_report()
    if not rep.weak:
        failed = sorted({which for which, _ in rep.failures} & _LAW_KINDS)
        raise HypothesisFailed(f"{stage} needs an action satisfying its laws; "
                               f"failed: {', '.join(failed)}")


# ---------------------------------------------------------------------------
# Semidirect products
# ---------------------------------------------------------------------------

def _shortlex_pairs(m: CayleyTable, us: Sequence, ss: Sequence) -> list:
    """The pairs of us x ss in shortlex order of their ambient normal forms."""
    return sorted(((u, s) for u in us for s in ss),
                  key=lambda p: (len(m.nf[p[0]]) + len(m.nf[p[1]]),
                                 m.nf[p[0]], m.nf[p[1]]))


def _pair_closure(ctx: AmbientContext, act: ActionTable, candidates: Iterable,
                  identity_hint, size: int, what: str) -> CayleyTable:
    """The `size` pairs (u, s) generated under (u, s)(v, t) = (u.(s>v), st)
    by the candidates that `greedy_generators` keeps, with payload (u, s).

    The candidates include every one of the `size` pairs, so the closure is
    those pairs iff it has `size` elements.

    The closure runs on integer codes: (u, s) in U1 x S1 is iu*|S1| + is.
    A kept generator (v, t) gets a column, the code of (u, s)(v, t) for
    every code, built from the ambient's products and the action the first
    time a product needs it and dropped with the closure.  Every action value
    lies in U1 (the callers require the laws), so every product has a code.
    The table's `elements` and `index` are decoded back to pairs.
    """
    m = ctx.m
    u1, s1 = ctx.u1(), ctx.s1()
    width = len(s1)
    ucode = {u: i * width for i, u in enumerate(u1)}
    scode = {s: j for j, s in enumerate(s1)}
    times: dict = {}        # w -> the codes of u.w over u in U1
    cols: dict = {}

    def left(w):
        if w not in times:
            times[w] = [ucode[m.mul(u, w)] for u in u1]
        return times[w]

    def column(g):
        v, t = u1[g // width], s1[g % width]
        by_s = [left(act(s, v)) for s in s1]
        st = [scode[m.mul(s, t)] for s in s1]
        return [a + b for us in zip(*by_s) for a, b in zip(us, st)]

    def prod(x, y):
        try:
            return cols[y][x]
        except KeyError:
            cols[y] = column(y)
            return cols[y][x]

    hint = None if identity_hint is None else \
        ucode[identity_hint[0]] + scode[identity_hint[1]]
    gens = greedy_generators((ucode[u] + scode[s] for u, s in candidates
                              if (u, s) != identity_hint), prod) or [hint]
    table = closure_from_generators(gens, prod, identity_hint=hint)
    if table.size != size:
        raise ValueError(f"{what} generators failed to cover {size} pairs")
    table.elements = [(u1[c // width], s1[c % width]) for c in table.elements]
    table.index = {p: i for i, p in enumerate(table.elements)}
    return table


@dataclass
class SemidirectResult:
    table: CayleyTable                   # U x S, payload (u, s) ambient pairs
    m1: frozenset
    m2: frozenset
    mm: frozenset
    retraction: dict
    retraction_ok: bool
    is_monoid: bool
    monoid_rule_ok: bool                 # monoid iff both monoids + trivial projections
    mid_identity_ok: bool

    def id_of(self, u, s) -> int:
        return self.table.index[(u, s)]


def semidirect(ctx: AmbientContext, act: ActionTable) -> SemidirectResult:
    """The semidirect product on U x S under (u,s)(v,t) = (u.(s>v), st).

    Also computes the subsemigroups cut out by u = u s+ and u = (1>u), their
    intersection with its retraction, the monoid verdict, and checks that
    the pair of identities is a mid-identity of the extended product.

    The table is generated by the pairs that `greedy_generators` keeps
    from U x S in shortlex order of their ambient normal forms.  No m x m
    table is built (`_pair_closure` multiplies integer codes).  The result
    is stored on the action, and a second call returns it.

    The checks after the closure scan only what they read:

    - The retraction r(u, s) = ((1>u) s+, s) is a morphism iff
      r(xg) = r(x) r(g) for every x and generator g: for y = y'g,
      r(xy'g) = r(xy') r(g) = r(x) r(y') r(g) = r(x) r(y'g).  Both sides
      have S coordinate st, so the payload product compares U
      coordinates: w.(s>w') against that of r(xg), where r(x) = (w, s)
      and r(g) = (w', t).
    - (1, 1) is the identity iff it is `table.identity`: a two-sided
      identity is unique, and the table detects its own (or verifies the
      hint).
    - x (1, 1) y = xy reduces to (u s+).(s>v) = u.(s>v) for u, v in U1 and
      s in S1, which holds for every u iff it holds for u = 1:
      (u s+).(s>v) = u.(s+.(s>v)) by associativity.  So only
      s+.(s>v) = s>v is scanned, |S1||U1| products instead of |S1||U1|^2.
    """
    _require_laws(act, "semidirect")
    if act.sd is not None:
        return act.sd
    m = ctx.m
    ident = ctx.identity
    ulist = ctx.u_list()
    slist = ctx.s_list()

    have_units = ident in ctx.u_set and ident in ctx.s_set
    identity_hint = None
    # (1, 1) is always a left identity here (the action is monoidal) but a
    # right identity only when every u absorbs every projection
    if have_units and all(m.mul(u, act.splus(s)) == u
                          for u in ulist for s in slist):
        identity_hint = (ident, ident)
    table = _pair_closure(ctx, act, _shortlex_pairs(m, ulist, slist),
                          identity_hint, len(ulist) * len(slist), "semidirect")

    m1 = frozenset(i for i, (u, s) in enumerate(table.elements)
                   if u == m.mul(u, act.splus(s)))
    m2 = frozenset(i for i, (u, s) in enumerate(table.elements)
                   if u == act(ident, u))
    mm = m1 & m2

    els, index = table.elements, table.index
    ru = [m.mul(act(ident, u), act.splus(s)) for u, s in els]  # U coordinate of r
    retraction = {i: index[(w, s)] for i, (w, (_, s)) in enumerate(zip(ru, els))}
    retr_ok = all(j in mm for j in retraction.values()) and \
        all(retraction[j] == j for j in mm)
    for k, g in enumerate(table.gens):
        acted = {s: act(s, ru[g]) for s in slist}
        retr_ok = retr_ok and all(
            m.mul(w, acted[s]) == ru[row[k]]
            for w, (_, s), row in zip(ru, els, table.right))

    trivial_proj = all(act.splus(s) == ident for s in slist)
    monoid_expected = have_units and trivial_proj
    has_identity = have_units and table.identity == index[(ident, ident)]
    monoid_rule_ok = has_identity == monoid_expected

    mid_ok = all(m.mul(act.splus(s), w) == w
                 for s in ctx.s1() for w in [act(s, v) for v in ctx.u1()])

    act.sd = SemidirectResult(table, m1, m2, mm,
                              retraction, retr_ok, has_identity,
                              monoid_rule_ok, mid_ok)
    return act.sd


# ---------------------------------------------------------------------------
# The kernel congruence and its relatives
# ---------------------------------------------------------------------------

@dataclass
class ThetaResult:
    theta: CongruencePartition           # on sd.table
    theta_u: dict                        # u in U1 -> partition of S
    theta_u1: dict                       # u in U1 -> partition of S1
    stab: dict                           # u in U1 -> frozenset of s with us = u
    product_values: list                 # pi(u, s) per sd table id
    factorization_laws_ok: bool
    description_ok: bool                 # theta via projections + theta_{us+}


def _partition_by(members, key) -> CongruencePartition:
    """The members (0..n-1 given n) grouped by their value under key."""
    part = CongruencePartition(members)
    first: dict = {}
    for x in part.members:
        part.union(first.setdefault(key(x), x), x)
    return part


def _fibre_partition(m: CayleyTable, u, members: Sequence) -> CongruencePartition:
    """theta_u on the members: s ~ t iff us = ut."""
    return _partition_by(members, lambda s: m.mul(u, s))


def theta_and_friends(ctx: AmbientContext, act: ActionTable,
                      sd: SemidirectResult) -> ThetaResult:
    """theta as the fibres of (u, s) -> us, the per-element right congruences
    on S and S1, the stabilizers, and the structural cross-checks.  The
    result for the action's stored semidirect product is stored on the
    action, and a second call returns it."""
    _require_laws(act, "theta_and_friends")
    if act.th is not None and sd is act.sd:
        return act.th
    m = ctx.m
    u1 = ctx.u1()
    slist = ctx.s_list()
    s1 = ctx.s1()

    values = [m.mul(u, s) for (u, s) in sd.table.elements]
    theta = _partition_by(sd.table.size, values.__getitem__)

    theta_u = {u: _fibre_partition(m, u, slist) for u in u1}
    theta_u1 = {u: _fibre_partition(m, u, s1) for u in u1}
    stab = {u: frozenset(s for s in slist if m.mul(u, s) == u) for u in u1}

    # theta(u,s)(v,t) iff u s+ = v t+ and (s,t) in theta_{u s+}
    def description(i):
        u, s = sd.table.elements[i]
        usp = m.mul(u, act.splus(s))
        return usp, theta_u[usp].find(s)

    description_ok = _partition_by(sd.table.size, description) == theta

    # natural factorisations: existence, unique left part, sigma-related
    # right parts for proper pairs
    nf_ok = True
    prod_set = ctx.product_set()
    nf_by_value: dict = {}
    for (u, s) in sd.table.elements:
        if u == m.mul(u, act.splus(s)):
            nf_by_value.setdefault(m.mul(u, s), []).append((u, s))
    for a in prod_set:
        items = nf_by_value.get(a, [])
        if not items:
            nf_ok = False
            break
        if len({u for u, _ in items}) != 1:
            nf_ok = False
            break

    th = ThetaResult(theta, theta_u, theta_u1, stab, values, nf_ok,
                     description_ok)
    if sd is act.sd:
        act.th = th
    return th


def quotient_matches_product(ctx: AmbientContext, sd: SemidirectResult,
                             th: ThetaResult) -> bool:
    """quotient(U x S, theta) is isomorphic to the product set US via us."""
    q = quotient(sd.table, th.theta)
    classes = th.theta.classes()
    to_value = {i: th.product_values[c[0]] for i, c in enumerate(classes)}
    if len(set(to_value.values())) != q.size:
        return False
    if set(to_value.values()) != set(ctx.product_set()):
        return False
    m = ctx.m
    for a in range(q.size):
        for k, g in enumerate(q.gens):
            if to_value[q.right[a][k]] != m.mul(to_value[a], to_value[g]):
                return False
    return True


# ---------------------------------------------------------------------------
# Congruence generating rules
# ---------------------------------------------------------------------------

# Per rule: whether U and S must be submonoids, whether the pair must be
# strong, the per-element data whose generators are supplied (theta: omega_u
# generates each theta_u as a right congruence on S; stab: gamma_u generates
# each stabilizer as a group; None: all of each theta_u is taken), and the
# reduction of U to a family V (family: each value is the join of those at
# its V-divisors; pairwise: U is commutative and generated by V, and values
# join pairwise).  Theta data over all of U closes on the right only and
# needs a one-sided identity condition; every other rule closes two-sided.
_OMEGA_TABLE = {
    "generic": (False, False, None, None),
    "submonoids": (True, False, None, None),
    "right_generators": (False, True, "theta", None),
    "join_family": (True, True, "theta", "family"),
    "join_pairwise": (True, True, "theta", "pairwise"),
    "group_generators": (True, False, "stab", None),
    "group_join_family": (True, False, "stab", "family"),
    "group_join_pairwise": (True, False, "stab", "pairwise"),
}
OMEGA_RULES = tuple(_OMEGA_TABLE)


@dataclass
class OmegaResult:
    rule: str
    hypotheses_ok: bool
    failures: list
    partition: Optional[CongruencePartition]
    matches_theta: Optional[bool]


def _pairs_for(part: CongruencePartition) -> list:
    return [(cls[0], s) for cls in part.classes() for s in cls[1:]]


def _join(members: Sequence, parts: Iterable[CongruencePartition]
          ) -> CongruencePartition:
    out = CongruencePartition(members)
    for p in parts:
        for a, b in _pairs_for(p):
            out.union(a, b)
    return out


def _s_successors(ctx: AmbientContext, members: Sequence):
    """Per member, its right multiples by the generators of S, as the
    successor function of a right congruence."""
    m = ctx.m
    gens = ctx.gens("S")
    return {s: [m.mul(s, g) for g in gens] for s in members}.__getitem__


def _pairwise_join_failure(m: CayleyTable, ulist: Sequence, value, join):
    """The first (a, b) in U x U with join(value[a], value[b]) != value[ab]."""
    for a in ulist:
        for b in ulist:
            if join((value[a], value[b])) != value[m.mul(a, b)]:
                return a, b
    return None


def _family_join_failure(m: CayleyTable, u1: Sequence, v_subset: Sequence,
                         targets: Iterable, value, join):
    """The first target u where the join of value[v] over the members v of V
    dividing u on the left (u = wv for some w in U1) is not value[u]."""
    multiples = {v: {m.mul(w, v) for w in u1} for v in v_subset}
    for u in targets:
        if join([value[v] for v in v_subset if u in multiples[v]]) != value[u]:
            return u
    return None


def omega_check(ctx: AmbientContext, act: ActionTable, sd: SemidirectResult,
                th: ThetaResult, rule: str, *, omega_u: Optional[dict] = None,
                v_subset: Optional[Sequence] = None,
                gamma_u: Optional[dict] = None) -> OmegaResult:
    """Build a generating set for theta by the selected rule, verify the
    hypotheses its `_OMEGA_TABLE` entry names first, close it and compare
    with theta exactly.

    omega_u: per-element generating pairs for the right congruences on S
    (defaults to all their pairs); v_subset: the reduction family V;
    gamma_u: group generating sets for the stabilizers (defaults to the
    stabilizers).  Supplied data outside the pair fails the hypotheses.  The
    pair verdicts are read from the action's report.
    """
    if rule not in _OMEGA_TABLE:
        raise ValueError(f"unknown rule {rule!r}")
    units, strong, data, reduction = _OMEGA_TABLE[rule]
    m = ctx.m
    ident = ctx.identity
    ulist = ctx.u_list()
    slist = ctx.s_list()
    failures: list = []

    rep = act.pair_report()
    if not rep.action:
        failures.append("not an action pair")
    if units and not (ident in ctx.u_set and ident in ctx.s_set):
        failures.append("U and S must be submonoids")
    if strong and not rep.strong:
        failures.append("pair is not strong")
    if data == "theta" and reduction is None and \
            not any(_classified(ctx, act).w_conditions):
        failures.append("no one-sided identity condition holds")
    if reduction and (v_subset is None or not set(v_subset) <= ctx.u_set):
        failures.append(f"{rule} needs a family V inside U")

    # per element, pairs (a, b) of S: related by theta_u, or a = 1 and b generates
    if data == "stab":
        if not all(any(m.mul(s, t) == ident == m.mul(t, s) for t in slist)
                   for s in slist):
            failures.append("S is not a group")
        if gamma_u is None:
            gamma_u = {u: sorted(th.stab[u] - {ident}) for u in ulist}
        gen_pairs = {u: [(ident, s) for s in gs] for u, gs in gamma_u.items()}
    elif data == "theta" and omega_u is not None:
        gen_pairs = omega_u
    else:
        gen_pairs = {u: _pairs_for(th.theta_u[u]) for u in ulist}
    if not failures and not all(a in ctx.s_set and b in ctx.s_set
                                for ps in gen_pairs.values() for a, b in ps):
        failures.append("supplied generators lie outside S")
    if failures:
        return OmegaResult(rule, False, failures, None, None)

    if data == "theta":
        value = th.theta_u
        succ = _s_successors(ctx, slist)

        def span(pairs):
            return CongruencePartition(slist).close(pairs, succ)

        def join(parts):
            return _join(slist, parts)
    elif data == "stab":
        value = {u: th.stab[u] | {ident} for u in ulist}

        def span(pairs):
            # S is finite, so the monoid its members generate is a subgroup
            gens = [s for _, s in pairs]
            return frozenset(right_orbit([ident], lambda a: [m.mul(a, g) for g in gens]))

        def join(parts):
            return span([(ident, s) for p in parts for s in p])

    pool = ulist if reduction is None else v_subset
    if reduction == "family":
        bad = _family_join_failure(m, ctx.u1(), v_subset, ulist, value, join)
        if bad is not None:
            failures.append(f"join reduction fails at u={bad}")
    elif reduction == "pairwise":
        if any(m.mul(a, b) != m.mul(b, a) for a in ulist for b in ulist):
            failures.append("U is not commutative")
        bad = _pairwise_join_failure(m, ulist, value, join)
        if bad is not None:
            failures.append(f"pairwise join fails at ({bad[0]},{bad[1]})")
        if frozenset(right_orbit([ident], lambda a: [m.mul(a, v) for v in v_subset])) \
                != ctx.u_set:
            failures.append("V does not generate U as a monoid")
    if data is not None:
        bad = next((u for u in pool if span(gen_pairs.get(u, ())) != value[u]), None)
        if bad is not None:
            failures.append(f"the supplied generators miss at u={bad}")
    if failures:
        return OmegaResult(rule, False, failures, None, None)

    # without per-element data every theta_u is taken whole, together with
    # (u, s) ~ (u s+, s), or with (1, s) ~ (s+, s) when U and S are submonoids
    pairs = [(sd.id_of(v, a), sd.id_of(v, b))
             for v in pool for a, b in gen_pairs.get(v, ())]
    if data is None and not units:
        pairs += [(sd.id_of(u, s), sd.id_of(m.mul(u, act.splus(s)), s))
                  for u in ulist for s in slist]
    elif data is None:
        pairs += [(sd.id_of(ident, s), sd.id_of(act.splus(s), s)) for s in slist]
    side = "right" if data == "theta" and reduction is None else "two_sided"
    part = congruence_closure(sd.table, pairs, side)
    return OmegaResult(rule, True, [], part, part == th.theta)


# ---------------------------------------------------------------------------
# Special congruences
# ---------------------------------------------------------------------------

@dataclass
class SpecialReport:
    congruence_ok: bool
    axioms: list
    failures: list

    @property
    def special(self) -> bool:
        return self.congruence_ok and all(self.axioms)


def check_special_congruence(ctx: AmbientContext, act: ActionTable,
                             sd: SemidirectResult,
                             sigma: CongruencePartition) -> SpecialReport:
    """Verify the eight axioms singling out the congruences on a semidirect
    product whose quotients arise from action pairs.  The relation at the
    tuple identity is read off sigma when U is a monoid and taken to be
    trivial otherwise.

    Write s ~u t when (u, s) sigma (u, t).  Axioms 5-8 quantify over the
    certified generators (`AmbientContext.gens`) where an induction on word
    length shows generators suffice:

    - Axiom 5 (~u is a right congruence), with the right factor over the
      generators of S: sx ~u tx follows for x = x'g from sx' ~u tx'.
    - Axiom 6 (~u within ~wu), with w over the generators of U: for
      w = gw', ~u lies within ~w'u, which lies within ~gw'u.
    - Axiom 7 (s ~u t gives xs ~x>u xt), with x over the generators of S:
      the action composes.  For x = gx', x's ~x'>u x't by induction; where
      x'>u lies in U the generator case at x'>u gives gx's ~g>(x'>u) gx't,
      and g>(x'>u) = x>u.  Where x'>u is an identity outside U, ~ is
      trivial there, so x's = x't and xs = xt.
    - Axiom 8 (s ~u t gives u(s>w) = u(t>w), related at that value), with
      w over the generators of U: each s acts by a morphism.  For w = gw',
      s>w = (s>g)(s>w'); the generator case gives u(s>g) = u(t>g) = u' in U
      with s ~u' t, and the case w' at u' finishes.
    """
    _require_laws(act, "check_special_congruence")
    m = ctx.m
    ident = ctx.identity
    ulist = ctx.u_list()
    slist = ctx.s_list()
    fails: list = []

    cong_ok = is_compatible(sd.table, sigma, "two_sided")
    if not cong_ok:
        fails.append("input relation is not a two-sided congruence")

    ugen = ctx.gens("U")
    sgen = ctx.gens("S")

    # per u in U1, s -> the sigma class of (u, s), so that s ~u t iff the
    # two values agree; at the identity outside U each s is its own value
    sig = {u: {s: s for s in slist} if u == ident and ident not in ctx.u_set
           else {s: sigma.find(sd.id_of(u, s)) for s in slist}
           for u in set(ulist) | {ident}}
    # per u in U, the pairs (first member of its class, s) spanning ~u
    links: dict = {}
    for u in ulist:
        first: dict = {}
        links[u] = [(first[r], s) for s, r in sig[u].items()
                    if first.setdefault(r, s) != s]
    axioms = []

    ax1 = all(sigma.same(sd.id_of(u, s), sd.id_of(m.mul(u, act.splus(s)), s))
              for u in ulist for s in slist)
    axioms.append(ax1)

    ax2 = True
    roots: dict = {}
    for s in slist:
        sp = act.splus(s)
        if sp == ident and ident not in ctx.u_set:
            continue
        r = sigma.find(sd.id_of(sp, s))
        if r in roots:
            ax2 = False
            fails.append(f"projection sections collide: {roots[r]} vs {s}")
            break
        roots[r] = s
    axioms.append(ax2)

    proj = [m.mul(u, act.splus(s)) for u, s in sd.table.elements]
    axioms.append(all(proj[i] == proj[cls[0]]
                      for cls in sigma.classes() for i in cls[1:]))

    axioms.append(len(set(sig[ident].values())) == len(slist))

    axioms.append(all(r[m.mul(a, g)] == r[m.mul(b, g)]
                      for u in ulist for r in (sig[u],)
                      for a, b in links[u] for g in sgen))

    axioms.append(all(r[a] == r[b] for u in ulist for w in ugen
                      for r in (sig[m.mul(w, u)],) for a, b in links[u]))

    axioms.append(all(r[m.mul(x, a)] == r[m.mul(x, b)] for u in ulist
                      for x in sgen for r in (sig[act(x, u)],)
                      for a, b in links[u]))

    def twisted_ok(u, w):
        for a, b in links[u]:
            ref = m.mul(u, act(a, w))
            if m.mul(u, act(b, w)) != ref or sig[ref][a] != sig[ref][b]:
                return False
        return True

    axioms.append(all(twisted_ok(u, w) for u in ulist for w in ugen))

    for i, ok in enumerate(axioms):
        if not ok and not fails:
            fails.append(f"axiom {i + 1} ({SPECIAL_AXIOM_NAMES[i]}) fails")
    return SpecialReport(cong_ok, axioms, fails)


# ---------------------------------------------------------------------------
# Proper covers
# ---------------------------------------------------------------------------

@dataclass
class CoverResult:
    cover_table: CayleyTable             # the carrier monoid, payload (u, s)
    cover_ctx: AmbientContext
    cover_report: PairReport
    sigma_trivial: bool
    proper: bool
    psi: dict                            # cover product-set id -> ambient id
    surjective: bool
    u_copy_ok: bool
    s_copy_ok: bool
    psi_u_iso: Optional[bool]
    left_restriction_ok: Optional[bool] = None
    projection_separating: Optional[bool] = None
    unary_preserved: Optional[bool] = None


def proper_cover(ctx: AmbientContext, act: ActionTable, *,
                 ambient_plus: Optional[dict] = None) -> CoverResult:
    """Build the cover pair from sections (u, 1) and (s+, s) inside the
    monoid of pairs with u = u s+, and verify the covering morphism
    (u, s) -> us onto the original product set.

    When ambient_plus gives a left-restriction structure on the ambient
    product set (the projection case U = all s+), the carrier is also
    checked to be left restriction under (u, s)+ = (u, 1), with the
    covering morphism separating projections and preserving the unary
    operation.

    The carrier is generated by the members that `greedy_generators` keeps
    in shortlex order of their ambient normal forms.  Its m x m table is
    built up to FULL_TABLE_CAP elements, since the cover pair is
    classified with the carrier as its ambient.
    """
    _require_laws(act, "proper_cover")
    m = ctx.m
    ident = ctx.identity
    u1 = ctx.u1()
    s1 = ctx.s1()

    members = {(u, s) for u in u1 for s in s1 if u == m.mul(u, act.splus(s))}
    carrier = _pair_closure(ctx, act, (c for c in _shortlex_pairs(m, u1, s1)
                                       if c in members),
                            (ident, ident), len(members), "cover")
    if carrier.size <= FULL_TABLE_CAP:
        carrier.full_table()
    cid = carrier.index

    under = {u: cid[(u, ident)] for u in ctx.u_list()}
    over = {s: cid[(act.splus(s), s)] for s in ctx.s_list()}

    u_copy_ok = all(carrier.mul(under[a], under[b]) == under[m.mul(a, b)]
                    for a in ctx.u_list() for b in ctx.u_list())
    s_copy_ok = all(carrier.mul(over[a], over[b]) == over[m.mul(a, b)]
                    for a in ctx.s_list() for b in ctx.s_list())

    cover_plus = {over[s]: (cid[(act.splus(s), ident)]
                            if act.splus(s) != ident else carrier.identity)
                  for s in ctx.s_list()}
    cover_ctx = AmbientContext(carrier,
                               frozenset(under.values()),
                               frozenset(over.values()),
                               cover_plus,
                               name=f"cover({ctx.name})")
    rep, cover_act = check_pair_from_plus(cover_ctx)
    classify_proper(cover_ctx, cover_act, rep)

    prod_ids = sorted({carrier.mul(under[u], over[s])
                       for u in ctx.u_list() for s in ctx.s_list()})
    psi = {i: m.mul(*carrier.elements[i]) for i in prod_ids}
    target = ctx.product_set()
    surjective = set(psi.values()) == set(target)

    psi_u_iso = None
    if ident in ctx.s_set:
        psi_u_iso = len({psi[under[u]] for u in ctx.u_list()}) == len(ctx.u_set) \
            and all(psi[under[u]] == u for u in ctx.u_list())

    result = CoverResult(carrier, cover_ctx, rep,
                         rep.sigma.is_trivial() if rep.sigma else False,
                         bool(rep.proper), psi, surjective, u_copy_ok,
                         s_copy_ok, psi_u_iso)

    if ambient_plus is not None:
        # carrier unary operation (u, s)+ = (u, 1) on the cover product set
        cset = prod_ids
        cplus = {i: cid[(carrier.elements[i][0], ident)] for i in cset}
        result.left_restriction_ok = _left_restriction_laws(
            carrier, cset, cplus)
        projections = {cplus[i] for i in cset}
        result.projection_separating = len({psi.get(p, m.mul(*carrier.elements[p]))
                                            for p in projections}) == len(projections)
        result.unary_preserved = all(
            m.mul(*carrier.elements[cplus[i]]) == ambient_plus[psi[i]]
            for i in cset)
    return result


def _left_restriction_laws(table: CayleyTable, carrier: Iterable[int],
                           plus_of: dict) -> bool:
    """The four defining unary-semigroup identities on the carrier P, with
    x+ = plus_of[x], scanned exhaustively.

    Each identity is scanned over only the variables it reads, so the
    equations are those of the literal scan of every identity over P x P:

    - x+x = x over P;
    - x+y+ = y+x+ over pairs of projections x+, y+;
    - (x+y)+ = x+y+ over projections x+ and y in P;
    - xy+ = (xy)+x over P x P.

    A product outside P has no x+, so it fails the identity that reads it.
    Products are read from the table's rows.
    """
    els = sorted(carrier)
    if table.size <= FULL_TABLE_CAP:
        rows = table.full_table()
    else:
        rows = {x: [table.mul(x, y) for y in range(table.size)]
                for x in set(els) | set(plus_of.values())}
    plus = plus_of.get
    if any(rows[plus_of[x]][x] != x for x in els):
        return False
    projections = sorted({plus_of[x] for x in els})
    if any(rows[p][q] != rows[q][p] for p in projections for q in projections):
        return False
    if any(plus(rows[p][y]) != rows[p][plus_of[y]]
           for p in projections for y in els):
        return False
    for x in els:
        row = rows[x]
        for y in els:
            xy = plus(row[y])
            if xy is None or row[plus_of[y]] != rows[xy][x]:
                return False
    return True


# ---------------------------------------------------------------------------
# Central embedding
# ---------------------------------------------------------------------------

EMBED_US_CAP = 10 ** 4      # largest product set embed_central checks
EMBED_CLASS_CAP = 64        # most sigma classes embed_central checks


@dataclass
class EmbedResult:
    hypotheses_ok: bool
    failures: list
    well_defined: Optional[bool] = None
    injective: Optional[bool] = None
    homomorphic: Optional[bool] = None
    u_embedding_injective: Optional[bool] = None
    values_semilattice: Optional[bool] = None
    us_size: Optional[int] = None
    sigma_class_count: Optional[int] = None

    @property
    def ok(self) -> bool:
        return bool(self.hypotheses_ok and self.well_defined and
                    self.injective and self.homomorphic)


def embed_central(ctx: AmbientContext, act: ActionTable) -> EmbedResult:
    """Embed the product monoid into a semidirect product over S modulo sigma,
    with first components the maps class -> V P built from the action orbit
    sets, assuming the projections generate a central submonoid of U.

    The codomain is never materialized: well-definedness, injectivity and
    the homomorphism law are checked pointwise on the product set.  The
    properness verdict is read from the action's report.
    """
    _require_laws(act, "embed_central")
    m = ctx.m
    ident = ctx.identity
    failures: list = []

    rep = _classified(ctx, act)
    if not rep.proper:
        failures.append("pair is not proper")
    if ident not in ctx.u_set or ident not in ctx.s_set:
        failures.append("U and S must be submonoids")
    p_set = rep.p_set
    p1 = sorted(p_set | {ident})
    if not all(m.mul(p, u) == m.mul(u, p) for p in p1 for u in ctx.u_list()):
        failures.append("projections are not central in U")

    us = sorted(ctx.product_set())
    if len(us) > EMBED_US_CAP:
        failures.append(f"product set too large: {len(us)}")
    sigma = rep.sigma
    classes = sigma.classes()
    if len(classes) > EMBED_CLASS_CAP:
        failures.append(f"too many sigma classes: {len(classes)}")
    if failures:
        return EmbedResult(False, failures)

    class_of = {s: i for i, cls in enumerate(classes) for s in cls}
    reps = [cls[0] for cls in classes]
    cls_mul = [[class_of[m.mul(a, b)] for b in reps] for a in reps]

    def value(cls_idx, u) -> frozenset:
        orbit = {act(t, u) for t in classes[cls_idx]}
        return frozenset(m.mul(v, p) for v in orbit for p in p1)

    f_of = {u: tuple(value(i, u) for i in range(len(classes)))
            for u in ctx.u_list()}

    u_embedding_injective = len(set(f_of.values())) == len(ctx.u_set)

    # natural factorisations per product element
    nf: dict = {}
    for u in ctx.u_list():
        for s in ctx.s_list():
            if m.mul(u, act.splus(s)) == u:
                nf.setdefault(m.mul(u, s), []).append((u, s))
    well_defined = True
    psi = {}
    for a in us:
        items = nf.get(a, [])
        if not items:
            well_defined = False
            break
        images = {(f_of[u], class_of[s]) for u, s in items}
        if len(images) != 1:
            well_defined = False
            break
        psi[a] = next(iter(images))
    injective = well_defined and len(set(psi.values())) == len(us)

    homomorphic = well_defined
    if well_defined:
        for a in us:
            fa, ca = psi[a]
            for b in us:
                fb, cb = psi[b]
                shifted = tuple(fb[cls_mul[i][ca]] for i in range(len(classes)))
                star = tuple(frozenset(m.mul(x, y) for x in fa[i] for y in shifted[i])
                             for i in range(len(classes)))
                if psi[m.mul(a, b)] != (star, cls_mul[ca][cb]):
                    homomorphic = False
                    break
            if not homomorphic:
                break

    values_semilattice = None
    if ctx.u_set == p_set or ctx.u_set | {ident} == frozenset(p1):
        # the semigroup the values generate under the set product, which is
        # their right orbit under themselves
        gens = list({v for f in f_of.values() for v in f})
        pool = right_orbit(gens, lambda a: [frozenset(m.mul(x, y) for x in a for y in b)
                                            for b in gens])
        values_semilattice = all(
            frozenset(m.mul(x, y) for x in a for y in a) == a for a in pool) and all(
            frozenset(m.mul(x, y) for x in a for y in b) ==
            frozenset(m.mul(y, x) for x in a for y in b)
            for a in pool for b in pool)

    return EmbedResult(True, [], well_defined, injective, homomorphic,
                       u_embedding_injective, values_semilattice,
                       len(us), len(classes))


# ---------------------------------------------------------------------------
# Pair construction helpers
# ---------------------------------------------------------------------------

def lr_pair(table: CayleyTable, plus_of: dict, *,
            name: str = "") -> AmbientContext:
    """The (projections, everything) pair of a left restriction monoid."""
    projections = frozenset(plus_of[x] for x in range(table.size))
    return AmbientContext(table, projections,
                          frozenset(range(table.size)),
                          {s: plus_of[s] for s in range(table.size)},
                          name=name or "projection-pair")
