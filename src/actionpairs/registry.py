"""Built-in tables, ambient wreath products and the pair catalogue.

The catalogue names mirror the standard transformation families: an ambient
is always a wreath product of a base monoid with all partial maps of a given
degree (the base defaulting to the trivial monoid, in which case the ambient
is the partial transformation monoid itself).  Every subset kind resolves to
a family of `ptrans.family`, either as the wreath subproduct over it or as its
embedded copy; each catalogue row names the family whose subproduct is its
product set.  Custom algebra files load through `indalg.builtin_algebra`.

One cache lives here: `ambient_wreath` keeps the ambient of a built-in base
name, keyed by that name and the degree.  A base given as a .json path is
read and validated on every call, so a rewritten file is never served from
an earlier read.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from . import ptrans, wreath
from .actionpair import ActionTable, AmbientContext
from .fmonoid import FULL_TABLE_CAP, CayleyTable, table_from_elements

BASE_MONOIDS = ("c1", "c2", "c3", "sl2")

# name -> (order, product) over the elements 0..order-1, identity 0
_BUILTIN = {"c1": (1, lambda a, b: 0), "c2": (2, lambda a, b: (a + b) % 2),
            "c3": (3, lambda a, b: (a + b) % 3), "sl2": (2, max)}


def monoid_table(name: str) -> CayleyTable:
    """Built-in base monoids: cyclic groups of order 1..3 and the two-element
    semilattice, with their m x m tables built (a wreath product multiplies
    by them at every coordinate).  A path to a serialized CayleyTable is
    also accepted."""
    key = {"trivial": "c1", "1": "c1"}.get(name.lower(), name.lower())
    if key in _BUILTIN:
        order, product = _BUILTIN[key]
        t = table_from_elements(list(range(order)), product, identity=0)
        t.full_table()
        return t
    if name.endswith(".json"):
        with open(name) as fh:
            return CayleyTable.from_json(fh.read())
    raise KeyError(f"unknown monoid {name!r} (choose from {BASE_MONOIDS} or a .json path)")


def ptrans_table(kind: str, n: int) -> CayleyTable:
    """Cayley table of a transformation family, payload PartialMap objects,
    numbered by `table_from_elements` over the family's standard generators,
    or over the elements that the ones before them do not generate when it
    has none (SingI, SingE, PTminusT)."""
    elems = ptrans.family(kind, n)
    ident = ptrans.identity(n)
    return table_from_elements(elems, ptrans.compose, gens=ptrans.family_gens(kind, n),
                               identity=ident if ident in set(elems) else None)


def _ambient(base_name: str, n: int) -> CayleyTable:
    t = wreath.enumerate_wreath(monoid_table(base_name), "PT", n)
    if t.size <= FULL_TABLE_CAP:
        t.full_table()
    return t


_builtin_ambient = lru_cache(maxsize=None)(_ambient)


def ambient_wreath(base_name: str, n: int) -> CayleyTable:
    """The wreath product of a base monoid with all partial maps of degree n,
    with its m x m table built up to FULL_TABLE_CAP elements (the pair
    stages multiply ambient elements throughout).  Cached for a built-in
    base name; a .json path is read again on every call."""
    return (_ambient if base_name.endswith(".json") else _builtin_ambient)(base_name, n)


def ambient_plus_map(amb: CayleyTable) -> dict:
    """The left-restriction unary operation of a wreath ambient: the embedded
    partial identity on the domain of the map part."""
    return {i: amb.index[wreath.wr_plus(w)] for i, w in enumerate(amb.elements)}


# the pair kinds that name a family subset; M0n, the tuples with a zero, is
# the subproduct over the partial identities
_PAIR_KINDS = {"E": "pmap:E", "SingE": "pmap:SingE", "M0n": "E"}


def subset_ids(amb: CayleyTable, kind: str, n: int) -> frozenset:
    """Element ids of a named subset of a wreath ambient.

    A kind K of `ptrans.family` selects the wreath subproduct over that
    family; the prefix "pmap:" selects the embedded copy of the family itself
    (indicator tuple over the domain).  The pair kinds E, SingE and M0n
    resolve to one of these, and Mn selects the tuples over the identity."""
    if kind == "Mn":
        ident = ptrans.identity(n)
        return frozenset(i for i, w in enumerate(amb.elements) if w.pmap == ident)
    name = _PAIR_KINDS.get(kind, kind)
    fam = name.removeprefix("pmap:")
    if fam not in ptrans.FAMILY_KINDS:
        raise KeyError(f"unknown subset kind {kind!r}")
    maps = ptrans.family(fam, n)
    if fam != name:
        base = amb.elements[0].tup.base
        return frozenset(amb.index[wreath.embed_pmap(base, a)] for a in maps)
    maps = set(maps)
    return frozenset(i for i, w in enumerate(amb.elements) if w.pmap in maps)


def make_pair(amb: CayleyTable, u_kind: str, s_kind: str, n: int, *,
              name: str = "") -> AmbientContext:
    """A catalogue pair inside a wreath ambient; the projection data is the
    ambient unary operation restricted to S.

    Semilattice-type pairs (E, SingE) act on wreath subproducts over total
    families; tuple-type pairs (M0n, Mn) act on embedded copies of the
    transformation families themselves."""
    u_ids = subset_ids(amb, u_kind, n)
    if u_kind in ("E", "SingE"):
        if s_kind in ("PT", "I", "SingPT", "SingI"):
            raise ValueError(f"semilattice pairs need total families, got {s_kind}")
        s_ids = subset_ids(amb, s_kind, n)
    else:
        s_ids = subset_ids(amb, f"pmap:{s_kind}", n)
    plus = {s: amb.index[wreath.wr_plus(amb.elements[s])] for s in s_ids}
    return AmbientContext(amb, u_ids, s_ids, plus,
                          name=name or f"({u_kind},{s_kind}) n={n}")


# ---------------------------------------------------------------------------
# The catalogue of pairs for a given degree and base monoid
# ---------------------------------------------------------------------------

# (U kind, S wreath kind, expected strong, expected proper, congruence rule,
#  the family whose wreath subproduct is the product set US)
CATALOGUE = (
    # semilattice-against-wreath pairs: all strong, none proper
    ("E", "T", True, False, "join_pairwise", "PT"),
    ("SingE", "T", True, False, "right_generators", "PTminusT"),
    ("E", "SingT", True, False, "right_generators", "SingPT"),
    ("SingE", "SingT", True, False, "right_generators", "PTminusT"),
    ("E", "G", True, False, "join_family", "I"),
    ("SingE", "G", True, False, "right_generators", "SingI"),
    # tuple-against-maps pairs
    ("M0n", "PT", False, False, "submonoids", "PT"),
    ("M0n", "I", False, False, "submonoids", "I"),
    ("M0n", "T", True, False, "join_family", "PT"),
    ("M0n", "G", True, False, "group_join_family", "I"),
    ("Mn", "T", True, True, "right_generators", "T"),
    ("Mn", "G", True, True, "right_generators", "G"),
    ("M0n", "SingPT", False, False, "generic", "SingPT"),
    ("M0n", "SingI", False, False, "generic", "SingI"),
    ("M0n", "SingT", True, False, "right_generators", "SingPT"),
    ("Mn", "SingT", True, True, "right_generators", "SingT"),
)


U_KINDS = tuple(dict.fromkeys(row[0] for row in CATALOGUE))
S_KINDS = tuple(dict.fromkeys(row[1] for row in CATALOGUE))


def catalogue_specs(n: int) -> list:
    out = []
    for u_kind, s_kind, strong, proper, rule, _ in CATALOGUE:
        if n < 2 and s_kind.startswith("Sing"):
            continue
        out.append({"u": u_kind, "s": s_kind, "strong": strong,
                    "proper": proper, "rule": rule})
    return out


def catalogue_pair(base_name: str, n: int, u_kind: str, s_kind: str) -> AmbientContext:
    amb = ambient_wreath(base_name, n)
    return make_pair(amb, u_kind, s_kind, n,
                     name=f"({u_kind},{s_kind}) base={base_name} n={n}")


def expected_product_kind(u_kind: str, s_kind: str) -> str:
    """The family whose wreath subproduct each catalogue pair's product set
    must equal."""
    return {row[:2]: row[5] for row in CATALOGUE}[(u_kind, s_kind)]


def omega_inputs(ctx: AmbientContext, act: ActionTable, rule: str,
                 u_kind: str, s_kind: str, n: int) -> dict:
    """Default inputs for the congruence generating rules, per catalogue pair:
    corank-one partial identities as the reduction family, single idempotent
    pairs or transpositions as the per-element generators."""
    amb = ctx.m
    base = amb.elements[0].tup.base
    idx = amb.index
    pts = set(range(1, n + 1))
    ident = ctx.identity

    def emb(pm):
        return idx[wreath.embed_pmap(base, pm)]

    out: dict = {}
    if rule in ("join_family", "join_pairwise") and u_kind in ("E", "M0n"):
        vs, om = [], {}
        for i in range(1, n + 1):
            v = emb(ptrans.id_on(pts - {i}, n))
            vs.append(v)
            if s_kind == "G":
                om[v] = [(idx[wreath.embed_tuple(
                              wreath.unit_tuple(base, n, i, g))], ident)
                         for g in base.gens if g != base.identity]
            elif pts - {i}:
                om[v] = [(emb(ptrans.eps(min(pts - {i}), i, n)), ident)]
            else:
                # degree one: the fibre over the empty set identifies
                # everything, so relate every generator to the identity
                om[v] = [(s, ident) for s in ctx.gens("S")]
        if s_kind == "G":
            for i, j in itertools.combinations(sorted(pts), 2):
                v = emb(ptrans.id_on(pts - {i, j}, n))
                vs.append(v)
                om[v] = [(emb(ptrans.tau(i, j, n)), ident)] + \
                        [(idx[wreath.embed_tuple(wreath.unit_tuple(base, n, k, g))],
                          ident)
                         for k in (i, j) for g in base.gens if g != base.identity]
        out["v_subset"] = vs
        out["omega_u"] = om
    elif rule == "group_join_family":
        vs, gam = [], {}
        for i, j in itertools.combinations(sorted(pts), 2):
            v = emb(ptrans.id_on(pts - {i, j}, n))
            vs.append(v)
            gam[v] = [emb(ptrans.tau(i, j, n))]
        out["v_subset"] = vs
        out["gamma_u"] = gam
    return out

