"""Builders for the catalogue of concrete presentations, each paired with
machine verification against an enumerated target.

Every builder returns a PresentationBundle: the presentation, the target
table (ground truth by direct enumeration; absent for the free-monoid
truncations, which are checked inside the model instead), and the letter
map realizing the generators.

The pair builders (`lavers`, `local_monoid_pres`, `general_pair_pres` and
`us_sd_pres`) present the products of an action pair from lettered
presentations of its parts.  The first three share one relation list
(`_pair_letters`) and one hypothesis check (`_require`), and
`general_pair_pres` reads every per-kind choice from `_PAIR_KIND_TABLE`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from . import freelrm, ptrans, wreath
from .actionpair import (ActionTable, AmbientContext, HypothesisFailed,
                         _element_data_failures, _pairs_for, _partition_by,
                         semidirect, theta_and_friends)
from .fmonoid import (CayleyTable, Presentation, VerificationReport, Word,
                      congruence_closure, evaluate, right_orbit, subtable,
                      table_from_elements, table_presentation,
                      verify_presentation)
from .indalg import lattice
from .registry import ptrans_table


@dataclass
class PresentationBundle:
    pres: Presentation
    target: Optional[CayleyTable]
    gen_map: Optional[tuple]
    provenance: str
    expected_verify: bool = True
    notes: dict = field(default_factory=dict)

    def verify(self, *, node_cap: Optional[int] = None) -> VerificationReport:
        if self.target is None:
            raise ValueError(f"{self.provenance}: no finite target to verify against")
        return verify_presentation(self.pres, self.target, self.gen_map,
                                   node_cap=node_cap)

    def relations_hold_in(self, letter_values: Sequence, product: Callable,
                          identity=None) -> bool:
        """Evaluate every relation in an external model (used for the
        free-monoid truncations, whose targets are infinite)."""
        return all(evaluate(u, letter_values, product, identity) ==
                   evaluate(v, letter_values, product, identity)
                   for u, v in self.pres.relations)


def delete_letters(pres: Presentation, drop: Sequence[str]) -> Presentation:
    """Remove letters and every relation mentioning them, renumbering."""
    dropset = {pres.letter(name) for name in drop}
    keep = [i for i in range(len(pres.alphabet)) if i not in dropset]
    remap = {old: new for new, old in enumerate(keep)}
    rels = [(tuple(remap[i] for i in u), tuple(remap[i] for i in v))
            for u, v in pres.relations
            if not (set(u) | set(v)) & dropset]
    return Presentation.make([pres.alphabet[i] for i in keep], rels, pres.kind)


# ---------------------------------------------------------------------------
# Transformation families
# ---------------------------------------------------------------------------

def _en(n: int) -> PresentationBundle:
    names = [f"t{i}" for i in range(1, n + 1)]
    rels = [((i, i), (i,)) for i in range(n)]
    rels += [((i, j), (j, i)) for i in range(n) for j in range(n)]
    pres = Presentation.make(names, rels, "monoid")
    target = ptrans_table("E", n)
    idx = target.index
    pts = set(range(1, n + 1))
    gen_map = tuple(idx[ptrans.id_on(pts - {i}, n)] for i in range(1, n + 1))
    return PresentationBundle(pres, target, gen_map, f"En(n={n})")


def _gn(n: int) -> PresentationBundle:
    if n < 2:
        raise ValueError("the symmetric presentation needs n >= 2")
    names = [f"s{i}" for i in range(1, n)]
    pres = Presentation.make(names, _gn_relations(n), "monoid")
    target = ptrans_table("G", n)
    gen_map = tuple(target.index[g] for g in ptrans.family_gens("G", n))
    return PresentationBundle(pres, target, gen_map, f"Gn(n={n})")


def _gn_relations(n: int):
    """Coxeter relations of the symmetric group over the letters s1..s(n-1)."""
    R = [((i, i), ()) for i in range(n - 1)]
    for i in range(n - 1):
        for j in range(i + 1, n - 1):
            if j - i > 1:
                R.append(((i, j), (j, i)))
            else:
                R.append(((i, j, i), (j, i, j)))
    return R


def _tn_letters(n: int):
    names = [f"s{i}" for i in range(1, n)] + [f"l{i}" for i in range(1, n)] + \
            [f"r{i}" for i in range(1, n)]
    s = lambda i: i - 1
    l = lambda i: (n - 1) + i - 1
    r = lambda i: 2 * (n - 1) + i - 1
    return names, s, l, r


def _tn_relations(n: int):
    _, s, l, r = _tn_letters(n)
    R = []
    for i in range(1, n):
        R.append(((s(i), s(i)), ()))
        R += [((l(i),), (l(i), l(i))), ((l(i),), (r(i), l(i))),
              ((l(i),), (s(i), l(i))), ((l(i),), (r(i), s(i)))]
        R += [((r(i),), (r(i), r(i))), ((r(i),), (l(i), r(i))),
              ((r(i),), (s(i), r(i))), ((r(i),), (l(i), s(i)))]
    for i in range(1, n - 1):
        R.append(((l(i), l(i + 1)), (l(i), s(i + 1))))
        R.append(((r(i + 1), r(i)), (r(i + 1), s(i))))
        R.append(((l(i), r(i + 1)), (l(i),)))
        R.append(((r(i + 1), l(i)), (r(i + 1),)))
        R.append(((l(i + 1), l(i)), (l(i), l(i + 1), l(i))))
        R.append(((l(i + 1), l(i)), (l(i + 1), l(i), l(i + 1))))
        R.append(((r(i), r(i + 1)), (r(i), r(i + 1), r(i))))
        R.append(((r(i), r(i + 1)), (r(i + 1), r(i), r(i + 1))))
        R.append(((l(i + 1), s(i)), (s(i), s(i + 1), l(i), l(i + 1))))
        R.append(((r(i), s(i + 1)), (s(i + 1), s(i), r(i + 1), r(i))))
    for i in range(1, n):
        for j in range(1, n):
            if abs(i - j) > 1:
                R.append(((s(i), s(j)), (s(j), s(i))))
                R.append(((l(i), l(j)), (l(j), l(i))))
                R.append(((r(i), r(j)), (r(j), r(i))))
                R.append(((s(i), l(j)), (l(j), s(i))))
                R.append(((s(i), r(j)), (r(j), s(i))))
            elif j == i + 1:
                R.append(((s(i), s(j), s(i)), (s(j), s(i), s(j))))
            if j not in (i, i + 1):
                R.append(((l(i), r(j)), (r(j), l(i))))
    return R


def _tn(n: int) -> PresentationBundle:
    if n < 2:
        raise ValueError("the full transformation presentation needs n >= 2")
    pres = Presentation.make(_tn_letters(n)[0], _tn_relations(n), "monoid")
    target = ptrans_table("T", n)
    gm = tuple(target.index[g] for g in ptrans.family_gens("T", n))
    return PresentationBundle(pres, target, gm, f"Tn(n={n})")


# ---------------------------------------------------------------------------
# Tuple monoids over a base monoid
# ---------------------------------------------------------------------------

def _marker_relations(markers: Sequence[int]) -> list:
    """Each zero marker is idempotent and commutes with every marker."""
    rels = []
    for t in markers:
        rels.append(((t, t), (t,)))
        rels += [((t, u), (u, t)) for u in markers]
    return rels


def _tuple_pres(M: CayleyTable, n: int, with_zero: bool
                ) -> tuple[Presentation, list]:
    """The Mn presentation, or with `with_zero` the M0n one, and the base
    elements its letters stand for (letter j of each coordinate is
    elems[j]); the zero markers t1..tn follow the coordinate letters.
    `_mwr_family` extends it without building the tuple target.

    Each coordinate has its copy of the base relations, and letters of
    different coordinates commute."""
    mp, elems = table_presentation(M)
    k = len(mp.alphabet)
    names = [f"{mp.alphabet[j]}^{i}" for i in range(1, n + 1) for j in range(k)]
    def lid(i, j):          # coordinate i in 1..n, base letter j
        return (i - 1) * k + j
    rels = []
    for i in range(1, n + 1):
        for u, v in mp.relations:
            rels.append((tuple(lid(i, j) for j in u), tuple(lid(i, j) for j in v)))
    for i in range(1, n + 1):
        for i2 in range(1, n + 1):
            if i != i2:
                for j in range(k):
                    for j2 in range(k):
                        rels.append(((lid(i, j), lid(i2, j2)),
                                     (lid(i2, j2), lid(i, j))))
    if with_zero:
        base = len(names)
        names = names + [f"t{i}" for i in range(1, n + 1)]
        def tid(i):
            return base + i - 1
        rels += _marker_relations([tid(i) for i in range(1, n + 1)])
        for i in range(1, n + 1):
            for i2 in range(1, n + 1):
                for j in range(k):
                    if i != i2:
                        rels.append(((tid(i), lid(i2, j)), (lid(i2, j), tid(i))))
                    else:
                        rels.append(((tid(i), lid(i, j)), (tid(i),)))
                        rels.append(((lid(i, j), tid(i)), (tid(i),)))
    return Presentation.make(names, rels, "monoid"), elems


def _tuple_monoid(M: CayleyTable, n: int, *, with_zero: bool) -> PresentationBundle:
    """Mn, or M0n with `with_zero`: the n-tuples over M (and its adjoined
    zero), generated by the unit tuples of M's generators (and of the zero),
    with the letters of `_tuple_pres` mapped to unit tuples."""
    pres, elems = _tuple_pres(M, n, with_zero)
    zero = wreath.ZERO

    def units(values):
        return [tuple(a if p == i else M.identity for p in range(n))
                for i in range(n) for a in values] + \
            [tuple(zero if p == i else M.identity for p in range(n))
             for i in range(n) if with_zero]

    def mul(a, b):
        return tuple(zero if (x == zero or y == zero) else M.mul(x, y)
                     for x, y in zip(a, b))
    vals = list(range(M.size)) + ([zero] if with_zero else [])
    target = table_from_elements(sorted(itertools.product(vals, repeat=n)), mul,
                                 gens=units(M.gens) or None,
                                 identity=(M.identity,) * n)
    gm = tuple(target.index[t] for t in units(elems))
    tag = "M0n" if with_zero else "Mn"
    return PresentationBundle(pres, target, gm, f"{tag}(|M|={M.size}, n={n})")


# ---------------------------------------------------------------------------
# Wreath products
# ---------------------------------------------------------------------------

def _shuffle(x: int, f: ptrans.PartialMap, k: int, at: Callable[[int], int]) -> tuple:
    """The shuffling relation x c(k) = c(p_1) ... c(p_r) x of a letter x
    standing for the map f past the coordinate letter at(k) of position k,
    where p_1 < ... < p_r is the preimage of k under f (x alone when it is
    empty)."""
    return ((x, at(k)), tuple(at(p) for p in sorted(f.preimage([k]))) + (x,))


def _mwr_sing_tn_relations(M: CayleyTable, n: int, L):
    mul = M.mul
    Ms = range(M.size)
    one = M.identity
    R = []
    for i, j in itertools.permutations(range(1, n + 1), 2):
        for a, b, c, d in itertools.product(Ms, repeat=4):
            lhs = (L(i, j, a, b), L(i, j, c, d))
            mid = (L(i, j, mul(a, c), mul(b, c)),)
            R.append((lhs, mid))
            R.append((mid, (L(j, i, b, a), L(i, j, d, c))))
    for i, j, k, l in itertools.permutations(range(1, n + 1), 4):
        for a, b, c, d in itertools.product(Ms, repeat=4):
            R.append(((L(i, j, a, b), L(k, l, c, d)),
                      (L(k, l, c, d), L(i, j, a, b))))
    for i, j, k in itertools.permutations(range(1, n + 1), 3):
        for a, b, c in itertools.product(Ms, repeat=3):
            R.append(((L(i, k, a, b), L(j, k, one, c)), (L(i, k, a, b),)))
            R.append(((L(i, k, a, b), L(j, k, c, one)),
                      (L(k, i, b, a), L(j, i, c, one), L(i, k, one, one))))
        for a, b in itertools.product(Ms, repeat=2):
            R.append(((L(i, k, a, a), L(j, k, b, one)),
                      (L(i, k, one, one), L(j, k, b, one), L(i, k, a, one))))
        for a, b, c, d in itertools.product(Ms, repeat=4):
            lhs = (L(i, j, a, b), L(i, k, c, d))
            mid = (L(i, k, mul(a, c), d), L(i, j, one, mul(b, c)))
            R.append((lhs, mid))
            R.append((mid, (L(j, k, mul(b, c), d), L(i, j, mul(a, c), one))))
            lhs2 = (L(i, j, c, mul(a, d)), L(i, k, one, mul(b, d)))
            mid2 = (L(i, k, c, mul(b, d)), L(i, j, one, mul(a, d)))
            R.append((lhs2, mid2))
            R.append((mid2, (L(j, k, a, b), L(i, j, c, d))))
        R.append(((L(k, i, one, one), L(i, j, one, one), L(j, k, one, one)),
                  (L(i, k, one, one), L(k, j, one, one), L(j, i, one, one),
                   L(i, k, one, one))))
    for i, j, k, l in itertools.permutations(range(1, n + 1), 4):
        R.append(((L(k, i, one, one), L(i, j, one, one), L(j, k, one, one),
                   L(k, l, one, one)),
                  (L(i, k, one, one), L(k, l, one, one), L(l, i, one, one),
                   L(i, j, one, one), L(j, l, one, one))))
    return R


def _mwr_sing_tn_pres(M: CayleyTable, n: int) -> tuple[Presentation, list]:
    """The SingT wreath presentation, with its letters' (i, j, a, b) in
    alphabet order; `_mwr_sing_ptn` extends it without building the SingT
    target."""
    if n < 2:
        raise ValueError("singular wreath presentations need n >= 2")
    combos = [(i, j, a, b) for (i, j) in itertools.permutations(range(1, n + 1), 2)
              for a in range(M.size) for b in range(M.size)]
    pos = {c: k for k, c in enumerate(combos)}
    names = [f"e{i}{j};{a},{b}" for (i, j, a, b) in combos]
    def L(i, j, a, b):
        return pos[(i, j, a, b)]
    return Presentation.make(names, _mwr_sing_tn_relations(M, n, L), "semigroup"), combos


def _mwr_sing_tn(M: CayleyTable, n: int) -> PresentationBundle:
    pres, _ = _mwr_sing_tn_pres(M, n)
    target = wreath.enumerate_wreath(M, "SingT", n)
    gm = tuple(target.index[w] for w in wreath.wreath_gens(M, "SingT", n))
    return PresentationBundle(pres, target, gm,
                              f"MwrSingTn(|M|={M.size}, n={n})")


def _mwr_sing_ptn(M: CayleyTable, n: int) -> PresentationBundle:
    inner, combos = _mwr_sing_tn_pres(M, n)
    base = len(inner.alphabet)
    names = list(inner.alphabet) + [f"t{i}" for i in range(1, n + 1)]
    def T(i):
        return base + i - 1
    rels = list(inner.relations) + _marker_relations([T(k) for k in range(1, n + 1)])
    for e, (i, j, a, b) in enumerate(combos):
        f = ptrans.eps(i, j, n)
        rels += [_shuffle(e, f, k, T) for k in range(1, n + 1)]
    for i, j in itertools.permutations(range(1, n + 1), 2):
        rels.append(((T(j), combos.index((i, j, M.identity, M.identity))), (T(j),)))
    pres = Presentation.make(names, rels, "semigroup")
    target = wreath.enumerate_wreath(M, "SingPT", n)
    gm = tuple(target.index[w] for w in wreath.wreath_gens(M, "SingPT", n))
    return PresentationBundle(pres, target, gm,
                              f"MwrSingPTn(|M|={M.size}, n={n})")


def _mwr_family(M: CayleyTable, n: int, family: str) -> PresentationBundle:
    """The four main wreath presentations, over the tuple letters, the zero
    markers t_i for PT and I (`ptrans.family_gens("E", n)`), and the letters
    of the acting family: `ptrans.family_gens` of T (s_i, l_i, r_i) or of G
    (s_i), which also gives their images.

    Every mixed relation is one shuffling rule, `_shuffle` (which
    `_mwr_sing_ptn` also uses for its markers): a family letter x with map
    f, moved past a coordinate letter c at position k (a base letter, or the
    zero marker), leaves a copy of c at each position of the preimage of k
    under f, in increasing order.  In M wr PT_n, (a, f)(b, g) = (a . f.b, fg), and f.b puts the
    entry of b at pf into position p, so the unit tuple at k comes out at
    every position of the preimage of k.  The relations run over the letter
    groups (each s_i, then each l_i with its r_i), then the positions k,
    then the coordinate kinds, then the letters of the group.  The collapse
    t_i r_i = t_i (PT) and t_i t_(i+1) s_i = t_i t_(i+1) (I) follow them.
    """
    if n < 2:
        raise ValueError("wreath presentations need n >= 2")
    with_zero = family in ("PT", "I")
    tup, elems = _tuple_pres(M, n, with_zero)
    k = len(elems)
    base = len(tup.alphabet)
    if family in ("PT", "T"):
        maps = ptrans.family_gens("T", n)
        fam_names, fam_rels = _tn_letters(n)[0], _tn_relations(n)
        groups = [[i] for i in range(n - 1)] + \
            [[n - 1 + i, 2 * (n - 1) + i] for i in range(n - 1)]
    else:
        maps = ptrans.family_gens("G", n)
        fam_names, fam_rels = [f"s{i}" for i in range(1, n)], _gn_relations(n)
        groups = [[i] for i in range(n - 1)]
    # the coordinate letters at each position, one per coordinate kind
    at = {p: [(p - 1) * k + j for j in range(k)] +
          ([n * k + p - 1] if with_zero else []) for p in range(1, n + 1)}

    rels = list(tup.relations)
    rels += [(tuple(base + i for i in u), tuple(base + i for i in v))
             for u, v in fam_rels]
    for group in groups:
        for pos in range(1, n + 1):
            for c in range(len(at[pos])):
                rels += [_shuffle(base + g, maps[g], pos, lambda p: at[p][c])
                         for g in group]
    if family == "PT":
        rels += [((at[i][-1], base + 2 * (n - 1) + i - 1), (at[i][-1],))
                 for i in range(1, n)]
    if family == "I":
        rels += [((at[i][-1], at[i + 1][-1], base + i - 1),
                  (at[i][-1], at[i + 1][-1])) for i in range(1, n)]
    pres = Presentation.make(list(tup.alphabet) + fam_names, rels, "monoid")

    target = wreath.enumerate_wreath(M, family, n)
    idx = target.index
    gm = [idx[wreath.embed_tuple(wreath.unit_tuple(M, n, i, elems[j]))]
          for i in range(1, n + 1) for j in range(k)]
    if with_zero:
        gm += [idx[wreath.embed_pmap(M, e)] for e in ptrans.family_gens("E", n)]
    gm += [idx[wreath.embed_pmap(M, f)] for f in maps]
    return PresentationBundle(pres, target, tuple(gm),
                              f"Mwr{family}n(|M|={M.size}, n={n})")


# ---------------------------------------------------------------------------
# Intersection semilattices of subalgebra lattices
# ---------------------------------------------------------------------------

def _suba(alg, *, enlarged: bool) -> PresentationBundle:
    lat = lattice(alg)
    maxes = sorted(lat.maximal(), key=lambda s: sorted(s))
    if not maxes:
        raise ValueError("the algebra has no maximal subalgebras")
    pos = {b: i for i, b in enumerate(maxes)}
    names = [f"x{{{','.join(str(x + 1) for x in sorted(b))}}}" for b in maxes]
    rels = [((i, i), (i,)) for i in range(len(maxes))]
    rels += [((i, j), (j, i)) for i in range(len(maxes)) for j in range(len(maxes))]
    if not enlarged:
        for b in maxes:
            for c in maxes:
                for d in maxes:
                    if b & c == b & d:
                        rels.append(((pos[b], pos[c]), (pos[b], pos[d])))
    else:
        meets = {}
        for b in maxes:
            for c in maxes:
                meets.setdefault(b & c, []).append((pos[b], pos[c]))
        for group in meets.values():
            first = group[0]
            for other in group[1:]:
                rels.append((first, other))
    pres = Presentation.make(names, rels, "monoid")
    target = lat.meet_table()
    gm = tuple(target.index[b] for b in maxes)
    tag = "SubA_enlarged" if enlarged else "SubA"
    expected = True
    if not enlarged:
        # the schema quantified over a shared left factor is complete exactly
        # for strong algebras; deliberate failures keep expected_verify False
        expected = alg.is_strong()[0]
    return PresentationBundle(pres, target, gm, f"{tag}({alg.family})",
                              expected_verify=expected)


# ---------------------------------------------------------------------------
# Free left restriction monoid truncations
# ---------------------------------------------------------------------------

def _px_trunc(alphabet: str, bound: int) -> PresentationBundle:
    words = freelrm.words_up_to(alphabet, bound)
    pos = {w: i for i, w in enumerate(words)}
    names = [f"a[{w}]" for w in words]
    rels = [((pos[w], pos[v]), (pos[v], pos[w])) for w in words for v in words]
    rels += [((pos[w], pos[v]), (pos[w],))
             for w in words for v in words
             if v != w and w.startswith(v)]
    rels += [((pos[w], pos[w]), (pos[w],)) for w in words]
    pres = Presentation.make(names, rels, "monoid")
    bundle = PresentationBundle(pres, None, None,
                                f"PX(|X|={len(alphabet)}, L={bound})")
    bundle.notes["proj_words"] = words
    bundle.notes["word_letters"] = []
    return bundle


def _lx_trunc(alphabet: str, bound: int) -> PresentationBundle:
    words = freelrm.words_up_to(alphabet, bound)
    letters = sorted(alphabet)
    pos = {w: i for i, w in enumerate(words)}
    base = len(words)
    xpos = {c: base + i for i, c in enumerate(letters)}
    names = [f"a[{w}]" for w in words] + list(letters)
    inner = _px_trunc(alphabet, bound)
    rels = list(inner.pres.relations)
    for c in letters:
        for w in words:
            if len(w) + 1 <= bound:
                rels.append(((xpos[c], pos[w]), (pos[c + w], xpos[c])))
        if bound >= 1:
            # x = a[x] x, once the projection letter a[x] exists
            rels.append(((xpos[c],), (pos[c], xpos[c])))
    pres = Presentation.make(names, rels, "monoid")
    bundle = PresentationBundle(pres, None, None,
                                f"LX(|X|={len(alphabet)}, L={bound})")
    bundle.notes["proj_words"] = words
    bundle.notes["word_letters"] = letters
    return bundle


def lrm_model_check(bundle: PresentationBundle) -> bool:
    """Evaluate a truncation bundle inside the free left restriction monoid:
    projection letters go to downset projections, word letters to embedded
    one-letter words."""
    values = [freelrm.element([w], "") for w in bundle.notes["proj_words"]]
    values += [freelrm.embed_word(c) for c in bundle.notes["word_letters"]]
    return bundle.relations_hold_in(values, freelrm.lr_product,
                                    identity=freelrm.lr_identity())


# ---------------------------------------------------------------------------
# Catalogue front end
# ---------------------------------------------------------------------------

FAMILIES = ("En", "Gn", "Tn", "Mn", "M0n", "MwrSingTn", "MwrSingPTn",
            "MwrPTn", "MwrGn", "MwrTn", "MwrIn", "SubA", "SubA_enlarged",
            "PX_truncated", "LX_truncated")
BASE_FAMILIES = ("Mn", "M0n", "MwrSingTn", "MwrSingPTn",     # need a base monoid
                 "MwrPTn", "MwrGn", "MwrTn", "MwrIn")


def build_catalog(family: str, *, n: Optional[int] = None,
                  base: Optional[CayleyTable] = None,
                  algebra=None, alphabet: str = "xy",
                  length: int = 3) -> PresentationBundle:
    """The bundle of a catalogued family.  En, Gn and Tn need the degree
    `n`; the tuple and wreath families need `n` and a `base` monoid; SubA
    and SubA_enlarged need an `algebra`; the truncations take `alphabet`
    and `length`.  A missing input, or a negative degree or length, raises
    ValueError naming it."""
    if family in ("En", "Gn", "Tn") + BASE_FAMILIES:
        if n is None:
            raise ValueError(f"{family} needs a degree n")
        if n < 0:
            raise ValueError(f"{family} needs a degree n >= 0")
    if family in ("PX_truncated", "LX_truncated") and length < 0:
        raise ValueError(f"{family} needs a length >= 0")
    if family == "En":
        return _en(n)
    if family == "Gn":
        return _gn(n)
    if family == "Tn":
        return _tn(n)
    if family in BASE_FAMILIES:
        if base is None:
            raise ValueError(f"{family} needs a base monoid")
        if family in ("Mn", "M0n"):
            return _tuple_monoid(base, n, with_zero=family == "M0n")
        if family == "MwrSingTn":
            return _mwr_sing_tn(base, n)
        if family == "MwrSingPTn":
            return _mwr_sing_ptn(base, n)
        return _mwr_family(base, n, family[3:-1])
    if family in ("SubA", "SubA_enlarged"):
        if algebra is None:
            raise ValueError("SubA needs an algebra instance")
        return _suba(algebra, enlarged=family.endswith("enlarged"))
    if family == "PX_truncated":
        return _px_trunc(alphabet, length)
    if family == "LX_truncated":
        return _lx_trunc(alphabet, length)
    raise KeyError(f"unknown family {family!r} (choose from {FAMILIES})")


# ---------------------------------------------------------------------------
# General pair presentations
# ---------------------------------------------------------------------------

@dataclass
class LetteredSubset:
    """A presentation for a subset of the ambient, with letters mapped to
    ambient ids; normal-form words are shortlex over the letter images."""
    pres: Presentation
    images: tuple            # letter -> ambient id

    def normal_forms(self, rows, *, identity=None) -> dict:
        """Shortlex-first words over the letters reaching ambient elements by
        right multiplication, read from the ambient's `rows` (the identity,
        when given, gets the empty word)."""
        seeds = [] if identity is None else [identity]
        images = self.images
        found = right_orbit(seeds + list(images),
                            lambda e: list(map(rows[e].__getitem__, images)),
                            [((), None)] * len(seeds) +
                            [((k,), None) for k in range(len(images))])
        return {e: word for e, (word, _) in found.items()}


def _check(cond, msg):
    if not cond:
        raise HypothesisFailed(msg)


def _require(ctx: AmbientContext, act: ActionTable, parts: str,
             trivial: bool = False) -> None:
    """The hypotheses the pair builders share: the identity lies in each
    part that `parts` names ("U", "S", or "US" for both), and with `trivial`
    every projection s+ is the identity, so S acts by monoid morphisms."""
    ident = ctx.identity
    _check(all(ident in {"U": ctx.u_set, "S": ctx.s_set}[p] for p in parts),
           "both parts must be submonoids" if len(parts) > 1
           else f"{parts} must be a submonoid")
    _check(not trivial or all(act.splus(s) == ident for s in ctx.s_list()),
           "the action must be by monoid morphisms")


def _pair_letters(ctx: AmbientContext, act: ActionTable, pres_u: LetteredSubset,
                  pres_s: LetteredSubset):
    """What the pair presentations share: the letters u:* then s:*, the
    normal forms over the U-letters, and one relation list.  The list holds
    the relations of U, then those of S, then for each acting letter x its
    shuffling relations x y = (x>y) x over the U-letters y, followed by its
    projection-prefix relation x = x+ x when x+ is not the identity."""
    ident = ctx.identity
    nu = len(pres_u.pres.alphabet)
    nf_u = pres_u.normal_forms(ctx.rows, identity=ident)
    names = [f"u:{a}" for a in pres_u.pres.alphabet] + \
            [f"s:{a}" for a in pres_s.pres.alphabet]
    rels = list(pres_u.pres.relations)
    rels += [(tuple(nu + i for i in u), tuple(nu + i for i in v))
             for u, v in pres_s.pres.relations]
    for x, xs in enumerate(pres_s.images, nu):
        rels += [((x, y), nf_u[act(xs, yu)] + (x,))
                 for y, yu in enumerate(pres_u.images)]
        if act.splus(xs) != ident:
            rels.append(((x,), nf_u[act.splus(xs)] + (x,)))
    return names, nf_u, rels


def lavers(ctx: AmbientContext, act: ActionTable, pres_u: LetteredSubset,
           pres_s: LetteredSubset) -> PresentationBundle:
    """Presentation of the semidirect product when it is a monoid (Lavers
    1998): the two presentations side by side plus letter-shuffling
    relations moving acting letters past acted-on letters.  Every s+ is the
    identity, so the shared relation list has no projection-prefix
    relation."""
    ident = ctx.identity
    _require(ctx, act, "US", trivial=True)
    names, _, rels = _pair_letters(ctx, act, pres_u, pres_s)
    sd = semidirect(ctx, act)
    gm = tuple(sd.id_of(u, ident) for u in pres_u.images) + \
        tuple(sd.id_of(ident, s) for s in pres_s.images)
    return PresentationBundle(Presentation.make(names, rels, "monoid"), sd.table,
                              gm, f"semidirect({ctx.name})")


def local_monoid_pres(ctx: AmbientContext, act: ActionTable,
                      pres_u: LetteredSubset,
                      pres_s: LetteredSubset) -> PresentationBundle:
    """Presentation of the local monoid of pairs absorbing their projection,
    for a monoidal action by semigroup morphisms: the shuffling relations
    plus one projection-prefix relation per acting letter."""
    ident = ctx.identity
    _require(ctx, act, "US")
    names, _, rels = _pair_letters(ctx, act, pres_u, pres_s)
    sd = semidirect(ctx, act)
    tbl, old2new = subtable(sd.table, sd.mm)
    gm = tuple(old2new[sd.id_of(u, ident)] for u in pres_u.images) + \
        tuple(old2new[sd.id_of(act.splus(s), s)] for s in pres_s.images)
    return PresentationBundle(Presentation.make(names, rels, "monoid"), tbl, gm,
                              f"local_monoid({ctx.name})")


# Per kind: whether U and S are submonoids (the monoid case, presented as a
# monoid) or only U (the semigroup case, over S^1), the pair verdict of the
# action's report it needs, whether every projection must be trivial, and
# the reduction of U to a family V (as in actionpair._OMEGA_TABLE).  The
# kinds that need only a weak pair also take explicit pairs on the local
# monoid (`omega_pairs`).
_PAIR_KIND_TABLE = {
    "product_monoid_strong": (True, "weak", True, None),
    "product_monoid": (True, "action", False, None),
    "product_monoid_reduced_family": (True, "action", False, "family"),
    "product_monoid_reduced_letters": (True, "action", False, "pairwise"),
    "product_monoid_via_local": (True, "weak", False, None),
    "product_semigroup": (False, "action", False, None),
    "product_semigroup_reduced_family": (False, "action", False, "family"),
    "product_semigroup_reduced_letters": (False, "action", False, "pairwise"),
}
PAIR_PRESENTATION_KINDS = tuple(_PAIR_KIND_TABLE)


def general_pair_pres(kind: str, ctx: AmbientContext, act: ActionTable,
                      pres_u: LetteredSubset, pres_s: LetteredSubset, *,
                      omega_u: Optional[dict] = None,
                      v_subset: Optional[Sequence] = None,
                      omega_pairs: Optional[Sequence] = None) -> PresentationBundle:
    """Presentations for the product set of an action pair, assembled from
    presentations of the parts, the shared relation list of `_pair_letters`,
    and per-element right congruence data.  Every per-kind choice is read
    from `_PAIR_KIND_TABLE`.

    The hypotheses of the selected kind are machine-checked before any
    closure runs: submonoid membership, the pair verdict, trivial
    projections, the extension condition and a presentation of S without
    empty sides for the semigroup kinds, and supplied data inside the pair
    (an omega_u pair inside S, or S^1 for the semigroup kinds, a family V
    inside U).  Then the reductions and the generating property of the
    congruence data are certified.  The data are either omega_u, pairs per
    element u generating theta_u (s ~ t iff us = ut) on S or S^1 (by
    default all of its pairs), or, for the kinds that need only a weak
    pair, `omega_pairs`: ids of the semidirect product that must generate
    the fibres of (u, s) -> us on the local monoid.  With trivial
    projections the local monoid is all of U x S and those fibres are
    theta.
    """
    if kind not in _PAIR_KIND_TABLE:
        raise KeyError(f"unknown kind {kind!r}")
    monoid, verdict, trivial, reduction = _PAIR_KIND_TABLE[kind]
    m, rows = ctx.m, ctx.rows
    ident = ctx.identity
    _require(ctx, act, "U")
    if monoid:
        _require(ctx, act, "S", trivial)
    _check(getattr(act.pair_report(), verdict), "pair axioms fail")
    if not monoid:
        u_min = ctx.u_set - {ident}
        _check(all(rows[a][b] in u_min for a in u_min for b in u_min),
               "U minus the identity must be a subsemigroup")
        _check(u_min <= ctx.product_set(), "U minus the identity must lie in US")
        u1set = set(ctx.u1())
        _check(all(rows[u][act.plus[s]] == rows[u][s] for u in u1set
                   for s in ctx.s_list() if rows[u][s] in u1set),
               "the pair does not extend over S^1")
    # theta_u partitions S, or S1 for semigroups
    members = ctx.s_list() if monoid else ctx.s1()
    if reduction == "pairwise":
        v_subset = list(dict.fromkeys(pres_u.images))
    _check(reduction != "family" or v_subset is not None,
           "the reduced variant needs V")
    _check(reduction is None or set(v_subset) <= ctx.u_set,
           "the family V must lie inside U")
    _check(omega_u is None or all(a in members and b in members
                                  for ps in omega_u.values() for a, b in ps),
           "congruence data lies outside " + ("S" if monoid else "S^1"))
    _check(monoid or all(u and v for u, v in pres_s.pres.relations),
           "pres_s has a relation with an empty side, so it presents no semigroup")

    names, nf_u, rels = _pair_letters(ctx, act, pres_u, pres_s)
    nu = len(pres_u.pres.alphabet)
    nf_s = pres_s.normal_forms(rows, identity=ident if monoid else None)
    nf_s.setdefault(ident, ())

    def relation(u1, s1, u2, s2):
        return (nf_u[u1] + tuple(nu + i for i in nf_s[s1]),
                nf_u[u2] + tuple(nu + i for i in nf_s[s2]))

    if verdict == "weak" and omega_pairs is not None:
        # (u, s) -> us is a morphism on the local monoid, so its fibres are
        # a congruence already
        sd = semidirect(ctx, act)
        _check(all(i in sd.mm and j in sd.mm for i, j in omega_pairs),
               "congruence data lies outside the local monoid")
        tbl, old2new = subtable(sd.table, sd.mm)
        els = sd.table.elements
        values = theta_and_friends(ctx, act, sd).product_values
        _check(congruence_closure(tbl, [(old2new[i], old2new[j])
                                        for i, j in omega_pairs], "two_sided")
               == _partition_by(tbl.size, lambda k: values[tbl.elements[k]]),
               "the supplied pairs do not generate " +
               ("theta" if trivial else "the local kernel"))
        rels += [relation(*els[i], *els[j]) for i, j in omega_pairs]
    else:
        ulist = [u for u in ctx.u_list() if monoid or u != ident]
        theta = {u: _partition_by(members, rows[u].__getitem__) for u in ctx.u1()}
        pool = ulist if reduction is None else v_subset
        if omega_u is None:
            omega_u = {u: _pairs_for(theta[u]) for u in pool}
        failures = _element_data_failures(ctx, theta, omega_u, ulist, reduction,
                                          v_subset, members=members)
        if failures:
            raise HypothesisFailed(failures[0])
        rels += [relation(u, a, u, b) for u in pool for a, b in omega_u.get(u, ())]

    pres = Presentation.make(names, rels, "monoid" if monoid else "semigroup")
    images = tuple(pres_u.images) + tuple(pres_s.images)
    tbl, old2new = subtable(m, sorted(ctx.product_set()), gens=list(images))
    gm = tuple(old2new[e] for e in images)
    return PresentationBundle(pres, tbl, gm, f"{kind}({ctx.name})")


def us_sd_pres(ctx: AmbientContext, act: ActionTable,
               pres_u: LetteredSubset) -> PresentationBundle:
    """Presentation of the semidirect product over one copy of the
    U-alphabet per element of the acting monoid: per-element copies of the
    U-relations, plus one relation per letter pair recording a product and
    an action value.

    The hypotheses are checked before the product is built: S is a
    submonoid, `pres_u` presents a semigroup (no relation has an empty
    side, checked before any closure), and its letters generate U as a
    semigroup."""
    ident = ctx.identity
    _require(ctx, act, "S")
    _check(all(u and v for u, v in pres_u.pres.relations),
           "pres_u has a relation with an empty side, so it presents no semigroup")
    slist = ctx.s_list()
    spos = {s: i for i, s in enumerate(slist)}
    nletters = len(pres_u.pres.alphabet)
    nf_u = pres_u.normal_forms(ctx.rows)
    _check(ctx.u_set <= nf_u.keys(), "the U-letters must generate U as a semigroup")
    nf_u.setdefault(ident, ())

    def yid(letter, s):
        return spos[s] * nletters + letter

    def subscript(word: Word, s):
        if not word:
            return ()
        return tuple(yid(c, ident) for c in word[:-1]) + (yid(word[-1], s),)

    rels = []
    for s in slist:
        for u, v in pres_u.pres.relations:
            rels.append((subscript(u, s), subscript(v, s)))
    for x in range(nletters):
        for y in range(nletters):
            for s in slist:
                for t in slist:
                    word = (x,) + nf_u[act(s, pres_u.images[y])]
                    rels.append(((yid(x, s), yid(y, t)),
                                 subscript(word, ctx.rows[s][t])))
    names = [f"{a}@{si}" for si in range(len(slist))
             for a in pres_u.pres.alphabet]
    pres = Presentation.make(names, rels, "semigroup")

    sd = semidirect(ctx, act)
    gm = tuple(sd.id_of(pres_u.images[x], s)
               for s in slist for x in range(nletters))
    return PresentationBundle(pres, sd.table, gm, f"sd_letters({ctx.name})")
