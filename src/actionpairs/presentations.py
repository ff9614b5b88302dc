"""Builders for the catalogue of concrete presentations, each paired with
machine verification against an enumerated target.

Every builder returns a PresentationBundle: the presentation, the target
table (ground truth by direct enumeration; absent for the free-monoid
truncations, which are checked inside the model instead), and the letter
map realizing the generators.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from . import freelrm, ptrans, wreath
from .actionpair import (ActionTable, AmbientContext, HypothesisFailed,
                         _family_join_failure, _join, _pairs_for,
                         _pairwise_join_failure, _partition_by,
                         _s_successors, semidirect, theta_and_friends)
from .fmonoid import (CayleyTable, CongruencePartition, Presentation,
                      VerificationReport, Word, congruence_closure,
                      right_orbit, subtable, table_from_elements,
                      table_presentation, verify_presentation)


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
        def ev(word: Word):
            if not word:
                return identity
            x = letter_values[word[0]]
            for k in word[1:]:
                x = product(x, letter_values[k])
            return x
        return all(ev(u) == ev(v) for u, v in self.pres.relations)


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
    from .registry import ptrans_table
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
    from .registry import ptrans_table
    target = ptrans_table("G", n)
    gen_map = tuple(target.index[ptrans.tau(i, i + 1, n)] for i in range(1, n))
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
    names, s, l, r = _tn_letters(n)
    pres = Presentation.make(names, _tn_relations(n), "monoid")
    from .registry import ptrans_table
    target = ptrans_table("T", n)
    idx = target.index
    gm = [idx[ptrans.tau(i, i + 1, n)] for i in range(1, n)]
    gm += [idx[ptrans.eps(i, i + 1, n)] for i in range(1, n)]
    gm += [idx[ptrans.eps(i + 1, i, n)] for i in range(1, n)]
    return PresentationBundle(pres, target, tuple(gm), f"Tn(n={n})")


# ---------------------------------------------------------------------------
# Tuple monoids over a base monoid
# ---------------------------------------------------------------------------

def _tuples_table(M: CayleyTable, n: int, *, with_zero: bool) -> CayleyTable:
    vals = list(range(M.size)) + ([wreath.ZERO] if with_zero else [])
    def mul(a, b):
        return tuple(wreath.ZERO if (x == wreath.ZERO or y == wreath.ZERO)
                     else M.mul(x, y) for x, y in zip(a, b))
    elems = sorted(itertools.product(vals, repeat=n))
    ident = (M.identity,) * n
    gens = [tuple(g if k == i else M.identity for k in range(n))
            for i in range(n) for g in M.gens]
    if with_zero:
        gens += [tuple(wreath.ZERO if k == i else M.identity for k in range(n))
                 for i in range(n)]
    if not gens:
        gens = None
    t = table_from_elements(elems, mul, gens=gens, identity=ident)
    return t


def _coordinate_relations(M: CayleyTable, n: int):
    """Per-coordinate copies of the base relations plus cross-coordinate
    commuting; returns (letter names, relations, base letters per coordinate)."""
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
    return names, rels, k, elems, lid


def _mn_pres(M: CayleyTable, n: int) -> tuple[Presentation, list]:
    """The Mn presentation and the base elements its letters stand for
    (letter j of each coordinate is elems[j]); `_mwr_family` extends it
    without building the tuple target."""
    names, rels, k, elems, lid = _coordinate_relations(M, n)
    return Presentation.make(names, rels, "monoid"), elems


def _mn(M: CayleyTable, n: int) -> PresentationBundle:
    pres, elems = _mn_pres(M, n)
    target = _tuples_table(M, n, with_zero=False)
    gm = tuple(target.index[tuple(e if p == i else M.identity
                                  for p in range(1, n + 1))]
               for i in range(1, n + 1) for e in elems)
    return PresentationBundle(pres, target, gm, f"Mn(|M|={M.size}, n={n})")


def _m0n_pres(M: CayleyTable, n: int) -> tuple[Presentation, list]:
    """The M0n presentation, with the base elements as in `_mn_pres`; the
    zero markers t1..tn follow the coordinate letters."""
    names, rels, k, elems, lid = _coordinate_relations(M, n)
    base = len(names)
    names = names + [f"t{i}" for i in range(1, n + 1)]
    def tid(i):
        return base + i - 1
    for i in range(n):
        rels.append(((tid(i + 1), tid(i + 1)), (tid(i + 1),)))
        for j in range(n):
            rels.append(((tid(i + 1), tid(j + 1)), (tid(j + 1), tid(i + 1))))
    for i in range(1, n + 1):
        for i2 in range(1, n + 1):
            for j in range(k):
                if i != i2:
                    rels.append(((tid(i), lid(i2, j)), (lid(i2, j), tid(i))))
                else:
                    rels.append(((tid(i), lid(i, j)), (tid(i),)))
                    rels.append(((lid(i, j), tid(i)), (tid(i),)))
    return Presentation.make(names, rels, "monoid"), elems


def _m0n(M: CayleyTable, n: int) -> PresentationBundle:
    pres, elems = _m0n_pres(M, n)
    target = _tuples_table(M, n, with_zero=True)
    idx = target.index
    gm = [idx[tuple(e if p == i else M.identity for p in range(1, n + 1))]
          for i in range(1, n + 1) for e in elems]
    gm += [idx[tuple(wreath.ZERO if p == i else M.identity for p in range(1, n + 1))]
           for i in range(1, n + 1)]
    return PresentationBundle(pres, target, tuple(gm), f"M0n(|M|={M.size}, n={n})")


# ---------------------------------------------------------------------------
# Wreath products
# ---------------------------------------------------------------------------

def _wr_element(M: CayleyTable, n: int, i: int, j: int, a: int, b: int):
    ent = [M.identity] * n
    ent[i - 1], ent[j - 1] = a, b
    return wreath.WreathElement(wreath.MTuple(M, ent), ptrans.eps(i, j, n))


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
    pres, combos = _mwr_sing_tn_pres(M, n)
    target = wreath.enumerate_wreath(M, "SingT", n)
    gm = tuple(target.index[_wr_element(M, n, i, j, a, b)] for (i, j, a, b) in combos)
    return PresentationBundle(pres, target, gm,
                              f"MwrSingTn(|M|={M.size}, n={n})")


def _mwr_sing_ptn(M: CayleyTable, n: int) -> PresentationBundle:
    inner, combos = _mwr_sing_tn_pres(M, n)
    base = len(inner.alphabet)
    names = list(inner.alphabet) + [f"t{i}" for i in range(1, n + 1)]
    def T(i):
        return base + i - 1
    one = M.identity
    rels = list(inner.relations)
    for i in range(1, n + 1):
        rels.append(((T(i), T(i)), (T(i),)))
        for j in range(1, n + 1):
            rels.append(((T(i), T(j)), (T(j), T(i))))
    for e, (i, j, a, b) in enumerate(combos):
        for k in range(1, n + 1):
            if k == j:
                rels.append(((e, T(k)), (e,)))
            elif k == i:
                rels.append(((e, T(k)), (T(i), T(j), e)))
            else:
                rels.append(((e, T(k)), (T(k), e)))
    for i, j in itertools.permutations(range(1, n + 1), 2):
        rels.append(((T(j), combos.index((i, j, one, one))), (T(j),)))
    pres = Presentation.make(names, rels, "semigroup")
    target = wreath.enumerate_wreath(M, "SingPT", n)
    idx = target.index
    pts = set(range(1, n + 1))
    gm = [idx[_wr_element(M, n, i, j, a, b)] for (i, j, a, b) in combos]
    gm += [idx[wreath.embed_pmap(M, ptrans.id_on(pts - {i}, n))]
           for i in range(1, n + 1)]
    return PresentationBundle(pres, target, tuple(gm),
                              f"MwrSingPTn(|M|={M.size}, n={n})")


def _mwr_main_relations(M: CayleyTable, n: int, lid, tid, s, l, r, k, *,
                        use_t: bool, use_lr: bool):
    """The mixed relations of the main wreath presentations: letters of the
    acting family moved past coordinate letters and past the zero markers,
    plus the collapse of a marker against its own idempotent."""
    R = []
    xs = range(k)
    for i in range(1, n):
        for kk in range(1, n + 1):
            for j in xs:
                if kk == i:
                    R.append(((s(i), lid(i, j)), (lid(i + 1, j), s(i))))
                elif kk == i + 1:
                    R.append(((s(i), lid(i + 1, j)), (lid(i, j), s(i))))
                else:
                    R.append(((s(i), lid(kk, j)), (lid(kk, j), s(i))))
            if use_t:
                if kk == i:
                    R.append(((s(i), tid(i)), (tid(i + 1), s(i))))
                elif kk == i + 1:
                    R.append(((s(i), tid(i + 1)), (tid(i), s(i))))
                else:
                    R.append(((s(i), tid(kk)), (tid(kk), s(i))))
    if use_lr:
        for i in range(1, n):
            for kk in range(1, n + 1):
                for j in xs:
                    if kk == i:
                        R.append(((l(i), lid(i, j)),
                                  (lid(i, j), lid(i + 1, j), l(i))))
                        R.append(((r(i), lid(i, j)), (r(i),)))
                    elif kk == i + 1:
                        R.append(((l(i), lid(i + 1, j)), (l(i),)))
                        R.append(((r(i), lid(i + 1, j)),
                                  (lid(i, j), lid(i + 1, j), r(i))))
                    else:
                        R.append(((l(i), lid(kk, j)), (lid(kk, j), l(i))))
                        R.append(((r(i), lid(kk, j)), (lid(kk, j), r(i))))
                if use_t:
                    if kk == i:
                        R.append(((l(i), tid(i)), (tid(i), tid(i + 1), l(i))))
                        R.append(((r(i), tid(i)), (r(i),)))
                    elif kk == i + 1:
                        R.append(((l(i), tid(i + 1)), (l(i),)))
                        R.append(((r(i), tid(i + 1)), (tid(i), tid(i + 1), r(i))))
                    else:
                        R.append(((l(i), tid(kk)), (tid(kk), l(i))))
                        R.append(((r(i), tid(kk)), (tid(kk), r(i))))
        if use_t:
            for i in range(1, n):
                R.append(((tid(i), r(i)), (tid(i),)))
    return R


def _mwr_family(M: CayleyTable, n: int, family: str) -> PresentationBundle:
    """The four main wreath presentations, over the tuple letters together
    with the acting family's letters."""
    if n < 2:
        raise ValueError("wreath presentations need n >= 2")
    with_zero = family in ("PT", "I")
    tup, elems = _m0n_pres(M, n) if with_zero else _mn_pres(M, n)
    k = len(elems)
    base = len(tup.alphabet)
    def lid(i, j):
        return (i - 1) * k + j
    def tid(i):
        return n * k + i - 1

    total_family = "T" if family in ("PT", "T") else "G"
    if total_family == "T":
        fam_names, fs, fl, fr = _tn_letters(n)
        fam_rels = _tn_relations(n)
    else:
        fam_names = [f"s{i}" for i in range(1, n)]
        fam_rels = _gn_relations(n)
        fs = lambda i: i - 1
        fl = fr = None
    names = list(tup.alphabet) + fam_names
    def s(i):
        return base + fs(i)
    if total_family == "T":
        def l(i):
            return base + fl(i)
        def r(i):
            return base + fr(i)
    else:
        l = r = None

    rels = list(tup.relations)
    rels += [(tuple(base + i for i in u), tuple(base + i for i in v))
             for u, v in fam_rels]
    rels += _mwr_main_relations(M, n, lid, tid, s, l, r, k,
                                use_t=with_zero, use_lr=total_family == "T")
    if family == "I":
        for i in range(1, n):
            rels.append(((tid(i), tid(i + 1), s(i)), (tid(i), tid(i + 1))))
    pres = Presentation.make(names, rels, "monoid")

    target = wreath.enumerate_wreath(M, family, n)
    idx = target.index
    pts = set(range(1, n + 1))
    gm = [idx[wreath.embed_tuple(wreath.unit_tuple(M, n, i, elems[j]))]
          for i in range(1, n + 1) for j in range(k)]
    if with_zero:
        gm += [idx[wreath.embed_pmap(M, ptrans.id_on(pts - {i}, n))]
               for i in range(1, n + 1)]
    gm += [idx[wreath.embed_pmap(M, ptrans.tau(i, i + 1, n))] for i in range(1, n)]
    if total_family == "T":
        gm += [idx[wreath.embed_pmap(M, ptrans.eps(i, i + 1, n))] for i in range(1, n)]
        gm += [idx[wreath.embed_pmap(M, ptrans.eps(i + 1, i, n))] for i in range(1, n)]
    return PresentationBundle(pres, target, tuple(gm),
                              f"Mwr{family}n(|M|={M.size}, n={n})")


# ---------------------------------------------------------------------------
# Intersection semilattices of subalgebra lattices
# ---------------------------------------------------------------------------

def _suba(alg, *, enlarged: bool) -> PresentationBundle:
    from .indalg import lattice
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

def _words_up_to(alphabet: str, bound: int) -> list[str]:
    out = []
    layer = [""]
    for _ in range(bound):
        layer = [w + c for w in layer for c in sorted(alphabet)]
        out.extend(layer)
    return out


def _px_trunc(alphabet: str, bound: int) -> PresentationBundle:
    words = _words_up_to(alphabet, bound)
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
    words = _words_up_to(alphabet, bound)
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
    and `length`.  A missing input raises ValueError naming it."""
    if family in ("En", "Gn", "Tn") + BASE_FAMILIES and n is None:
        raise ValueError(f"{family} needs a degree n")
    if family == "En":
        return _en(n)
    if family == "Gn":
        return _gn(n)
    if family == "Tn":
        return _tn(n)
    if family in BASE_FAMILIES:
        if base is None:
            raise ValueError(f"{family} needs a base monoid")
        if family == "Mn":
            return _mn(base, n)
        if family == "M0n":
            return _m0n(base, n)
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

    def normal_forms(self, m: CayleyTable, *, identity=None) -> dict:
        """Shortlex-first words over the letters reaching elements of m by
        right multiplication (the identity, when given, gets the empty word)."""
        seeds = [] if identity is None else [identity]
        found = right_orbit(seeds + list(self.images),
                            lambda e: [m.mul(e, g) for g in self.images],
                            [((), None)] * len(seeds) +
                            [((k,), None) for k in range(len(self.images))])
        return {e: word for e, (word, _) in found.items()}


def _check(cond, msg):
    if not cond:
        raise HypothesisFailed(msg)


def _pair_letters(ctx: AmbientContext, act: ActionTable, pres_u: LetteredSubset,
                  pres_s: LetteredSubset):
    """What the pair presentations share: the letters u:* then s:*, the
    normal forms over the U-letters, the relations of U and of S side by
    side, and per acting letter x its shuffling relations x y = (x>y) x over
    the U-letters y with its projection-prefix relation x = x+ x (when x+ is
    not the identity)."""
    ident = ctx.identity
    nu = len(pres_u.pres.alphabet)
    nf_u = pres_u.normal_forms(ctx.m, identity=ident)
    names = [f"u:{a}" for a in pres_u.pres.alphabet] + \
            [f"s:{a}" for a in pres_s.pres.alphabet]
    rels = list(pres_u.pres.relations)
    rels += [(tuple(nu + i for i in u), tuple(nu + i for i in v))
             for u, v in pres_s.pres.relations]
    blocks = []
    for xi, xs in enumerate(pres_s.images):
        x, sp = nu + xi, act.splus(xs)
        blocks.append(([((x, yi), nf_u[act(xs, yu)] + (x,))
                        for yi, yu in enumerate(pres_u.images)],
                       [((x,), nf_u[sp] + (x,))] if sp != ident else []))
    return names, nf_u, rels, blocks


def lavers(ctx: AmbientContext, act: ActionTable, pres_u: LetteredSubset,
           pres_s: LetteredSubset) -> PresentationBundle:
    """Presentation of the semidirect product when it is a monoid: the two
    presentations side by side plus letter-shuffling relations moving acting
    letters past acted-on letters."""
    ident = ctx.identity
    _check(ident in ctx.u_set and ident in ctx.s_set, "both parts must be submonoids")
    _check(all(act.splus(s) == ident for s in ctx.s_list()),
           "the action must be by monoid morphisms")
    names, _, rels, blocks = _pair_letters(ctx, act, pres_u, pres_s)
    rels += [r for shuffles, _ in blocks for r in shuffles]
    pres = Presentation.make(names, rels, "monoid")

    sd = semidirect(ctx, act)
    gm = tuple(sd.id_of(u, ident) for u in pres_u.images) + \
        tuple(sd.id_of(ident, s) for s in pres_s.images)
    return PresentationBundle(pres, sd.table, gm, f"semidirect({ctx.name})")


def local_monoid_pres(ctx: AmbientContext, act: ActionTable,
                      pres_u: LetteredSubset,
                      pres_s: LetteredSubset) -> PresentationBundle:
    """Presentation of the local monoid of pairs absorbing their projection,
    for a monoidal action by semigroup morphisms: the shuffling relations
    plus one projection-prefix relation per acting letter."""
    ident = ctx.identity
    _check(ident in ctx.u_set and ident in ctx.s_set, "both parts must be submonoids")
    names, _, rels, blocks = _pair_letters(ctx, act, pres_u, pres_s)
    rels += [r for shuffles, prefix in blocks for r in shuffles + prefix]
    pres = Presentation.make(names, rels, "monoid")

    sd = semidirect(ctx, act)
    tbl, old2new = subtable(sd.table, sd.mm)
    gm = tuple(old2new[sd.id_of(u, ident)] for u in pres_u.images) + \
        tuple(old2new[sd.id_of(act.splus(s), s)] for s in pres_s.images)
    return PresentationBundle(pres, tbl, gm, f"local_monoid({ctx.name})")


PAIR_PRESENTATION_KINDS = (
    "product_monoid_strong",       # both submonoids, monoid morphisms, theta data
    "product_monoid",              # both submonoids, general action pair
    "product_monoid_reduced_family",
    "product_monoid_reduced_letters",
    "product_monoid_via_local",    # through the local monoid quotient
    "product_semigroup",           # only U a submonoid
    "product_semigroup_reduced_family",
    "product_semigroup_reduced_letters",
)


def general_pair_pres(kind: str, ctx: AmbientContext, act: ActionTable,
                      pres_u: LetteredSubset, pres_s: LetteredSubset, *,
                      omega_u: Optional[dict] = None,
                      v_subset: Optional[Sequence] = None,
                      omega_pairs: Optional[Sequence] = None) -> PresentationBundle:
    """Presentations for the product set of an action pair, assembled from
    presentations of the parts, shuffling relations, per-element right
    congruence data, and projection-prefix relations.

    The hypotheses of the selected variant are machine-checked: submonoid
    membership, the extension condition for the semigroup variants, join
    reductions for the reduced variants, and the generating property of all
    supplied congruence data.  Supplied data outside the pair (an omega_u
    pair outside S, or S^1 for the semigroup variants, a member of V outside
    U) fails before any closure runs.  The pair verdicts are read from the
    action's report, theta_u from the action's stored `theta_and_friends`.
    """
    if kind not in PAIR_PRESENTATION_KINDS:
        raise KeyError(f"unknown kind {kind!r}")
    m = ctx.m
    ident = ctx.identity
    rep = act.pair_report()
    monoid_case = kind.startswith("product_monoid")
    _check(ident in ctx.u_set, "U must be a submonoid")
    if monoid_case:
        _check(ident in ctx.s_set, "S must be a submonoid")
        _check(rep.weak if kind.endswith("strong") or kind.endswith("via_local")
               else rep.action, "pair axioms fail")
    else:
        _check(rep.action, "pair axioms fail")
        u_min = ctx.u_set - {ident}
        _check(all(m.mul(a, b) in u_min for a in u_min for b in u_min),
               "U minus the identity must be a subsemigroup")
        _check(u_min <= ctx.product_set(), "U minus the identity must lie in US")
        u1set = set(ctx.u1())
        for u in ctx.u1():
            for s in ctx.s_list():
                v = m.mul(u, s)
                if v in u1set and m.mul(u, act.splus(s)) != v:
                    raise HypothesisFailed("the pair does not extend over S^1")

    if kind == "product_monoid_strong":
        _check(all(act.splus(s) == ident for s in ctx.s_list()),
               "the action must be by monoid morphisms")
    # theta_u partitions S, or S1 for semigroups
    members = ctx.s_list() if monoid_case else ctx.s1()
    if kind.endswith("reduced_letters"):
        v_subset = list(dict.fromkeys(pres_u.images))
    _check("reduced" not in kind or v_subset is None or set(v_subset) <= ctx.u_set,
           "the family V must lie inside U")
    _check(omega_u is None or all(a in members and b in members
                                  for ps in omega_u.values() for a, b in ps),
           "congruence data lies outside " + ("S" if monoid_case else "S^1"))

    names, nf_u, rels, blocks = _pair_letters(ctx, act, pres_u, pres_s)
    rels += [r for shuffles, _ in blocks for r in shuffles]
    rels += [r for _, prefix in blocks for r in prefix]
    nu = len(pres_u.pres.alphabet)
    nf_s = pres_s.normal_forms(m, identity=ident if monoid_case else None)
    nf_s.setdefault(ident, ())

    def relation(u1, s1, u2, s2):
        return (nf_u[u1] + tuple(nu + i for i in nf_s[s1]),
                nf_u[u2] + tuple(nu + i for i in nf_s[s2]))

    sd = semidirect(ctx, act)
    if kind in ("product_monoid_via_local", "product_monoid_strong") and \
            omega_pairs is not None:
        # explicit congruence data on the semidirect product
        if kind == "product_monoid_strong":
            part = congruence_closure(sd.table, omega_pairs, "two_sided")
            _check(part == theta_and_friends(ctx, act, sd).theta,
                   "the supplied pairs do not generate theta")
        else:
            tbl, old2new = subtable(sd.table, sd.mm)
            vart = congruence_closure(
                tbl, [(old2new[i], old2new[j]) for i, j in omega_pairs],
                "two_sided")
            fibres = _partition_by(sorted(sd.mm),
                                   lambda i: m.mul(*sd.table.elements[i]))
            want_part = congruence_closure(
                tbl, [(old2new[i], old2new[j]) for i, j in _pairs_for(fibres)],
                "two_sided")
            _check(vart == want_part,
                   "the supplied pairs do not generate the local kernel")
        rels += [relation(*sd.table.elements[i], *sd.table.elements[j])
                 for i, j in omega_pairs]
    else:
        ulist = [u for u in ctx.u_list() if monoid_case or u != ident]
        th = theta_and_friends(ctx, act, sd)
        theta = th.theta_u if monoid_case else th.theta_u1

        def theta_join(parts):
            return _join(members, parts)

        if kind.endswith("reduced_letters"):
            _check(all(m.mul(a, b) == m.mul(b, a)
                       for a in ctx.u_list() for b in ctx.u_list()),
                   "U must be commutative for the letter reduction")
            _check(_pairwise_join_failure(m, ctx.u_list(), theta, theta_join)
                   is None, "pairwise join reduction fails")
        elif kind.endswith("reduced_family"):
            _check(v_subset is not None, "the reduced variant needs V")
            bad = _family_join_failure(m, ctx.u1(), v_subset, ulist, theta,
                                       theta_join)
            _check(bad is None, f"join reduction fails at {bad}")
        pool = list(v_subset) if "reduced" in kind else ulist
        if omega_u is None:
            omega_u = {u: _pairs_for(theta[u]) for u in pool}
        succ = _s_successors(ctx, members)
        for u in pool:
            _check(CongruencePartition(members).close(omega_u.get(u, ()), succ)
                   == theta[u], f"congruence data does not generate at {u}")
            rels += [relation(u, a, u, b) for a, b in omega_u.get(u, ())]

    pres = Presentation.make(names, rels, "monoid" if monoid_case else "semigroup")
    images = tuple(pres_u.images) + tuple(pres_s.images)
    tbl, old2new = subtable(m, sorted(ctx.product_set()), gens=list(images))
    gm = tuple(old2new[e] for e in images)
    return PresentationBundle(pres, tbl, gm, f"{kind}({ctx.name})")


def us_sd_pres(ctx: AmbientContext, act: ActionTable,
               pres_u: LetteredSubset) -> PresentationBundle:
    """Presentation of the semidirect product over one copy of the
    U-alphabet per element of the acting monoid: per-element copies of the
    U-relations, plus one relation per letter pair recording a product and
    an action value."""
    m = ctx.m
    ident = ctx.identity
    _check(ident in ctx.s_set, "S must be a submonoid")
    slist = ctx.s_list()
    spos = {s: i for i, s in enumerate(slist)}
    nletters = len(pres_u.pres.alphabet)
    nf_u = pres_u.normal_forms(m)
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
                    acted = act(s, pres_u.images[y])
                    word = (x,) + nf_u[acted]
                    rels.append(((yid(x, s), yid(y, t)),
                                 subscript(word, m.mul(s, t))))
    names = [f"{a}@{si}" for si in range(len(slist))
             for a in pres_u.pres.alphabet]
    pres = Presentation.make(names, rels, "semigroup")

    sd = semidirect(ctx, act)
    gm = tuple(sd.id_of(pres_u.images[x], s)
               for s in slist for x in range(nletters))
    return PresentationBundle(pres, sd.table, gm, f"sd_letters({ctx.name})")
