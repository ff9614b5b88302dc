"""Independence algebra tests: closure, dimension, lattices, automorphisms,
structural classifications, and the bridge to wreath products."""

import dataclasses
import itertools
import time

import pytest
from hypothesis import given, settings, strategies as st

from actionpairs import indalg, ptrans
from actionpairs.fmonoid import SizeBoundExceeded
from actionpairs.indalg import (AlgebraInstance, NotIndependenceAlgebra,
                                Operation, all_subalgebras, automorphisms,
                                builtin_algebra, check_gamma_generates,
                                classify_conditions, cofix, fix_set, fl93,
                                free_act, gamma, generated_subgroup,
                                inclusion_exclusion_check, lattice,
                                maximal_decomposition, partial_automorphisms,
                                partial_endomorphisms, pend_table, set_algebra,
                                vecspace)
from actionpairs.registry import monoid_table
from conftest import brute_morphisms


@pytest.fixture(scope="module")
def A():
    alg = fl93()
    all_subalgebras(alg)
    return alg


# --- the four-element exception ---------------------------------------------------

def test_fl93_operation_rules(A):
    op = A.ops[0]
    for i in range(4):
        assert op.apply(4, (i, i, i)) == i
    for i, j in itertools.permutations(range(4), 2):
        assert op.apply(4, (i, i, j)) == j
        assert op.apply(4, (i, j, i)) == j
        assert op.apply(4, (j, i, i)) == j
    for i, j, k in itertools.permutations(range(4), 3):
        out = op.apply(4, (i, j, k))
        assert out not in (i, j, k)


def test_fl93_closure_and_lattice(A):
    assert A.closure({0, 1, 2}) == frozenset(range(4))
    lat = lattice(A)
    assert len(lat.subs) == 12
    assert all(len(s) != 3 for s in lat.subs)
    assert len(lat.maximal()) == 6
    assert all(len(s) == 2 for s in lat.maximal())


def test_fl93_dim_codim(A):
    assert A.dim() == 3
    assert A.codim({0}) == 2
    assert A.dim({0, 1}) == 2
    assert A.codim(frozenset(range(4))) == 0
    assert A.verify_exchange_property()


def test_fl93_not_strong(A):
    strong, wit = A.is_strong()
    assert not strong
    xs, ys = wit
    assert {tuple(sorted(xs)), tuple(sorted(ys))} == {(0, 1), (2, 3)}


def test_fl93_inclusion_exclusion_witness(A):
    ok, (b, c) = inclusion_exclusion_check(A)
    assert not ok
    lat = lattice(A)
    dims = (A.dim(b), A.dim(c), A.dim(b & c), A.dim(lat.join(b, c)))
    assert sorted(dims) == [0, 2, 2, 3]


# --- strong instances ----------------------------------------------------------------

@pytest.mark.parametrize("name", ["set3", "set4", "gf2_2", "gf3_2", "act2_2"])
def test_strong_instances(name):
    alg = builtin_algebra(name)
    assert alg.is_strong()[0]
    assert inclusion_exclusion_check(alg)[0]


def test_vecspace_lattice_counts():
    assert len(all_subalgebras(builtin_algebra("gf2_2")).subs) == 5
    assert len(all_subalgebras(builtin_algebra("gf2_3")).subs) == 16


def test_codim_monotone_with_equality_forcing():
    for name in ("fl93", "gf2_2", "set4"):
        alg = builtin_algebra(name)
        lat = lattice(alg)
        for b in lat.subs:
            for c in lat.subs:
                if b <= c:
                    assert alg.codim(b) >= alg.codim(c)
                    if alg.codim(b) == alg.codim(c):
                        assert b == c


def test_maximal_decompositions():
    for name in ("gf2_2", "set4"):
        alg = builtin_algebra(name)
        lat = lattice(alg)
        for b in lat.subs:
            combo = maximal_decomposition(alg, b)
            assert combo is not None and len(combo) == alg.codim(b)


def test_every_subalgebra_is_meet_of_maximals_above():
    for name in ("gf2_2", "set4", "fl93"):
        alg = builtin_algebra(name)
        lat = lattice(alg)
        carrier = frozenset(range(alg.size))
        for b in lat.subs:
            above = [c for c in lat.maximal() if b <= c]
            acc = carrier
            for c in above:
                acc &= c
            assert acc == b


def test_maximals_are_atoms_of_the_meet_semilattice():
    for name in ("gf2_2", "set4", "fl93"):
        alg = builtin_algebra(name)
        lat = lattice(alg)
        for b in lat.maximal():
            for c in lat.subs:
                for d in lat.subs:
                    if c & d == b:
                        assert b in (c, d)


def test_meet_table_is_generated_by_the_maximal_subalgebras():
    # the SubA presentations send their letters to the maximal subalgebras,
    # so the target table is numbered from them, not from every member
    for name in ("gf2_2", "set4", "fl93"):
        lat = lattice(builtin_algebra(name))
        t = lat.meet_table()
        assert [t.elements[g] for g in t.gens] == lat.maximal()
        assert t.size == len(lat.subs)


def test_maximality_conditions_agree():
    for name in ("gf2_2", "set4", "fl93"):
        alg = builtin_algebra(name)
        lat = lattice(alg)
        carrier = frozenset(range(alg.size))
        for b in lat.subs:
            if b == carrier:
                continue
            is_max = not any(b < c < carrier for c in lat.subs)
            assert is_max == (alg.codim(b) == 1)
            some = any(alg.closure(b | {x}) == carrier for x in carrier - b)
            every = all(alg.closure(b | {x}) == carrier for x in carrier - b)
            assert some == every == is_max


# --- automorphisms ----------------------------------------------------------------------

def test_autogroup_sizes():
    assert len(automorphisms(set_algebra(4))) == 24
    assert len(automorphisms(builtin_algebra("gf2_2"))) == 6
    assert len(automorphisms(builtin_algebra("gf2_3"))) == 168
    assert len(automorphisms(builtin_algebra("gf3_2"))) == 48      # |GL(2,3)|
    assert len(automorphisms(fl93())) == 24


@pytest.mark.parametrize("make", [lambda: set_algebra(11), lambda: vecspace(3, 4)],
                         ids=["set11", "gf3_4"])
def test_over_cap_automorphism_search_is_refused_before_searching(make):
    # 11! bijections, and perm(81, 4) images of gf3_4's four generators,
    # are past AUT_CAP!
    alg = make()
    start = time.perf_counter()
    with pytest.raises(SizeBoundExceeded):
        automorphisms(alg)
    assert time.perf_counter() - start < 0.5


@st.composite
def small_algebras(draw):
    n = draw(st.integers(1, 4))
    return AlgebraInstance(n, [
        Operation(k, tuple(draw(st.lists(st.integers(0, n - 1),
                                         min_size=n ** k, max_size=n ** k))))
        for k in draw(st.lists(st.integers(0, 2), max_size=2))])


@settings(max_examples=200, deadline=None)
@given(small_algebras())
def test_morphisms_from_generator_images_match_the_definition(alg):
    autos, pend = brute_morphisms(alg)
    assert [a.img for a in automorphisms(alg)] == autos
    assert [a.img for a in partial_endomorphisms(alg)] == pend


def test_gamma_layers_fl93(A):
    autos = automorphisms(A)
    assert len(gamma(A, 0, autos)) == 1
    assert len(gamma(A, 1, autos)) == 6       # transpositions fix a maximal
    assert len(gamma(A, 2, autos)) == 8       # three-cycles fix one point


def test_sub3_algebra_gamma():
    alg = builtin_algebra("act2_2")
    rep = check_gamma_generates(alg)
    assert rep.aut_size == 8
    assert rep.gamma2_generates
    assert rep.gamma1_span == 4 and not rep.gamma1_generates
    assert rep.union_generates and rep.fix_containment_ok


def test_gamma_union_generates():
    for name in ("set3", "set4", "gf2_2", "fl93"):
        rep = check_gamma_generates(builtin_algebra(name))
        assert rep.union_generates and rep.fix_containment_ok, name


def per_automorphism_fix_containment(alg):
    """The fix-containment verdict with one subgroup closure per automorphism."""
    autos = automorphisms(alg)
    pool = gamma(alg, 1, autos) + gamma(alg, 2, autos)
    return all(a in generated_subgroup([g for g in pool
                                        if fix_set(alg, a) <= fix_set(alg, g)],
                                       alg.size)
               for a in autos)


@pytest.mark.parametrize("name", ["fl93", "set3", "set4", "set5",
                                  "gf2_2", "gf2_3", "act2_2"])
def test_one_closure_per_fix_set_matches_the_per_automorphism_loop(name):
    alg = builtin_algebra(name)
    want = dataclasses.replace(check_gamma_generates(alg, check_fix=False),
                               fix_containment_ok=per_automorphism_fix_containment(alg))
    assert check_gamma_generates(alg) == want


@pytest.mark.parametrize("name", indalg.BUILTIN_ALGEBRAS)
def test_gamma_report_matches_three_subgroup_closures(name):
    # the union's span is closed only when neither layer's span is the group
    alg = builtin_algebra(name)
    autos = automorphisms(alg)
    g1, g2 = gamma(alg, 1, autos), gamma(alg, 2, autos)
    whole = frozenset(autos)
    union, span1, span2 = (generated_subgroup(g, alg.size) for g in (g1 + g2, g1, g2))
    want = indalg.GammaReport(len(autos), len(g1), len(g2), union == whole,
                              span1 == whole, span2 == whole, len(span1), True)
    assert check_gamma_generates(alg, check_fix=False) == want


def test_vector_space_corank_one_generates():
    rep = check_gamma_generates(builtin_algebra("gf2_2"))
    assert rep.gamma1_generates


# --- structural conditions ----------------------------------------------------------------

def test_set_algebra_unique_basis_conditions():
    rep = classify_conditions(set_algebra(3))
    assert all(rep.unique_basis_conditions) and rep.unique_basis_consistent
    assert all(rep.full_symmetry_conditions)
    assert all(rep.partial_symmetry_conditions)
    assert rep.cover_conditions == (False, False)


def test_gf22_full_symmetry_without_unique_basis():
    rep = classify_conditions(builtin_algebra("gf2_2"))
    assert not any(rep.unique_basis_conditions)
    assert all(rep.full_symmetry_conditions) and rep.full_symmetry_consistent
    assert not all(rep.partial_symmetry_conditions)
    assert rep.near_basis_conditions is not None
    assert all(rep.near_basis_conditions) and rep.near_basis_consistent


def test_gf23_cover_conditions():
    rep = classify_conditions(builtin_algebra("gf2_3"))
    assert rep.cover_conditions == (True, True) and rep.cover_implication_ok


def test_sub3_algebra_conditions():
    rep = classify_conditions(builtin_algebra("act2_2"))
    assert not any(rep.unique_basis_conditions)
    assert not any(rep.full_symmetry_conditions)
    assert rep.cover_conditions == (False, False)


def test_fl93_conditions(A):
    rep = classify_conditions(A)
    assert not any(rep.unique_basis_conditions)
    assert all(rep.full_symmetry_conditions)
    # two maximals cover the carrier, yet no basis form does
    assert rep.cover_conditions == (False, True)
    assert rep.cover_implication_ok


def test_partial_automorphism_counts():
    # free symmetric structure: |PAut| matches the injective-map count
    alg = set_algebra(3)
    assert len(partial_automorphisms(alg)) == ptrans.family_size("I", 3)
    # for the free act on two points the count matches the wreath formula
    from actionpairs.wreath import wreath_size
    assert len(partial_automorphisms(builtin_algebra("act2_2"))) == \
        wreath_size(2, "I", 2) == 17


# --- custom algebras and the exchange guard --------------------------------------------------

def test_exchange_guard_refuses_dim():
    # a unary successor-with-sink violates the exchange property
    alg = AlgebraInstance(3, [Operation(1, (1, 2, 2))])
    assert not alg.verify_exchange_property()
    with pytest.raises(NotIndependenceAlgebra):
        alg.dim()


def test_custom_round_trip(A):
    back = AlgebraInstance.from_dict(A.to_dict())
    assert back.size == A.size
    assert back.ops[0].table == A.ops[0].table


# --- partial endomorphisms and the wreath bridge ----------------------------------------------

def test_pend_counts_and_identity():
    alg = builtin_algebra("act2_2")
    t = pend_table(alg)
    from actionpairs.wreath import wreath_size
    assert t.size == wreath_size(2, "PT", 2) == 25
    assert t.identity is not None


def test_pend_left_restriction():
    alg = builtin_algebra("act2_2")
    t = pend_table(alg)
    els = t.elements
    for x in els:
        assert ptrans.plus(x) * x == x
        for y in els:
            assert ptrans.plus(x) * ptrans.plus(y) == \
                ptrans.plus(y) * ptrans.plus(x)
            assert x * ptrans.plus(y) == ptrans.plus(x * y) * x


def test_free_act_wreath_bridge():
    assert indalg.free_act_wreath_iso(monoid_table("c2"), 2)
    assert indalg.free_act_wreath_iso(monoid_table("c1"), 2)


def test_free_acts_at_their_size_limits():
    # |G| = 4 and |X| = 3 are the largest free acts built; one more is refused
    from actionpairs.fmonoid import table_from_elements
    z4 = table_from_elements(range(4), lambda a, b: (a + b) % 4, identity=0)
    assert free_act(z4, 1).size == 4
    assert free_act(monoid_table("c3"), 3).size == 9
    with pytest.raises(ValueError, match="limited"):
        free_act(monoid_table("c2"), 4)
    z5 = table_from_elements(range(5), lambda a, b: (a + b) % 5, identity=0)
    with pytest.raises(ValueError, match="limited"):
        free_act(z5, 1)


def test_gamma_lists_the_automorphisms_itself(A):
    # without a list, gamma searches the automorphisms of fl93 on its own
    autos = automorphisms(A)
    for kappa in (0, 1, 2):
        assert gamma(A, kappa) == gamma(A, kappa, autos)
    # a list it is given is the one it filters
    assert gamma(A, 0, autos[:0]) == []
