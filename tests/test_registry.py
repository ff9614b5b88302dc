"""Subset kinds of the wreath ambients against their plain definitions."""

import pytest

from actionpairs import ptrans, registry

from conftest import naive_subset_ids


KINDS = (list(ptrans.FAMILY_KINDS) + ["M0n", "Mn"]
         + [f"pmap:{k}" for k in ptrans.FAMILY_KINDS])


@pytest.mark.parametrize("base", registry.BASE_MONOIDS)
@pytest.mark.parametrize("n", (1, 2, 3))
def test_every_subset_kind_is_its_plain_definition(base, n):
    amb = registry.ambient_wreath(base, n)
    for kind in KINDS:
        assert registry.subset_ids(amb, kind, n) == naive_subset_ids(amb, kind, n), kind


def test_every_catalogue_product_kind_is_a_family():
    assert {row[5] for row in registry.CATALOGUE} <= set(ptrans.FAMILY_KINDS)
    assert registry.U_KINDS == ("E", "SingE", "M0n", "Mn")
    assert set(registry.S_KINDS) == {"PT", "T", "I", "G", "SingPT", "SingT", "SingI"}


@pytest.mark.parametrize("kind", ["Sing", "pmap:M0n", "pmap:Mn", "pmap:", "pmapE"])
def test_an_unknown_subset_kind_is_a_key_error_naming_it(kind):
    amb = registry.ambient_wreath("c2", 2)
    with pytest.raises(KeyError, match=repr(kind)):
        registry.subset_ids(amb, kind, 2)
