"""Type-I structural descriptions: invariant, equivalence, tensor calculus."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from dilogic import family, typei
from dilogic.errors import InputError, ValidationError

F = Fraction


def desc(components, remainder=0):
    return typei.TypeIDescription(tuple(components), F(remainder))


M2 = typei.matrix_point_mass(2)
M3 = typei.matrix_point_mass(3)


# ---------------------------------------------------------------------------
# Construction and validation


def test_constructor_canonicalizes():
    d = desc([(2, (F(1, 3),), F(0)), (2, (F(1, 3),), F(1, 3))])
    assert d.components == ((2, (F(1, 3), F(1, 3)), F(1, 3)),)


def test_constructor_sorts_atoms_descending():
    d = desc([(4, (F(1, 3), F(2, 3)), F(0))])
    assert d.components[0][1] == (F(2, 3), F(1, 3))


def test_constructor_rejections():
    with pytest.raises(ValidationError):
        desc([(2, (F(1, 2),), F(0))])  # mass 1/2 != 1
    with pytest.raises(ValidationError):
        desc([(0, (F(1),), F(0))])  # matrix size < 1
    with pytest.raises(ValidationError):
        desc([(2, (F(-1), F(2)), F(0))])  # negative atom
    with pytest.raises(ValidationError):
        desc([(2, (F(1),), F(0))], remainder=-1)


@pytest.mark.parametrize("m", [2.7, True, F(2), "2", None],
                         ids=["float", "bool", "fraction", "string", "none"])
def test_constructor_rejects_non_integer_sizes(m):
    with pytest.raises(ValidationError):
        typei.TypeIDescription(((m, (1,), 0),))


def test_type_dichotomy():
    assert M2.is_type_one()
    mixed = desc([(1, (F(1, 2),), F(0))], remainder=F(1, 2))
    assert not mixed.is_type_one()


# ---------------------------------------------------------------------------
# The invariant


def test_rho_matrix_point_mass():
    assert typei.rho(M2) == {(2, 1): F(1)}


def test_rho_diffuse():
    d = desc([(2, (), F(1))])
    assert typei.rho(d) == {(2, 0): F(1)}


def test_rho_sorted_atoms():
    d = desc([(3, (F(1, 3), F(2, 3)), F(0))])
    assert typei.rho(d) == {(3, 1): F(2, 3), (3, 2): F(1, 3)}


def test_rho_decreasing_in_n():
    d = family.random_description(__import__("random").Random(11))
    table = typei.rho(d)
    for (m, n), v in table.items():
        if n >= 2:
            assert table[(m, n - 1)] >= v


# ---------------------------------------------------------------------------
# Equivalence


def test_equiv_under_re_presentation():
    d = desc([(2, (F(1, 4), F(1, 4)), F(0)), (3, (F(1, 2),), F(0))])
    shuffled = desc([(3, (F(1, 2),), F(0)), (2, (F(1, 4),), F(0)),
                     (2, (F(1, 4),), F(0))])
    assert typei.equiv(d, shuffled)


def test_equiv_distinguishes_sizes():
    assert not typei.equiv(M2, M3)


def test_equiv_distinguishes_remainder():
    # Same type-I part, differing remainder mass (the complement of the
    # rho mass): inequivalent, and total mass forces the remainder to be
    # readable off the rho table.
    d1 = desc([(1, (F(1, 2),), F(0))], remainder=F(1, 2))
    d2 = desc([(1, (F(1, 2),), F(1, 2))])
    assert not typei.equiv(d1, d2)
    assert d1.remainder == 1 - sum(typei.rho(d1).values())
    assert d2.remainder == 1 - sum(typei.rho(d2).values())


# ---------------------------------------------------------------------------
# Tensor calculus


def test_tensor_point_masses():
    assert typei.rho(typei.tensor(M2, M3)) == {(6, 1): F(1)}


def test_tensor_direct_sum():
    d = desc([(2, (F(1, 2), F(1, 2)), F(0))])
    out = typei.tensor(d, M3)
    assert typei.rho(out) == {(6, 1): F(1, 2), (6, 2): F(1, 2)}


def test_tensor_diffuse_absorbs():
    d = desc([(1, (), F(1))])
    out = typei.tensor(d, desc([(2, (F(1, 2),), F(1, 2))]))
    assert typei.rho(out) == {(2, 0): F(1)}


def test_tensor_rejects_remainder():
    mixed = desc([(1, (F(1, 2),), F(0))], remainder=F(1, 2))
    with pytest.raises(InputError):
        typei.tensor(mixed, M2)


def test_matrix_tensor():
    assert typei.equiv(typei.matrix_tensor(M2, 1), M2)
    assert typei.rho(typei.matrix_tensor(M2, 3)) == {(6, 1): F(1)}
    with pytest.raises(InputError):
        typei.matrix_tensor(M2, 0)
    for j in (1.5, 2.0, True, F(2)):
        with pytest.raises(InputError):
            typei.matrix_tensor(M2, j)


@given(hs.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_tensor_laws_on_random_descriptions(seed):
    rng = __import__("random").Random(seed)
    d1 = family.random_description(rng)
    d2 = family.random_description(rng)
    d3 = family.random_description(rng)
    t12 = typei.tensor(d1, d2)
    assert t12.total_mass() == 1
    assert typei.equiv(t12, typei.tensor(d2, d1))
    assert typei.equiv(
        typei.tensor(t12, d3), typei.tensor(d1, typei.tensor(d2, d3))
    )
    assert typei.equiv(typei.matrix_tensor(d1, 3), typei.tensor(d1, M3))


def test_congruence_on_quadruples():
    for d1, d1p, d2, d2p in family.description_quadruples(9, 20):
        assert typei.equiv(d1, d1p)
        assert typei.equiv(d2, d2p)
        assert typei.equiv(typei.tensor(d1, d2), typei.tensor(d1p, d2p))
