import pytest

from gesselgamma import Multiset, ParseError


def test_parse_and_spec_roundtrip():
    m = Multiset.parse("2,1,2,2,2,3,1")
    assert m.mults == (2, 1, 2, 2, 2, 3, 1)
    assert m.n == 7
    assert m.K == 13
    assert m.spec() == "2,1,2,2,2,3,1"
    assert Multiset.parse(m.spec()) == m


def test_parse_tolerates_spaces():
    assert Multiset.parse(" 2 , 2 ") == Multiset((2, 2))


def test_empty_multiset():
    m = Multiset.parse("")
    assert m == Multiset(())
    assert m.n == 0 and m.K == 0
    assert m.spec() == ""


@pytest.mark.parametrize("text", ["0", "2,0", "-1", "a", "2,,2", "1.5"])
def test_parse_rejects_bad_specs(text):
    with pytest.raises(ParseError):
        Multiset.parse(text)


def test_constructor_rejects_nonpositive():
    with pytest.raises(ParseError):
        Multiset((2, 0))


def test_a_multiset_built_from_a_list_is_the_one_built_from_its_tuple():
    m = Multiset([2, 2])
    assert m == Multiset((2, 2)) and m.mults == (2, 2)
    assert hash(m) == hash(Multiset((2, 2)))
    assert {m, Multiset((2, 2))} == {Multiset.parse("2,2")}
    assert m.spec() == "2,2"
    assert Multiset([]) == Multiset(())
    with pytest.raises(ParseError):
        Multiset([2, 0])


def test_multiplicity_lookup():
    m = Multiset((2, 1, 3))
    assert [m.multiplicity(v) for v in (1, 2, 3)] == [2, 1, 3]
    with pytest.raises(KeyError):
        m.multiplicity(4)
    with pytest.raises(KeyError):
        m.multiplicity(0)


def test_uniform():
    assert Multiset.uniform(3, 2) == Multiset((2, 2, 2))
    assert Multiset.uniform(3, 2).is_uniform(2)
    assert not Multiset((2, 1, 2)).is_uniform(2)
    assert not Multiset(()).is_uniform(2)


@pytest.mark.parametrize("mults", [(True, 2), (2, True), (False,), (2.0,)])
def test_constructor_rejects_bools_and_floats(mults):
    # a bool would compare and hash equal to 1 but render as "True"
    with pytest.raises(ParseError):
        Multiset(mults)
