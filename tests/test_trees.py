import random
from itertools import product

import pytest

import reference_kernels as ref

from gesselgamma import (
    DomainError,
    FamilySpec,
    GesselTree,
    LeafCensus,
    Multiset,
    ParseError,
    StirlingPermutation,
    TreeValidationError,
    enumerate_stirling,
    first_last_occurrence_flags,
    gessel_decomposition,
    gessel_forward,
    gessel_inverse,
    leaf_census,
    parse_tree,
    segment,
    segment_word,
    serialize,
    statistics,
    stirling_words,
    validate_tree,
)
from gesselgamma import cli, trees
from gesselgamma.harness import default_campaign_family
from gesselgamma.trees import render_table, table_census, table_of_word

BIG_WORD = (3, 3, 5, 5, 2, 2, 1, 7, 7, 1, 4, 6, 6, 4)
BIG_TREE = "(1 (2 (3 * * (5 * * *)) * *) (7 * * *) (4 * (6 * * *) *))"
SEG_WORD = (5, 5, 3, 3, 2, 1, 1, 4, 6, 6, 6, 7, 4)
SEG_TREE = "(1 (2 (3 (5 * * *) * *) *) * (4 * (6 * * * (7 * *)) *))"


def perm(word):
    return StirlingPermutation.from_word(word)


def small_family(max_n=3, max_k=3, max_total=7):
    for n in range(1, max_n + 1):
        for mults in product(range(1, max_k + 1), repeat=n):
            if sum(mults) <= max_total:
                yield Multiset(mults)


class TestForward:
    @pytest.mark.parametrize("word,expected", [
        (BIG_WORD, BIG_TREE),
        (SEG_WORD, SEG_TREE),
        ((1,), "(1 * *)"),
        ((1, 1), "(1 * * *)"),
        ((1, 2, 2, 1), "(1 * (2 * * *) *)"),
        ((), "*"),
    ])
    def test_examples(self, word, expected):
        assert serialize(gessel_forward(perm(word))) == expected

    def test_keeps_multiset(self):
        s = perm(SEG_WORD)
        assert gessel_forward(s).multiset == s.multiset


class TestInverse:
    def test_examples(self):
        assert gessel_inverse(parse_tree(BIG_TREE)).word == BIG_WORD
        assert gessel_inverse(parse_tree(SEG_TREE)).word == SEG_WORD
        assert gessel_inverse(parse_tree("*")).word == ()

    def test_rejects_malformed(self):
        # A table with too few slots for its multiset is refused when it is
        # built, so there is no tree to read back.
        with pytest.raises(TreeValidationError) as info:
            GesselTree(((1,), (0, 0)), Multiset((2,)))
        assert str(info.value) == "invalid tree: vertex 1 has 2 children, expected 3"

    def test_roundtrips_over_family(self):
        for m in small_family():
            seen = set()
            for w in enumerate_stirling(m):
                t = gessel_forward(StirlingPermutation(w, m))
                assert gessel_inverse(t).word == w
                text = serialize(t)
                assert serialize(gessel_forward(gessel_inverse(t))) == text
                seen.add(text)
            assert len(seen) == sum(1 for _ in enumerate_stirling(m))


class TestLeafCensus:
    def test_big_example(self):
        census = leaf_census(gessel_forward(perm(BIG_WORD)))
        assert census.triple == (5, 5, 5)
        assert census.zleaf_by_j == {2: 5}
        assert census.per_vertex[2] == (False, True, 1)
        assert census.per_vertex[5] == (True, True, 1)

    def test_two_children_vertex_has_no_z_slot(self):
        census = leaf_census(gessel_forward(perm((1,))))
        assert census.triple == (1, 1, 0)
        assert census.zleaf_by_j == {}

    def test_empty_tree(self):
        census = leaf_census(gessel_forward(perm(())))
        assert census.triple == (0, 0, 0)
        assert census.per_vertex == {}

    def test_a_census_keeps_its_fields_in_order_and_cannot_be_changed(self):
        census = leaf_census(parse_tree(BIG_TREE))
        assert LeafCensus._fields == ("xleaf", "yleaf", "zleaf", "zleaf_by_j", "per_vertex")
        assert census[:3] == census.triple == (5, 5, 5)
        assert census.zleaf_by_j == {2: 5}
        assert census[4] is census.per_vertex
        assert list(census.per_vertex.items()) == [
            (1, (False, False, 0)), (4, (True, True, 0)), (6, (True, True, 1)),
            (7, (True, True, 1)), (2, (False, True, 1)), (3, (True, False, 1)),
            (5, (True, True, 1))]
        for field in [*LeafCensus._fields, "triple"]:
            with pytest.raises(AttributeError):
                setattr(census, field, 0)
        assert census == table_census(table_of_word(BIG_WORD, (2,) * 7))

    def test_census_matches_statistics_over_family(self):
        for m in small_family():
            for w in enumerate_stirling(m):
                prof = statistics(w, m.n)
                census = leaf_census(gessel_forward(StirlingPermutation(w, m)))
                assert census.triple == prof.triple
                assert census.zleaf_by_j == prof.plat_by_j
                assert census.xleaf + census.yleaf + census.zleaf == m.K + 1


class TestSegments:
    @pytest.mark.parametrize("i,expected", [
        (1, (5, 5, 3, 3, 2, 1, 1, 4, 6, 6, 6, 7, 4)),
        (2, (5, 5, 3, 3, 2)),
        (3, (5, 5, 3, 3)),
        (4, (4, 6, 6, 6, 7, 4)),
        (5, (5, 5)),
        (6, (6, 6, 6, 7)),
        (7, (7,)),
    ])
    def test_segment_table(self, i, expected):
        assert segment_word(perm(SEG_WORD), i) == expected

    def test_windows_are_one_based_inclusive(self):
        s = perm(SEG_WORD)
        assert segment(s, 2) == (1, 5)
        assert segment(s, 6) == (9, 12)
        assert segment(s, 7) == (12, 12)

    def test_maximality_matters(self):
        # both (2,7) and (4,7) contain all the 2's with elements >= 2;
        # the segment is the maximal such window
        s = perm((1, 3, 3, 4, 4, 2, 2, 1))
        assert segment(s, 2) == (2, 7)
        assert segment_word(s, 2) == (3, 3, 4, 4, 2, 2)

    def test_segment_rejects_absent_value(self):
        with pytest.raises(DomainError):
            segment(perm((1, 1)), 2)

    def test_segment_properties_over_family(self):
        for m in small_family():
            for w in enumerate_stirling(m):
                for i in range(1, m.n + 1):
                    r, t = segment(StirlingPermutation(w, m), i)
                    window = w[r - 1 : t]
                    assert all(v >= i for v in window)
                    assert window.count(i) == m.multiplicity(i)
                    # maximal: the neighbours, when they exist, are smaller
                    assert r == 1 or w[r - 2] < i
                    assert t == m.K or w[t] < i

    @pytest.mark.parametrize("i,expected", [
        (1, ((5, 5, 3, 3, 2), (), (4, 6, 6, 6, 7, 4))),
        (4, ((), (6, 6, 6, 7), ())),
        (7, ((), ())),
    ])
    def test_decomposition_examples(self, i, expected):
        assert gessel_decomposition(perm(SEG_WORD), i) == expected

    def test_decomposition_factors_are_segments_of_their_minima(self):
        for m in small_family():
            for w in enumerate_stirling(m):
                s = StirlingPermutation(w, m)
                for i in range(1, m.n + 1):
                    r, _ = segment(s, i)
                    factors = gessel_decomposition(s, i)
                    assert len(factors) == m.multiplicity(i) + 1
                    rebuilt = factors[0]
                    for f in factors[1:]:
                        rebuilt = rebuilt + (i,) + f
                    assert rebuilt == segment_word(s, i)
                    offset = r  # 1-based start of the current factor
                    for f in factors:
                        if f:
                            assert segment(s, min(f)) == (offset, offset + len(f) - 1)
                        offset += len(f) + 1


class TestOccurrenceFlags:
    def test_examples(self):
        s = perm(SEG_WORD)
        assert first_last_occurrence_flags(s, 5) == (True, True)
        assert first_last_occurrence_flags(s, 2) == (False, True)
        with pytest.raises(DomainError):
            first_last_occurrence_flags(s, 8)

    def test_flags_match_leaves_over_family(self):
        for m in small_family():
            for w in enumerate_stirling(m):
                s = StirlingPermutation(w, m)
                census = leaf_census(gessel_forward(s))
                for i in range(1, m.n + 1):
                    has_x, has_y, _ = census.per_vertex[i]
                    assert first_last_occurrence_flags(s, i) == (has_x, has_y)


def refusal(table, mults):
    """The (kind, vertex, message) of each defect building a tree refuses."""
    with pytest.raises(TreeValidationError) as info:
        GesselTree(table, Multiset(mults))
    return [(v.kind, v.vertex, v.message) for v in info.value.violations]


class TestValidation:
    def test_valid_tree_has_no_violations(self):
        assert validate_tree(parse_tree(BIG_TREE)) == []

    def test_arity_violation(self):
        assert refusal(((1,), (0, 0)), (2,)) == [
            ("arity", 1, "vertex 1 has 2 children, expected 3")]

    def test_increasing_violation(self):
        assert refusal(((2,), (0, 0), (1, 0)), (1, 1)) == [
            ("increasing", 1, "edge (2 -> 1) is not label-increasing")]

    def test_missing_and_duplicate_labels(self):
        assert refusal(((1,), (0, 0)), (1, 1)) == [("labels", 2, "vertex 2 is missing")]
        # vertex 2 in a slot and as a row is one defect
        assert refusal(((1,), (2, 0), (0, 0)), (1,)) == [
            ("labels", 2, "vertex label 2 outside 1..1")]
        assert refusal(((1,), (1, 0)), (1, 1)) == [
            ("labels", 1, "vertex 1 appears more than once"), ("labels", 2, "vertex 2 is missing")]

    def test_empty_tree_rules(self):
        assert validate_tree(GesselTree(((0,),), Multiset(()))) == []
        assert refusal(((0,),), (1,)) == [
            ("structure", None, "root must be an internal vertex for {1}")]
        assert refusal(((1,), (0, 0)), ()) == [
            ("structure", None, "tree over the empty multiset must be a single leaf")]

    def test_every_family_table_is_accepted(self):
        tables = [(table_of_word(w, m.mults), m)
                  for m in default_campaign_family() for w in stirling_words(m)]
        assert len(tables) == 25960
        assert all(validate_tree(GesselTree(table, m)) == [] for table, m in tables)

    @pytest.mark.parametrize("argv, calls", [
        (["perm", "--tree", SEG_TREE], 1),
        (["orbit", "--perm", "1122"], 2),  # one per member: the orbit has 2
    ], ids=["perm", "orbit"])
    def test_each_tree_a_command_builds_is_validated_once(self, monkeypatch, capsys, argv,
                                                           calls):
        counted = []

        def counting(t):
            counted.append(t)
            return validate_tree(t)

        monkeypatch.setattr(trees, "validate_tree", counting)
        assert cli.main(argv) == 0
        assert len(counted) == calls


class TestParse:
    def test_parse_infers_multiset(self):
        t = parse_tree(SEG_TREE)
        assert t.multiset == Multiset((2, 1, 2, 2, 2, 3, 1))

    def test_parse_checks_supplied_multiset(self):
        parse_tree("(1 * *)", Multiset((1,)))
        with pytest.raises(DomainError):
            parse_tree("(1 * *)", Multiset((2,)))

    @pytest.mark.parametrize("text", [
        "(1 * *",            # unclosed
        "(1 * *))",          # trailing
        "1 * *",             # no parens
        "(x * *)",           # bad label
        "(\u00b2 * *)",      # a digit character that is not a decimal
        "()",                # no label
        "",                  # empty
        "(1 * *) *",         # trailing child
    ])
    def test_parse_syntax_errors(self, text):
        with pytest.raises(ParseError):
            parse_tree(text)

    @pytest.mark.parametrize("text", [
        "(2 * *)",           # vertex 1 missing
        "(1 (1 * *) *)",     # duplicate label
        "(1 *)",             # single child means multiplicity zero
        "(1 (3 * *) *)",     # vertex 2 missing
    ])
    def test_parse_validation_errors(self, text):
        with pytest.raises(TreeValidationError):
            parse_tree(text)

    @pytest.mark.parametrize("text, multiset, error, message", [
        ("(1 (2 * *) (2 * *))", None, TreeValidationError,
         "invalid tree: vertex 2 appears more than once"),
        ("(1 (2 *) *)", None, TreeValidationError,
         "invalid tree: vertex 2 has 1 children, expected at least 2"),
        ("(1 (4 * *) *)", None, TreeValidationError,
         "invalid tree: vertex label 4 outside 1..2"),
        ("(1 * (2 * *))", Multiset((1, 2)), DomainError,
         "tree implies multiset {1,1} but {1,2} was given"),
        ("(1 (3 (2 * *) *) *)", None, TreeValidationError,
         "invalid tree: edge (3 -> 2) is not label-increasing"),
    ], ids=["duplicate", "one-child", "missing", "multiset", "non-increasing"])
    def test_parse_names_a_single_defect(self, text, multiset, error, message):
        with pytest.raises(error) as info:
            parse_tree(text, multiset)
        assert type(info.value) is error
        assert str(info.value) == message

    @pytest.mark.parametrize("text", [
        "(1 * (10000000 * *))", "(0 * *)",
    ])
    def test_parse_names_an_outlying_label_briefly(self, text):
        with pytest.raises(TreeValidationError) as info:
            parse_tree(text)
        assert len(str(info.value)) < 200
        assert str(info.value).startswith("invalid tree: vertex label ")

    def test_parse_refuses_a_label_too_long_to_convert(self):
        with pytest.raises(ParseError) as info:
            parse_tree("(1 * (" + "9" * 5000 + " * *))")
        assert str(info.value) == "vertex label of 5000 digits is too long"

    def test_parse_is_whitespace_tolerant(self):
        assert parse_tree("( 1  *  * )") == parse_tree("(1 * *)")

    def test_serialize_parse_roundtrip_over_family(self):
        for m in small_family(max_n=3, max_k=2, max_total=6):
            for w in enumerate_stirling(m):
                t = gessel_forward(StirlingPermutation(w, m))
                assert parse_tree(serialize(t)) == t

    def test_deep_chain_equality_and_hash(self):
        word = tuple(range(1, 1201)) + tuple(range(1200, 0, -1))
        t = gessel_forward(StirlingPermutation.from_word(word))
        back = parse_tree(serialize(t))
        assert back is not t and back.table is not t.table
        assert back == t
        assert hash(back) == hash(t)
        assert len({t, back}) == 1

    def test_equality_tells_every_tree_apart(self):
        for m in small_family(max_n=3, max_k=2, max_total=6):
            trees = [gessel_forward(StirlingPermutation(w, m)) for w in enumerate_stirling(m)]
            copies = [parse_tree(serialize(t)) for t in trees]
            assert len(set(trees)) == len(trees)
            assert set(trees) == set(copies)
            assert all(hash(a) == hash(b) for a, b in zip(trees, copies))

    def test_equality_compares_the_multiset_and_plane_order(self):
        t = parse_tree("(1 * (2 * *))")
        # A table fixes its multiset: the same rows over another are refused.
        assert refusal(t.table, (1, 2)) == [
            ("arity", 2, "vertex 2 has 2 children, expected 3")]
        assert t != parse_tree("(1 (2 * *) *)")


def parse_outcome(parse, text):
    """The tree ``parse`` returns, or the type and message of what it raises."""
    try:
        return parse(text)
    except Exception as exc:
        return type(exc), str(exc)


def family_texts():
    return [render_table(table_of_word(w, m.mults))
            for m in default_campaign_family() for w in enumerate_stirling(m)]


def mutated_texts(texts, seed, count):
    """Tree texts with one token deleted, duplicated or swapped with another,
    a label replaced by a bad or wrong one, or a stray token inserted."""
    rng = random.Random(seed)
    bad_labels = ["0", "x", "99", "-1", "1.5", "\u00b2", "007", "9" * 5000]
    for _ in range(count):
        tokens = rng.choice(texts).replace("(", " ( ").replace(")", " ) ").split()
        i = rng.randrange(len(tokens))
        j = rng.randrange(len(tokens))
        kind = rng.randrange(6)
        if kind == 0:
            del tokens[i]
        elif kind == 1:
            tokens.insert(i, tokens[i])
        elif kind == 2:
            tokens[i], tokens[j] = tokens[j], tokens[i]
        elif kind == 3:
            labels = [k for k, tok in enumerate(tokens) if tok.isdecimal()]
            if labels:
                tokens[rng.choice(labels)] = rng.choice(bad_labels + [tokens[rng.choice(labels)]])
        elif kind == 4:
            tokens.insert(i, ")")
        else:
            tokens.insert(i, rng.choice(["(", "*", "( 1", "( 2 * *"]))
        yield " ".join(tokens)


class TestParserAgainstTheReference:
    """The one-pass parser against the index-driven loop it replaced
    (``reference_kernels.parse_tree``): the same tree, or an exception of
    the same type with the same message."""

    def test_every_family_tree_parses_alike(self):
        texts = family_texts()
        assert len(texts) == 25960
        for text in texts:
            got = parse_tree(text)
            assert got == parse_outcome(ref.parse_tree, text), text
            assert render_table(got.table) == text

    def test_mutated_texts_fail_alike(self):
        outcomes = {}
        for text in mutated_texts(family_texts(), seed=15, count=20000):
            got = parse_outcome(parse_tree, text)
            assert got == parse_outcome(ref.parse_tree, text), text
            kind = "tree" if isinstance(got, GesselTree) else got[0].__name__
            outcomes[kind] = outcomes.get(kind, 0) + 1
        # the corpus reaches every outcome: a tree, and both kinds of refusal
        assert set(outcomes) == {"tree", "ParseError", "TreeValidationError"}, outcomes
        assert min(outcomes.values()) > 500, outcomes

    @pytest.mark.parametrize("text", [
        "", "*", "* *", ")", "(", "(1", "(1 *", "(1 * *", "(1 * *) *", "(1 * *))",
        "( )", "(1 (2 * *) (2 *) *)", "(1 (2 *) (2 * *) *)", "(3 (1 * *) *)",
        "(1 * * (3 * *) (2 *))", "(0 * *)", "(1 * (" + "9" * 5000 + " * *))",
    ])
    def test_edge_texts_fail_alike(self, text):
        assert parse_outcome(parse_tree, text) == parse_outcome(ref.parse_tree, text)


class TestSlotTables:
    @pytest.mark.parametrize("family", [default_campaign_family, FamilySpec(5, 3, 11).members],
                             ids=["default", "5-3-11"])
    def test_table_of_word_is_the_table_of_the_forward_tree(self, family):
        # The reference builds the tree by recursive splitting at the minimum.
        for m in family():
            for w in enumerate_stirling(m):
                s = StirlingPermutation(w, m)
                table = table_of_word(w, m.mults)
                assert table == ref.gessel_tree(ref.gessel_forward(s)).table, s
                assert all(type(row) is tuple for row in table)

    def test_table_round_trips_through_the_object_tree(self):
        t = gessel_forward(perm(SEG_WORD))
        table = table_of_word(SEG_WORD, t.multiset.mults)
        assert table == ((1,), (2, 0, 4), (3, 0), (5, 0, 0), (0, 6, 0), (0, 0, 0),
                         (0, 0, 0, 7), (0, 0))
        assert t.table == table
        assert serialize(GesselTree(table, t.multiset)) == SEG_TREE
        assert table_census(table) == leaf_census(t)

    def test_empty_word(self):
        assert table_of_word((), ()) == ((0,),) == gessel_forward(perm(())).table
        assert table_census(((0,),)) == leaf_census(GesselTree(((0,),), Multiset(())))
        assert table_census(((0,),)).triple == (0, 0, 0)
