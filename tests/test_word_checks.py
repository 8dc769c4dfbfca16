"""The per-word checks' one pass over the words, ORBIT and T4.3, which read
slot tables, against the object-tree check bodies they replaced
(``reference_checks``), with correct kernels and with corrupted ones.  A
corrupted flip is a pair where the harness and the reference call
different kernels: a package kernel on slot tables and a
``reference_kernels`` body on object trees, so the two share no flip code.
A corrupted canonicity test corrupts ``placements`` and
``is_canonical_table``, which the harness's ORBIT reads, and the
reference's ``is_canonical`` alike."""

import ast
import sys
from itertools import product
from math import comb

import pytest

import reference_checks as ref
import reference_kernels as ref_kernels

from gesselgamma import Multiset, default_campaign_family, harness, trees
from gesselgamma.action import (
    BalanceReport,
    canonical_representative,
    canonical_table,
    is_canonical,
    is_canonical_table,
    orbit,
    placements,
    prune,
    table_orbit,
)
from gesselgamma.harness import CHECKS, CheckOutcome, run_campaign
from gesselgamma.poly import UVZ, Poly3, substitute_uv
from gesselgamma.stirling import (
    StatProfile,
    StirlingPermutation,
    asc_des_plat,
    count_stirling,
    first_last_positions,
    statistics,
    word_text,
)
from gesselgamma.trees import (
    GesselTree,
    LeafCensus,
    gessel_forward,
    leaf_census,
    table_census,
    table_of_word,
    validate_tree,
    word_of_table,
)

WORD_IDS = ["P2.1", "JKP-ZJ", "P2.2", "P5.1", "P6.3"]
IDS = WORD_IDS + ["ORBIT"]
FAULT_FAMILY = sorted(
    {Multiset(mults) for mults in [(1,), (2,), (1, 1), (2, 2), (1, 2, 1), (2, 1, 2),
                                   (3, 1, 2), (1, 1, 1, 1), (2, 2, 2), (2, 2, 2, 2),
                                   (3, 3, 3), (1, 3, 2, 1)]},
    key=lambda m: m.mults)


def reference_outcomes(ids, members):
    """Outcome JSON per check id, cell by cell as the harness reports them."""
    out = {cid: [] for cid in ids}
    for m in members:
        ctx = ref.Context(m)
        for cid in ids:
            if not CHECKS[cid].applies_to(m):
                outcome = CheckOutcome(m.spec(), "SKIP", "check applies to doubled multisets only")
            else:
                try:
                    failures = ref.CHECKS[cid](m, ctx)
                except Exception as exc:
                    failures = [{"multiset": m.spec(), "detail": f"exception: {exc!r}"}]
                outcome = (CheckOutcome(m.spec(), "FAIL", failures[0].get("detail"), failures[0])
                           if failures else CheckOutcome(m.spec(), "PASS"))
            out[cid].append(outcome.to_json_dict())
    return out


def harness_outcomes(ids, members):
    report = run_campaign(ids, members)
    return {r.check: [o.to_json_dict() for o in r.outcomes] for r in report.reports}


def rebind_everywhere(monkeypatch, original, fake):
    """Rebind every package and reference binding of a kernel to ``fake``."""
    modules = [mod for name, mod in sys.modules.items()
               if name.startswith("gesselgamma") or name == ref.__name__]
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                monkeypatch.setattr(mod, attr, fake)


def without_root_y(c):
    """Hides the y-leaf of vertex 1."""
    if not c.per_vertex.get(1, (False, False, 0))[1]:
        return c
    has_x, _, z_count = c.per_vertex[1]
    return LeafCensus(c.xleaf, c.yleaf - 1, c.zleaf, c.zleaf_by_j,
                      c.per_vertex | {1: (has_x, False, z_count)})


def with_a_z_leaf_moved(c):
    """Moves one z-leaf of the largest vertex to the vertex below it in label order."""
    n = len(c.per_vertex)
    if n < 2 or not c.per_vertex[n][2]:
        return c
    hx, hy, zc = c.per_vertex[n]
    lx, ly, lz = c.per_vertex[n - 1]
    per_vertex = c.per_vertex | {n: (hx, hy, zc - 1), n - 1: (lx, ly, lz + 1)}
    by_j = dict(c.zleaf_by_j)
    j = max(by_j)
    by_j[j] -= 1
    by_j[j + 1] = by_j.get(j + 1, 0) + 1
    return LeafCensus(c.xleaf, c.yleaf, c.zleaf, {j: v for j, v in by_j.items() if v},
                      per_vertex)


def with_a_z_leaf_lost(c):
    """Counts one z-leaf fewer in the total, and nowhere else."""
    if not c.zleaf:
        return c
    return LeafCensus(c.xleaf, c.yleaf, c.zleaf - 1, c.zleaf_by_j, c.per_vertex)


def census_fault(fault):
    """The census of a table, and of a tree, with ``fault`` applied once."""
    return [(table_census, lambda table: fault(table_census(table))),
            (leaf_census, lambda t: fault(table_census(t.table)))]


def positions_with_last_y_flipped(word, n):
    """Puts the last n one place early when the word ends with it, so that
    the letter after it is n itself: the y flag of n flips."""
    first, last = first_last_positions(word, n)
    if word and word[-1] == n:
        last = [*last[:n], last[n] - 1]
    return first, last


def positions_with_the_last_at_the_first(word, n):
    """Puts the last occurrence of every value at its first."""
    first, _ = first_last_positions(word, n)
    return first, list(first)


def swap_ends(table, v):
    row = table[v]
    return table[:v] + ((row[-1], *row[1:-1], row[0]),) + table[v + 1:]


def placing(canonical):
    """A ``placements`` that yields the table of every word's tree that
    ``canonical`` passes, in place of the canonical tables."""
    def fake(m, watched):
        for s in ref_kernels.enumerate_stirling(m):
            table = table_of_word(s.word, m.mults)
            if canonical(table):
                yield [list(row) for row in table]
    return fake


def canonicity_fault(table_test, tree_test):
    """Canonicity decided by ``table_test`` on slot tables, for the harness's
    ORBIT, which takes its classes from ``placements`` and counts canonical
    members by ``is_canonical_table``, and by ``tree_test`` on object trees,
    for the reference's ORBIT, which does both by ``is_canonical``."""
    return [(placements, placing(table_test)), (is_canonical_table, table_test),
            (ref_kernels.is_canonical, tree_test)]


def table_left_alone(table):
    """Counts a table as canonical when its root has an x-leaf."""
    return is_canonical_table(table) or not table[table[0][0]][0]


def representative_left_alone(t):
    """Counts a tree as canonical when its root has an x-leaf."""
    return ref_kernels.is_canonical(t) or t.root.children[0] is None


def table_flipped_once(table):
    """Counts as canonical, in place of the canonical table, the member with
    its smallest unbalanced-x vertex flipped."""
    canon = canonical_table(table)
    free = [v for v, row in enumerate(canon) if not row[0] and row[-1]]
    return table == (swap_ends(canon, free[0]) if free else canon)


def representative_flipped_once(t):
    """Counts as canonical, in place of the representative, the member with
    its smallest unbalanced-x vertex flipped."""
    canon = ref_kernels.canonical_representative(t)
    free = sorted(v for v, (has_x, has_y, _) in ref_kernels.leaf_census(canon).per_vertex.items()
                  if has_x and not has_y)
    return t == (ref_kernels.toggle(canon, free[0]) if free else canon)


def with_full_rows_sorted(table):
    """Puts the smaller end first in every row whose ends are both filled."""
    for v, row in enumerate(table):
        if row[0] and row[-1] and row[0] > row[-1]:
            table = swap_ends(table, v)
    return table


def with_full_vertices_sorted(node):
    """Puts the smaller end first at every vertex whose ends are both vertices."""
    if node is None:
        return None
    children = [with_full_vertices_sorted(c) for c in node.children]
    first, last = children[0], children[-1]
    if first and last and first.label > last.label:
        children[0], children[-1] = last, first
    return ref_kernels.Vertex(node.label, tuple(children))


def table_merging_orbits(table):
    """Keeps one of the classes that differ by a swap of a vertex with no x-
    or y-leaf: a canonical table counts only with its full rows sorted."""
    return is_canonical_table(table) and with_full_rows_sorted(table) == table


def representative_merging_orbits(t):
    """Keeps one of the classes that differ by a swap of a vertex with no x-
    or y-leaf: a canonical tree counts only with its full vertices sorted."""
    return ref_kernels.is_canonical(t) and with_full_vertices_sorted(t.root) == t.root


def table_orbit_without_its_canonical_member(table):
    """Drops the canonical member from every table orbit of two or more tables."""
    members = table_orbit(table)
    if len(members) < 2:
        return members
    return tuple(u for u in members if not is_canonical_table(u))


def orbit_without_its_canonical_member(t):
    """Drops the canonical member from every orbit of two or more trees."""
    members = ref_kernels.orbit(t)
    if len(members) < 2:
        return members
    return frozenset(u for u in members if not ref_kernels.is_canonical(u))


def table_orbit_without_its_all_y_member(table):
    """Drops the member with no unbalanced-x vertex from every table orbit of
    two or more tables."""
    members = table_orbit(table)
    if len(members) < 2:
        return members
    return tuple(u for u in members if any(not row[0] and row[-1] for row in u))


def orbit_without_its_all_y_member(t):
    """Drops the member with no unbalanced-x vertex from every orbit of two
    or more trees."""
    members = ref_kernels.orbit(t)
    if len(members) < 2:
        return members
    return frozenset(u for u in members if any(
        has_x and not has_y for has_x, has_y, _ in ref_kernels.leaf_census(u).per_vertex.values()))


def placements_repeating_the_first(m, watched):
    """Yields the first table twice."""
    tables = placements(m, watched)
    first = [list(row) for row in next(tables)]
    yield first
    yield first
    yield from tables


def asc_des_plat_with_a_descent_raised(word):
    """Turns one descent into an ascent on every word that starts with 1 and
    does not end with 1: its last step, down to the closing 0, is a descent."""
    asc, des, plat = asc_des_plat(word)
    if word and word[0] == 1 and word[-1] != 1:
        return asc + 1, des - 1, plat
    return asc, des, plat


def statistics_raising(word, n):
    """Raises on every word that ends with its largest value, the first
    word of its multiset among them."""
    if n > 1 and word[-1] == n:
        raise ValueError(f"no profile for {word_text(word)}")
    return statistics(word, n)


def statistics_raising_late(word, n):
    """Raises on every word that starts with its largest value; those come
    last."""
    if n > 1 and word[0] == n:
        raise ValueError(f"no profile for {word_text(word)}")
    return statistics(word, n)


def positions_raising(word, n):
    """Raises on every word that enters the first copy of each value from a
    smaller letter and does not end with its largest value.  A double fall
    is a descent from a value whose first copy was entered by a descent, so
    none of these words has one."""
    prev, seen = 0, set()
    for c in word:
        if c not in seen and prev > c:
            return first_last_positions(word, n)
        seen.add(c)
        prev = c
    if word[-1] == n:
        return first_last_positions(word, n)
    raise ValueError(f"no positions for {' '.join(map(str, word))}")


# Each fault, by name: the (kernel, corrupted kernel) pairs it rebinds.
FAULTS = {
    "census_without_root_y": census_fault(without_root_y),
    "census_with_a_z_leaf_moved": census_fault(with_a_z_leaf_moved),
    "census_with_a_z_leaf_lost": census_fault(with_a_z_leaf_lost),
    "flags_with_last_y_flipped": [(first_last_positions, positions_with_last_y_flipped)],
    "last_occurrence_at_the_first": [
        (first_last_positions, positions_with_the_last_at_the_first)],
    "representative_left_alone": canonicity_fault(table_left_alone, representative_left_alone),
    "representative_flipped_once": canonicity_fault(table_flipped_once,
                                                    representative_flipped_once),
    "representative_merging_orbits": canonicity_fault(table_merging_orbits,
                                                      representative_merging_orbits),
    "orbit_without_its_canonical_member": [
        (table_orbit, table_orbit_without_its_canonical_member),
        (ref_kernels.orbit, orbit_without_its_canonical_member)],
    "orbit_without_its_all_y_member": [
        (table_orbit, table_orbit_without_its_all_y_member),
        (ref_kernels.orbit, orbit_without_its_all_y_member)],
    "triple_with_a_descent_raised": [(asc_des_plat, asc_des_plat_with_a_descent_raised)],
    "statistics_raising": [(statistics, statistics_raising)],
    "positions_raising": [(first_last_positions, positions_raising)],
}


def test_checks_match_the_reference_on_the_default_family():
    family = default_campaign_family()
    got = harness_outcomes(IDS, family)
    assert got == reference_outcomes(IDS, family)
    assert all(o["status"] != "FAIL" for outcomes in got.values() for o in outcomes)


def test_t43_matches_the_reference_on_the_default_family():
    family = default_campaign_family()
    got = harness_outcomes(["T4.3"], family)
    assert got == reference_outcomes(["T4.3"], family)
    assert all(o["status"] == "PASS" for o in got["T4.3"])


@pytest.mark.parametrize("fault", FAULTS)
def test_checks_match_the_reference_under_a_faulty_kernel(monkeypatch, fault):
    for original, fake in FAULTS[fault]:
        rebind_everywhere(monkeypatch, original, fake)
    got = harness_outcomes(IDS, FAULT_FAMILY)
    assert got == reference_outcomes(IDS, FAULT_FAMILY)
    failing = {cid for cid, outcomes in got.items()
               if any(o["status"] == "FAIL" for o in outcomes)}
    assert failing  # the fault shows, so the comparison covers a failure


@pytest.mark.parametrize("fault, check_id, detail", [
    ("flags_with_last_y_flipped", "P2.2", "occurrence flags of value "),
    ("last_occurrence_at_the_first", "P5.1", "is not the last occurrence of"),
])
def test_an_occurrence_fault_reaches_its_check(monkeypatch, fault, check_id, detail):
    for original, fake in FAULTS[fault]:
        rebind_everywhere(monkeypatch, original, fake)
    got = harness_outcomes([check_id], FAULT_FAMILY)[check_id]
    assert any(o["status"] == "FAIL" and detail in o["detail"] for o in got)


@pytest.mark.parametrize("faults, detail", [
    (FAULTS["representative_left_alone"], "canonical members, expected 1"),
    (FAULTS["representative_flipped_once"], "orbit size is not 2^(unbalanced-x vertices)"),
    (FAULTS["representative_merging_orbits"], "orbit sizes do not sum to the number of words"),
    (FAULTS["orbit_without_its_canonical_member"], "orbit has 0 canonical members, expected 1"),
    (FAULTS["orbit_without_its_all_y_member"], "orbit size is not 2^(unbalanced-x vertices)"),
    ([(placements, placements_repeating_the_first)],
     "orbit sizes do not sum to the number of words"),
    (FAULTS["triple_with_a_descent_raised"], "orbit monomial sum differs"),
], ids=["left_alone", "flipped_once", "merging_orbits", "without_canonical", "without_all_y",
        "placements_repeating_the_first", "descent_raised"])
def test_an_orbit_fault_fails_orbit(monkeypatch, faults, detail):
    for original, fake in faults:
        rebind_everywhere(monkeypatch, original, fake)
    got = harness_outcomes(["ORBIT"], FAULT_FAMILY)["ORBIT"]
    assert any(o["status"] == "FAIL" and detail in o["detail"] for o in got)


@pytest.mark.parametrize("mults", [(2, 2, 2), (1, 2, 1, 2), (3, 1, 2)])
def test_table_orbit_lists_each_member_once(mults):
    # A row with exactly one empty end has two choices, every other row
    # one; the choices of a row differ, so no member comes twice.
    for table in placements(Multiset(mults), -1):
        members = table_orbit(table)
        swappable = sum((not row[0]) != (not row[-1]) for row in table)
        assert type(members) is tuple
        assert len(members) == len(set(members)) == 2 ** swappable


def test_orbit_expects_the_terms_substitute_uv_expands():
    # ORBIT writes out what each class's monomials sum to as one binomial
    # row; it is the expansion of u^y v^ux z^z under u -> xy, v -> x + y.
    for y, ux, z in product(range(7), repeat=3):
        row = {(y + t, y + ux - t, z): comb(ux, t) for t in range(ux + 1)}
        assert row == substitute_uv(Poly3.monomial((y, ux, z), 1, UVZ)).terms


def test_a_raising_kernel_fails_only_the_checks_that_call_it(monkeypatch):
    rebind_everywhere(monkeypatch, statistics, statistics_raising)
    got = harness_outcomes(IDS, FAULT_FAMILY)
    failing = {cid for cid, outcomes in got.items()
               if any(o["status"] == "FAIL" for o in outcomes)}
    assert failing == {"JKP-ZJ", "P5.1", "P6.3"}


def test_a_raising_position_kernel_fails_p22_and_p51_with_its_exception(monkeypatch):
    # P5.1 reads no position of a word without a double fall, yet it reads
    # the positions column through the block, so it fails there as P2.2 does.
    raised_on = []
    for m in FAULT_FAMILY:
        for w in harness.enumerate_stirling(m):
            try:
                positions_raising(w, m.n)
            except ValueError:
                raised_on.append((w, m.n))
    assert raised_on
    assert all(statistics(w, n).dfall == 0 for w, n in raised_on)
    for original, fake in FAULTS["positions_raising"]:
        rebind_everywhere(monkeypatch, original, fake)
    got = harness_outcomes(IDS, FAULT_FAMILY)
    assert got == reference_outcomes(IDS, FAULT_FAMILY)
    for cid in ("P2.2", "P5.1"):
        assert any(o["status"] == "FAIL"
                   and o["detail"].startswith("exception: ValueError('no positions for ")
                   for o in got[cid])


def first_raise(kernel, words, n):
    """The index of the first word over 1..n that ``kernel`` raises on."""
    for k, w in enumerate(words):
        try:
            kernel(w, n)
        except ValueError:
            return k
    return None


@pytest.mark.parametrize("raising, raises_at, detail, sigma", [
    (statistics_raising_late, 12,
     "plateaux by occurrence index differ from z-leaves by position", "1 1 2 2 3 3"),
    (statistics_raising, 0, "exception: ValueError('no profile for 1 1 2 2 3 3')", None),
], ids=["raise_after_the_failure", "raise_at_the_failing_word"])
def test_a_failure_and_a_raise_in_one_block_come_in_word_order(monkeypatch, raising,
                                                               raises_at, detail, sigma):
    # The census fault fails JKP-ZJ on the first word, and the profiles
    # column raises at a later word of the same block, or at that word,
    # whose profile JKP-ZJ reads before its census.
    m = Multiset((2, 2, 2))
    words = list(harness.enumerate_stirling(m))
    assert len(words) <= harness.PASS_BLOCK
    assert first_raise(raising, words, m.n) == raises_at
    for original, fake in [*FAULTS["census_with_a_z_leaf_moved"], (statistics, raising)]:
        rebind_everywhere(monkeypatch, original, fake)
    got = harness_outcomes(IDS, [m])
    assert got == reference_outcomes(IDS, [m])
    (jkp,) = got["JKP-ZJ"]
    assert jkp["detail"] == detail
    assert jkp["counterexample"].get("sigma") == sigma


def test_reference_checks_take_no_flip_from_the_package():
    tree = ast.parse(open(ref.__file__).read())
    flips = {"psi", "toggle", "is_canonical", "canonical_representative", "orbit"}
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                and (node.module or "").startswith("gesselgamma") for alias in node.names}
    assert imported and not imported & flips


def test_reference_checks_never_import_the_harness():
    tree = ast.parse(open(ref.__file__).read())
    modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names]
    modules += [node.module or "" for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)]
    ours = [name for name in modules if name.split(".")[0] == "gesselgamma"]
    assert ours
    # Only submodules: the package root re-exports the harness's names.
    assert all(name.count(".") == 1 and name != "gesselgamma.harness" for name in ours)


def counting(monkeypatch, original):
    calls = []

    def counted(*args):
        calls.append(args)
        return original(*args)

    rebind_everywhere(monkeypatch, original, counted)
    return calls


@pytest.mark.parametrize("check_id, unused", [
    ("P2.1", [first_last_positions, statistics]),
    ("P2.2", [statistics]),
])
def test_one_check_runs_no_kernel_of_another(monkeypatch, check_id, unused):
    calls = [counting(monkeypatch, f) for f in unused]
    report = run_campaign([check_id], FAULT_FAMILY)
    assert report.passed
    assert all(c == [] for c in calls)


def test_a_doubled_only_check_adds_no_work_on_other_multisets(monkeypatch):
    profiles = counting(monkeypatch, statistics)
    others = [m for m in FAULT_FAMILY if not m.is_uniform(2)]
    assert run_campaign(["P2.1", "P6.3"], others).passed
    assert profiles == []


def test_each_word_gets_one_profile_and_one_census(monkeypatch):
    # Every column of a block is built once per word, however many of the
    # per-word checks read it.
    profiles = counting(monkeypatch, statistics)
    censuses = counting(monkeypatch, table_census)
    tables, triples, ends = (counting(monkeypatch, f)
                             for f in (table_of_word, asc_des_plat, first_last_positions))
    members = [m for m in FAULT_FAMILY if m.is_uniform(2)]
    assert run_campaign(WORD_IDS, members).passed
    words = [w for m in members for w in harness.enumerate_stirling(m)]
    assert sorted(word for word, _ in profiles) == sorted(words)
    assert len(censuses) == len(words)
    for calls in (tables, triples, ends):
        assert sorted(word for word, *_ in calls) == sorted(words)


def test_table_checks_build_no_object_tree(monkeypatch):
    kernels = [gessel_forward, canonical_representative, is_canonical, prune, orbit]
    calls = [counting(monkeypatch, f) for f in kernels]
    built = []
    check = GesselTree.__post_init__

    def counted_check(self):
        built.append(self)
        check(self)

    monkeypatch.setattr(GesselTree, "__post_init__", counted_check)
    assert run_campaign(["ORBIT", "T4.3", *WORD_IDS], FAULT_FAMILY).passed
    assert [len(c) for c in calls] == [0] * len(kernels)
    assert built == []


def test_orbit_reads_each_class_off_its_placement(monkeypatch):
    # Per class one orbit and one census of the table placements yields,
    # uncopied; per member one canonicity test, word and triple; and for a
    # passing class no polynomial and no expansion.
    per_class = [counting(monkeypatch, f) for f in (table_orbit, table_census)]
    per_member = [counting(monkeypatch, f)
                  for f in (is_canonical_table, word_of_table, asc_des_plat)]
    expansions = counting(monkeypatch, substitute_uv)
    polys = []
    monkeypatch.setattr(Poly3, "__init__", lambda self, *args: polys.append(args))
    assert run_campaign(["ORBIT"], FAULT_FAMILY).passed
    classes = sum(1 for m in FAULT_FAMILY for _ in placements(m, -1))
    words = sum(count_stirling(m) for m in FAULT_FAMILY)
    assert [len(calls) for calls in per_class] == [classes, classes]
    assert all(type(table) is list for calls in per_class for table, in calls)
    assert [len(calls) for calls in per_member] == [words] * 3
    assert expansions == [] and polys == []


def test_roundtrip_validates_each_tree_once(monkeypatch):
    validations = counting(monkeypatch, validate_tree)
    assert run_campaign(["ROUNDTRIP"], FAULT_FAMILY).passed
    words = sum(len(list(harness.enumerate_stirling(m))) for m in FAULT_FAMILY)
    assert len(validations) == words


def test_roundtrip_builds_no_multiset_in_parse_tree(monkeypatch):
    # The parse is over the multiset under check, so it builds its tree over
    # that one; parse_tree builds a Multiset only when none is given.
    built = []

    def counted(*args):
        built.append(args)
        return Multiset(*args)

    monkeypatch.setattr(trees, "Multiset", counted)
    assert run_campaign(["ROUNDTRIP"], [Multiset((2, 2, 2))]).passed
    assert built == []
    trees.parse_tree("(1 * *)")
    assert built == [((1,),)]


def test_roundtrip_scans_each_word_once(monkeypatch):
    scans = [counting(monkeypatch, f) for f in (table_of_word, gessel_forward)]
    assert run_campaign(["ROUNDTRIP"], FAULT_FAMILY).passed
    words = sum(len(list(harness.enumerate_stirling(m))) for m in FAULT_FAMILY)
    assert sum(map(len, scans)) == words


def held_objects(obj):
    """Every object reachable from obj through attributes, dicts, lists and tuples."""
    seen = set()
    stack = [obj]
    while stack:
        x = stack.pop()
        if id(x) in seen:
            continue
        seen.add(id(x))
        yield x
        if isinstance(x, dict):
            stack.extend(x.keys())
            stack.extend(x.values())
        elif isinstance(x, (list, tuple, set, frozenset)):
            stack.extend(x)
        elif isinstance(x, harness.MultisetContext):
            stack.extend(vars(x).values())


def test_the_pass_leaves_no_profile_or_census_on_the_context(monkeypatch):
    # After every check of a campaign task has run, as _run_multiset runs
    # them: no block or what it built, no slot table (a tuple of rows), and
    # no list of words or triples (a list of tuples).
    m = Multiset.uniform(3, 2)
    ctx = harness.MultisetContext(m, tuple(sorted(CHECKS)))
    monkeypatch.setattr(harness, "_current", ctx)
    statuses = {harness._run_cell(cid, m)[0].status for cid in sorted(CHECKS)}
    assert statuses == {"PASS"}
    held = list(held_objects(ctx))
    kept = [type(x).__name__ for x in held
            if isinstance(x, (StatProfile, LeafCensus, BalanceReport, harness.PassBlock,
                              StirlingPermutation))]
    assert kept == []
    tables = [x for x in held if isinstance(x, tuple) and x
              and all(isinstance(row, tuple) for row in x)]
    assert tables == []
    lists = [x for x in held if isinstance(x, list) and any(isinstance(e, tuple) for e in x)]
    assert lists == []
