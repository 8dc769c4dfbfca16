"""Which campaign checks fail when a counting kernel is wrong.

Each counting kernel is rebound everywhere with 1 added to the weight of
its first key, and ``verify("all")`` over the fault family must fail
exactly the checks listed for it.  A kernel that no check reads names the
unit tests that guard it instead."""

import pytest

import reference_kernels as ref
import test_cli
import test_route_kernels
from test_word_checks import FAULT_FAMILY, rebind_everywhere

from gesselgamma import c_polynomial_enum, counts, verify

# Kernel -> the checks that fail when its first key's weight is off by one.
COUNTING_FAULTS = {
    "_perms_keys": {"T5.2"},
    "_mma_keys": {"T6.1", "T6.2"},
    "_slot_keys": {"T3.1", "T6.2"},
    # The harness's extract route is the pass's polynomial, so no check
    # calls c_polynomial_enum; the unit tests named below guard it.
    "_enum_keys": set(),
}


def with_the_first_key_raised(kernel):
    """``kernel`` with 1 added to the weight of the first key it gives."""
    def raised(*args, **kwargs):
        keys = kernel(*args, **kwargs)
        if not keys:
            return keys
        (key, weight), *rest = keys
        return ((key, weight + 1), *rest)
    return raised


def test_every_counting_kernel_has_a_row():
    kernels = {name for name in vars(counts) if name.startswith("_") and name.endswith("_keys")}
    assert kernels == set(COUNTING_FAULTS)


@pytest.mark.parametrize("kernel", COUNTING_FAULTS)
def test_a_counting_kernel_fault_fails_exactly_its_checks(monkeypatch, kernel):
    original = getattr(counts, kernel)
    rebind_everywhere(monkeypatch, original, with_the_first_key_raised(original))
    report = verify("all", FAULT_FAMILY)
    failing = {r.check for r in report.reports if any(o.status == "FAIL" for o in r.outcomes)}
    assert failing == COUNTING_FAULTS[kernel]


def test_the_enum_kernel_fault_shows_where_its_unit_tests_look(monkeypatch):
    # Both compare c_polynomial_enum with fixed or per-word outputs.
    assert callable(test_route_kernels.test_gap_routes_match_the_per_word_routes)
    assert callable(test_cli.test_counting_route_outputs_are_frozen)
    rebind_everywhere(monkeypatch, counts._enum_keys,
                      with_the_first_key_raised(counts._enum_keys))
    for m in FAULT_FAMILY:
        assert c_polynomial_enum(m) != ref.c_polynomial_enum(list(ref.enumerate_stirling(m))), m
