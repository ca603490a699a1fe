"""The benchmark's copies of the check set agree with ``assembly.REGISTRY``.

``bench/spans.py`` names one span per check and ``bench/gate.py`` counts
the checks each suite reports; both are typed in there, so these tests
load the two files as they stand and compare them with the registry
that ``verify`` runs.
"""
import os
import runpy

from berger import assembly, invariant

BENCH = os.path.join(os.path.dirname(__file__), "..", "bench")


def load(name):
    return runpy.run_path(os.path.join(BENCH, name + ".py"))


def suite_size(suite):
    return sum(suite in suites for _, _, suites in assembly.REGISTRY)


def test_span_names_are_the_registry_in_order():
    assert load("spans")["CHECK_NAMES"] == tuple(
        name for name, _, _ in assembly.REGISTRY)


def test_gate_check_counts_are_the_suite_sizes():
    refs = load("gate")["REFERENCES"]
    assert (refs["fast_checks"], refs["all_checks"]) == (
        suite_size("fast"), suite_size("all"))


def test_assembly_carries_the_invariant_names_bench_reads():
    # spans.py wraps assembly.compute_ek at every binding; workloads.py
    # calls assembly.spectral_gap_certificate
    for name in ("compute_ek", "spectral_gap_certificate"):
        assert getattr(assembly, name) is getattr(invariant, name)
