"""Acceptance suite: every headline criterion, one line of output each.

Criteria run through the verification ledger at the default seed, so this
module, the command-line ``verify-paper`` run, and the JSON report all agree.
Stated runtime budgets are asserted where given.
"""

from pathlib import Path

import pytest

from braidkit import ledger as L

GOLDEN_REPORT = Path(__file__).parent / "data" / "verify_paper_seed1729.json"

CRITERIA = [
    ("01", "c01-word-problem", 10_000),
    ("02", "c02-structure-agreement", None),
    ("03", "c03-simple-lattice", None),
    ("04", "c04-cabled-half-twists", None),
    ("05", "c05-b4-identities", None),
    ("06", "c06-linking-numbers", None),
    ("07", "c07-kernel-abelianization", 60_000),
    ("08", "c08-linking-rank", None),
    ("09", "c09-conjugacy-solver", 60_000),
    ("10", "c10-pair-witnesses", None),
    ("11", "c11-atom-conjugate-shape", None),
    ("12", "c12-product-dichotomy", None),
    ("13", "c13-characters", None),
    ("14", "c14-s6-outer-automorphism", None),
    ("15", "c15-induced-matrices", None),
    ("16", "c16-cabling-roundtrip", None),
]


@pytest.fixture(scope="module")
def ledger_results():
    results = {r.check_id: r for r in L.run_ledger(seed=L.DEFAULT_SEED)}
    return results


@pytest.mark.parametrize("number,check_id,budget_ms", CRITERIA, ids=[c[1] for c in CRITERIA])
def test_criterion(ledger_results, number, check_id, budget_ms):
    result = ledger_results[check_id]
    line = (
        f"criterion {number} [{check_id}] {result.status.upper()} "
        f"({result.elapsed_ms / 1000:.1f}s): {result.details}"
    )
    print(line)
    if budget_ms is not None:
        assert result.elapsed_ms < budget_ms, f"criterion {number} exceeded its budget"
    assert result.status == "pass", line + (
        f"\ncounterexample: {result.payload}" if result.payload else ""
    )


@pytest.mark.parametrize("check_id", ["eq16-ucu", "eq16-uwu", "eq16-tct", "eq16-twt"])
def test_relation_checks_addressable(ledger_results, check_id):
    result = ledger_results[check_id]
    print(f"[{check_id}] {result.status.upper()}: {result.details}")
    assert result.status == "pass"


def test_total_runtime_under_five_minutes(ledger_results):
    total = sum(r.elapsed_ms for r in ledger_results.values())
    print(f"total ledger runtime: {total / 1000:.1f}s")
    assert total < 300_000


def test_report_matches_golden_file(ledger_results):
    # `braidkit verify-paper --seed 1729 --json` prints this report plus a
    # newline; the checked-in copy pins it byte for byte
    report = L.report_json(list(ledger_results.values())) + "\n"
    assert report.encode() == GOLDEN_REPORT.read_bytes()
