"""Release gate: every criterion in the registry recomputes its claim
through the public API and must pass, exactly and inside its wall-clock
budget. One PASS/FAIL line prints per criterion (visible with -s)."""

import time

import pytest
from dense import unit

from braidrook import acceptance, cellular, lieclosure
from braidrook.acceptance import CRITERIA, check_tangent_closures
from braidrook.matrix import Matrix


def test_registry_shape():
    assert len(CRITERIA) == 10
    names = [c.name for c in CRITERIA]
    assert len(set(names)) == 10
    assert all(c.identity and c.budget_seconds > 0 for c in CRITERIA)


@pytest.mark.parametrize("criterion", CRITERIA, ids=[c.name for c in CRITERIA])
def test_criterion(criterion):
    start = time.perf_counter()
    ok, detail = criterion.run()
    elapsed = time.perf_counter() - start
    print(f"{'PASS' if ok else 'FAIL'} {criterion.name} ({elapsed:.1f}s): {detail}")
    assert ok, f"{criterion.name} failed [{criterion.identity}]: {detail}"
    assert elapsed <= criterion.budget_seconds, (
        f"{criterion.name} took {elapsed:.1f}s; budget {criterion.budget_seconds}s"
    )


def test_tangent_closures_fails_on_a_chain_without_its_last_entry(monkeypatch):
    # A_k = b e_1,k-1 + e_1,k with the a e_1,k+1 term dropped
    def truncated(n, q):
        return [
            elem - unit(n - 1, 0, k).scale(lieclosure.LieConstants(n, q).a)
            for k, elem in enumerate(lieclosure.first_row_chain(n, q), start=2)
            if k < n - 1
        ]

    monkeypatch.setattr(acceptance, "first_row_chain", truncated)
    ok, detail = check_tangent_closures()
    assert not ok and detail.startswith("first-row chain element A_2 wrong")


def test_tangent_closures_fails_when_the_k_branch_never_runs(monkeypatch):
    def without_k(i, k, p):
        rep = lieclosure.one_param_membership(i, k, p)
        return {**rep, "checks": {**rep["checks"], "power_in_k": None}}

    monkeypatch.setattr(acceptance, "one_param_membership", without_k)
    ok, detail = check_tangent_closures()
    assert not ok and "of the one-parameter checks ran" in detail


def test_cellular_structure_fails_on_a_psi_off_by_one_power(monkeypatch):
    # z^(r-k+1) on the diagonal in place of z^(r-k)
    def bumped(y, u, z, r):
        return cellular.psi(y, u, z, r + 1)

    monkeypatch.setattr(acceptance, "psi", bumped)
    ok, detail = acceptance.check_cellular_structure()
    assert not ok and detail == "psi((),()) wrong at r=2"


def test_property_suites_fails_on_a_wrong_form(monkeypatch):
    # J = 1 in place of diag(1, q, q^2): the reflections are not orthogonal
    # for it at q = 2
    monkeypatch.setattr(acceptance, "form_matrix", lambda p: Matrix.identity(p.n))
    ok, detail = acceptance.check_property_suites()
    assert not ok and detail == "S_1 is not a J-orthogonal involution fixing f0"
