"""Release gate: every criterion in the registry recomputes its claim
through the public API and must pass, exactly and inside its wall-clock
budget. One PASS/FAIL line prints per criterion (visible with -s)."""

import time

import pytest

from braidrook.acceptance import CRITERIA


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
