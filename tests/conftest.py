from __future__ import annotations

import tracemalloc

import pytest

_VERDICTS: list[str] = []


@pytest.fixture
def verdict():
    """Record one pass/fail line for the acceptance summary."""

    def record(num: int, label: str, ok: bool, detail: str) -> bool:
        line = f"[{'PASS' if ok else 'FAIL'}] {num:02d} {label}: {detail}"
        print(line)
        _VERDICTS.append(line)
        return ok

    return record


@pytest.fixture
def peak_bytes():
    """The tracemalloc peak, in bytes, of the allocations one call makes."""

    def measure(fn) -> int:
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return measure


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _VERDICTS:
        terminalreporter.section("acceptance verdicts")
        for line in sorted(_VERDICTS):
            terminalreporter.write_line(line)
