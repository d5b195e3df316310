"""Every retry loop waits ``repro.durability.backoff_delay``, unchanged.

The four callers number their attempts differently: shard supervision
passes the failures so far (0 and 1 both mean the first retry), the
service's auto-resume passes resumes already made (0 means resume at
once), the HTTP client passes a 0-based retry, and the corpus write
loop counts tries from 1. The table pins each caller's delay, at its
default knobs, to the formula it used before sharing the helper.
"""

from __future__ import annotations

import sqlite3

import pytest

from repro.core.runtime import retry_backoff
from repro.corpus import sqlite_backend
from repro.durability import backoff_delay
from repro.service import client as client_module
from repro.service.client import ServiceClient
from repro.service.registry import SessionRegistry
from repro.service.scheduler import JobScheduler
from repro.service.tenants import TenantManager

ATTEMPTS = range(21)


def test_backoff_delay_is_capped_exponential():
    assert [backoff_delay(retry, 0.25, 3.0) for retry in range(6)] == [
        0.25, 0.5, 1.0, 2.0, 3.0, 3.0
    ]
    assert backoff_delay(-1, 0.25, 3.0) == 0.25


def test_supervision_policy_backoff():
    assert [retry_backoff(a) for a in ATTEMPTS] == [
        min(2.0, 0.05 * (2 ** max(0, a - 1))) for a in ATTEMPTS
    ]


def test_auto_resume_delay(tmp_path):
    scheduler = JobScheduler(SessionRegistry(tmp_path), TenantManager(tmp_path))
    assert [scheduler._auto_resume_delay(a) for a in ATTEMPTS] == [
        0.0 if a <= 0 else min(30.0, 0.5 * (2 ** (a - 1))) for a in ATTEMPTS
    ]


def test_client_retry_ceiling_keeps_full_jitter(monkeypatch):
    ceilings, sleeps = [], []

    def uniform(low, high):
        assert low == 0
        ceilings.append(high)
        return high / 2

    monkeypatch.setattr(client_module.random, "uniform", uniform)
    monkeypatch.setattr(client_module.time, "sleep", sleeps.append)
    client = ServiceClient("http://127.0.0.1:1")
    for attempt in ATTEMPTS:
        client._sleep_before_retry(attempt)
    assert ceilings == [min(2.0, 0.05 * (2**a)) for a in ATTEMPTS]
    assert sleeps == [ceiling / 2 for ceiling in ceilings]


def test_corpus_write_retry_delays(monkeypatch):
    sleeps = []
    monkeypatch.setattr(sqlite_backend.time, "sleep", sleeps.append)
    monkeypatch.setattr(sqlite_backend, "WRITE_RETRY_ATTEMPTS", len(ATTEMPTS) + 1)

    def locked():
        raise sqlite3.OperationalError("database is locked")

    with pytest.raises(sqlite3.OperationalError):
        sqlite_backend._write_with_retry(locked, "test write")
    # Try n (1-based) failed; the wait before try n + 1.
    assert sleeps == [
        min(0.5, 0.02 * (2 ** (attempt - 1)))
        for attempt in range(1, len(ATTEMPTS) + 1)
    ]
