"""Multi-tenant isolation: namespaces, directories, quotas.

Each tenant owns a subtree of the service data directory::

    <data_dir>/tenants/<tenant>/
        runs/       telemetry runs (one per job) — run_status, journal
        corpus/     the tenant's corpus namespace (its own SQLite DB)

Tenant names are validated with the corpus namespace rules
(:data:`repro.corpus.backend.NAMESPACE_RE` — one path-safe segment),
so a tenant can never resolve outside the tenants root. The corpus
namespace is opened with :func:`repro.corpus.backend.open_namespace`;
its database is created by the first write.

Quotas are **admission control**, enforced exactly at submit time
under the scheduler's lock:

* ``max_active_jobs`` — queued + running jobs a tenant may hold;
* ``packet_budget`` — cumulative worst-case packets
  (campaigns × budget) across every job the tenant ever submitted;
  resumes are free (charged at original admission).
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

from repro.corpus.backend import namespace_root, open_namespace
from repro.corpus.sqlite_backend import SqliteCorpusBackend

TENANTS_DIRNAME = "tenants"
RUNS_DIRNAME = "runs"
CORPUS_DIRNAME = "corpus"

DEFAULT_MAX_ACTIVE_JOBS = 4
DEFAULT_PACKET_BUDGET = 10_000_000


@dataclasses.dataclass(frozen=True)
class TenantQuota:
    """Per-tenant admission limits."""

    max_active_jobs: int = DEFAULT_MAX_ACTIVE_JOBS
    packet_budget: int = DEFAULT_PACKET_BUDGET


class TenantManager:
    """Resolves tenant names to directories, backends and quotas."""

    def __init__(
        self,
        root: str | Path,
        default_quota: TenantQuota | None = None,
        overrides: dict[str, TenantQuota] | None = None,
    ) -> None:
        self.root = Path(root) / TENANTS_DIRNAME
        self.default_quota = (
            default_quota if default_quota is not None else TenantQuota()
        )
        self.overrides = dict(overrides or {})

    def quota(self, tenant: str) -> TenantQuota:
        return self.overrides.get(tenant, self.default_quota)

    def home(self, tenant: str) -> Path:
        """The tenant's directory (validated name; created on demand)."""
        home = namespace_root(self.root, tenant)
        home.mkdir(parents=True, exist_ok=True)
        return home

    def runs_dir(self, tenant: str) -> Path:
        runs = self.home(tenant) / RUNS_DIRNAME
        runs.mkdir(parents=True, exist_ok=True)
        return runs

    def corpus_dir(self, tenant: str) -> Path:
        """The tenant's corpus namespace path."""
        return namespace_root(self.home(tenant), CORPUS_DIRNAME)

    def open_corpus(self, tenant: str) -> SqliteCorpusBackend:
        """Open the tenant's corpus (created by its first write)."""
        return open_namespace(self.home(tenant), CORPUS_DIRNAME)

    def exists(self, tenant: str) -> bool:
        """Whether the tenant has any on-disk footprint yet."""
        try:
            return namespace_root(self.root, tenant).is_dir()
        except ValueError:
            return False
