"""repro.serve — a concurrent read-serving layer over the durable store.

OrpheusDB is bolt-on versioning for a *shared* relational store; the HTAP
split this package implements is one update path and many concurrent
analytical readers:

* :mod:`repro.serve.cache` — a version-aware LRU of encoded reply lines
  keyed ``(cvd, tuple(vids), last_lsn)``; correctness comes from the lsn
  tag (replay is deterministic, so state at an lsn is state at an lsn),
  invalidation on commit / schema evolution / partition migration is
  memory hygiene.
* :mod:`repro.serve.manager` — :class:`ServeManager`, the one answerer:
  a pool of ``mode="ro"`` reader sessions (plus, optionally, the
  ``mode="rw"`` writer store) that catch up via the WAL-tail
  :meth:`Store.refresh`, enforce the ``min_lsn`` fence and read through
  the caches.
* :mod:`repro.serve.server` — the JSON-line protocol and the one request
  pipeline (``serve_connection`` → ``handle_line`` → manager), the
  threaded front end (``orpheus serve``), a one-shot and a persistent
  client.
* :mod:`repro.serve.workers` — :class:`PreforkServer`, the
  process-parallel front end (``orpheus serve --workers N``): one
  snapshot load in the parent, N forked workers each running the same
  pipeline over a one-session manager, a supervisor that respawns the
  dead.
* :mod:`repro.serve.sharedcache` — the cross-process L2 checkout cache
  (an owner thread in the parent, one unix-socket client per worker).
"""

from repro.serve.cache import CacheStats, CheckoutCache, checkout_key, query_key
from repro.serve.manager import ReadSession, ServeManager
from repro.serve.server import ServeClient, ServeServer, request, serve
from repro.serve.sharedcache import CacheClient, CacheOwner
from repro.serve.workers import PreforkServer

__all__ = [
    "CheckoutCache",
    "CacheStats",
    "checkout_key",
    "query_key",
    "ReadSession",
    "ServeManager",
    "ServeClient",
    "ServeServer",
    "CacheClient",
    "CacheOwner",
    "PreforkServer",
    "request",
    "serve",
]
