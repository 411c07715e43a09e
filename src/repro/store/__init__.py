"""Persistent artifact store: the cross-process tier of the staged cache.

Two modules:

* :mod:`repro.store.codec` — a typed binary codec (numpy ``.npz``
  containers, no pickle) that round-trips every array-native pipeline
  artifact bitwise: gate tables, IIG/QODG CSR arrays, compiled mapper
  QODGs, placements, schedules and latency estimates;
* :mod:`repro.store.store` — :class:`ArtifactStore`, a content-addressed
  sharded on-disk store with atomic publishing, per-key advisory file
  locks (build-once across processes) and LRU byte-budget GC.

Attach a store to an :class:`~repro.engine.cache.ArtifactCache` and
every miss falls through memory → disk → build::

    from repro.engine import ArtifactCache, BatchRunner
    from repro.store import ArtifactStore

    store = ArtifactStore("~/.cache/leqa-store")
    runner = BatchRunner(cache=ArtifactCache(store=store))
    # first process builds; every later process loads

The ``leqa serve`` daemon (:mod:`repro.service`) keeps one hot store and
one warm cache behind a local socket for many clients.
"""

from .codec import CODEC_VERSION, decode, encodable, encode
from .store import ArtifactStore, StoreStats, key_digest

__all__ = [
    "ArtifactStore",
    "StoreStats",
    "key_digest",
    "CODEC_VERSION",
    "encodable",
    "encode",
    "decode",
]
