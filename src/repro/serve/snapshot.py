"""Durable, checksummed snapshot spill for warm server restarts.

A :class:`PlanServer` that owns a :class:`SnapshotStore` spills its warm
incremental state — the per-content-key
:class:`~repro.incremental.IncrementalView` states (query, pinned
ordering, the intermediate factors of the run it keeps) and the
digest-keyed completed-result cache — to disk after every update batch.
A server restarted over the same directory restores them at
construction, so its first update after a crash is answered *warm* (the
update's cone re-run against the restored intermediates) instead of
paying a cold full run.

Each file is one :func:`repro.caching.seal` envelope (magic | length |
SHA-256 | pickle tagged kind + version) holding the sections.  The
layout number of :data:`SNAPSHOT_VERSION` changes with the sections' shape
and with the slots of the factors they pickle, so an older spill loads as
``None`` (2: a view spills its step cache's bound and entries; 3: a dense
factor carries its non-zero count memo; 4: step records are frozen,
slotted values and a step entry holds its join counters as ``join``; 5: a
view spills its kept run's intermediates in place of a step cache and an
answer).

Durability rules:

* **atomic** — :func:`repro.caching.write_atomic`, so a crash mid-spill
  leaves the previous snapshot intact;
* **checksummed** and **version-tagged** — torn, bit-rotted, foreign and
  stale-layout files are all rejected by :func:`repro.caching.unseal`;
* **best-effort** — save returns ``False`` and load returns ``None`` on
  any failure (including injected ``snapshot.io`` faults); a snapshot is
  an optimisation, never a correctness requirement.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Any, Optional

from repro.caching import seal, unseal, write_atomic
from repro.faults import SITE_SNAPSHOT_IO, maybe_raise
from repro.planner.signature import sealed_version

SNAPSHOT_KIND = "repro-serve-snapshot"
SNAPSHOT_VERSION = sealed_version(5)


class SnapshotStore:
    """Checksummed, version-tagged snapshot files under one directory.

    One store per server; named sections (``"server"`` for the combined
    view/result spill) map to one file each.  All I/O is best-effort by
    contract — see the module docstring.
    """

    def __init__(self, directory: os.PathLike | str) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.saves = 0
        self.save_errors = 0
        self.loads = 0
        self.load_errors = 0

    def path_for(self, name: str) -> Path:
        return self.directory / f"{name}.snapshot"

    # ------------------------------------------------------------------ #
    def save(self, name: str, sections: Any) -> bool:
        """Atomically persist ``sections`` under ``name``; False on failure."""
        try:
            maybe_raise(SITE_SNAPSHOT_IO, OSError)
            write_atomic(
                self.path_for(name),
                seal(sections, kind=SNAPSHOT_KIND, version=SNAPSHOT_VERSION),
            )
        except Exception:
            self.save_errors += 1
            return False
        self.saves += 1
        return True

    def load(self, name: str) -> Optional[Any]:
        """The sections persisted under ``name``; ``None`` on any mismatch."""
        try:
            maybe_raise(SITE_SNAPSHOT_IO, OSError)
            sections = unseal(
                self.path_for(name).read_bytes(),
                kind=SNAPSHOT_KIND, version=SNAPSHOT_VERSION,
            )
        except FileNotFoundError:
            return None
        except Exception:
            self.load_errors += 1
            return None
        if sections is not None:
            self.loads += 1
        return sections

    def stats(self) -> dict:
        return {
            "snapshot_saves": self.saves,
            "snapshot_save_errors": self.save_errors,
            "snapshot_loads": self.loads,
            "snapshot_load_errors": self.load_errors,
        }
