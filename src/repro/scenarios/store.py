"""Content-keyed JSON result store for experiment runs.

A sweep cell is identified by the *content* of its request — the full
scenario spec, system name, seed, job count, and protocol knobs — not by
when or where it ran. The key is the SHA-256 of the request's canonical
JSON, so any parameter change (even one float deep inside a power model)
invalidates exactly the affected cells and nothing else.

Records live under ``.repro-cache/<key[:2]>/<key>.json`` as
``{"request": ..., "result": ...}``; writes are atomic
(temp file + ``os.replace``) so parallel workers can share one store.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path

#: Bump when the result payload's semantics change; keyed into every
#: request so stale cache entries are never silently reused.
#: v2: cell results carry Fig-8-style ``latency_series``/``energy_series``
#: and DRL cells may be computed warm from a policy checkpoint.
#: v3: scenarios may replay recorded traces (``WorkloadSpec.replay``) and
#: carry a tariff; results gain ``cost_usd``/``co2_kg`` totals plus
#: ``cost_series``/``co2_series`` panels.
#: v4: scenarios may be federated (``ScenarioSpec.sites`` +
#: ``federation`` policy); federated results carry a ``"federation"``
#: label and a per-site breakdown under ``"sites"`` (totals and series
#: per site), with the top-level series fleet-wide merges.
#: v5: profiled cells carry ``"profile": True`` in their protocol (so
#: profiled and unprofiled runs never share a cache slot) and a
#: ``"telemetry"`` snapshot (:mod:`repro.obs.telemetry`) in the result.
#: v6: scenarios may inject faults (``ScenarioSpec.faults`` /
#: ``SiteSpec.faults``, :mod:`repro.faults`); results carry
#: ``failed_jobs``/``retries``/``goodput``/``availability`` (and
#: ``broker_fallbacks``), per site too on federated cells.
#: v7: a one-site federation seeds its fault plan like the plain
#: scenario (:func:`repro.faults.plan.scenario_fault_plans`), so faulted
#: one-site federations changed under unchanged content keys.
SCHEMA_VERSION = 7

DEFAULT_ROOT = Path(".repro-cache")


def canonical_json(payload: dict) -> str:
    """Deterministic JSON: sorted keys, no whitespace."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def content_key(request: dict) -> str:
    """SHA-256 hex digest of a request's canonical JSON."""
    return hashlib.sha256(canonical_json(request).encode()).hexdigest()


class ContentAddressedStore:
    """Shared mechanics of the on-disk content-keyed stores.

    Entries live at ``<root>/<key[:2]>/<key><suffix>``; subclasses pick
    the suffix and the (de)serialization, and share the fan-out layout,
    corrupt-entry disposal, counting, and clearing. All writers must be
    atomic (temp file + rename) so entries are all-or-nothing.
    """

    suffix = ".json"

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}{self.suffix}"

    @staticmethod
    def _discard(path: Path) -> None:
        """Best-effort removal of an entry known to be corrupt."""
        try:
            path.unlink()
        except OSError:
            pass

    def __len__(self) -> int:
        if not self.root.exists():
            return 0
        return sum(1 for _ in self.root.glob(f"*/*{self.suffix}"))

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        if not self.root.exists():
            return 0
        for path in self.root.glob(f"*/*{self.suffix}"):
            path.unlink()
            removed += 1
        for sub in self.root.iterdir():
            if sub.is_dir() and not any(sub.iterdir()):
                sub.rmdir()
        return removed


class ResultStore(ContentAddressedStore):
    """File-backed cache mapping request content keys to result records."""

    def __init__(self, root: str | Path = DEFAULT_ROOT) -> None:
        super().__init__(root)

    def get(self, key: str) -> dict | None:
        """Load a cached record, or None on miss.

        A truncated or otherwise corrupt record (a worker killed before
        the atomic rename completed, manual tampering, a record missing
        its ``result``) is a miss too — and is deleted, so it cannot
        keep shadowing the slot after the caller recomputes the cell.
        """
        path = self.path_for(key)
        try:
            with path.open() as fh:
                record = json.load(fh)
        except FileNotFoundError:
            return None
        except (json.JSONDecodeError, UnicodeDecodeError):
            self._discard(path)
            return None
        except OSError:  # unreadable (permissions, I/O error): miss, keep
            return None
        if not isinstance(record, dict) or "result" not in record:
            self._discard(path)
            return None
        return record

    def put(self, key: str, request: dict, result: dict) -> Path:
        """Atomically persist a record; returns its path."""
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        record = {"schema": SCHEMA_VERSION, "request": request, "result": result}
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(record, fh, sort_keys=True, indent=1)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except FileNotFoundError:
                pass
            raise
        return path


#: Structured failure journal for quarantined sweep cells, one JSON
#: object per line, living beside the cell records in the store root.
QUARANTINE_FILE = "quarantine.jsonl"


def append_quarantine(root: str | Path, record: dict) -> Path:
    """Append one structured failure record to the quarantine journal.

    A single-line append is atomic enough for the sweep's process model
    (one orchestrator process writes; workers never touch the journal).
    """
    path = Path(root) / QUARANTINE_FILE
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a") as fh:
        fh.write(canonical_json(record) + "\n")
    return path
