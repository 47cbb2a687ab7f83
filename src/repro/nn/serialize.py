"""Weight-blob serialization for :class:`~repro.nn.layers.Module` states.

A blob is a single ``.npz`` file holding one or more *named* state dicts
(as produced by :meth:`Module.state_dict`) plus a JSON metadata record.
Array entries are stored under ``<group>/<param-key>`` zip members, so a
blob can carry several networks at once — e.g. a policy checkpoint with
both the hierarchical Q-network and the LSTM predictor — and the
metadata travels inside the same file, keeping the blob atomic: either
the whole checkpoint exists or none of it does.

Writes go through a temp file + :func:`os.replace`, matching the result
store's crash-safety contract: a killed worker can never leave a
half-written blob under the final name.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

import numpy as np

#: Reserved zip member holding the JSON metadata string.
META_KEY = "__meta__"

#: Separator between the group name and the parameter key.
GROUP_SEP = "/"


def save_states(
    path: str | Path,
    states: dict[str, dict[str, np.ndarray]],
    meta: dict | None = None,
) -> Path:
    """Atomically write named state dicts (plus metadata) to ``path``.

    Parameters
    ----------
    path:
        Destination ``.npz`` file; parent directories are created.
    states:
        Mapping of group name -> state dict. Group names must not
        contain :data:`GROUP_SEP` (it delimits the flattened keys).
    meta:
        JSON-serializable metadata stored alongside the arrays.

    Raises
    ------
    ValueError
        On an invalid group name.
    """
    flat: dict[str, np.ndarray] = {}
    for group, state in states.items():
        if not group or GROUP_SEP in group or group == META_KEY:
            raise ValueError(f"invalid state group name {group!r}")
        for key, value in state.items():
            flat[f"{group}{GROUP_SEP}{key}"] = np.asarray(value)
    flat[META_KEY] = np.array(json.dumps(meta or {}, sort_keys=True))

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            np.savez(fh, **flat)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except FileNotFoundError:
            pass
        raise
    return path


def load_states(
    path: str | Path,
) -> tuple[dict[str, dict[str, np.ndarray]], dict]:
    """Read a blob written by :func:`save_states`.

    Returns ``(states, meta)`` with arrays materialized in memory (the
    underlying file handle is closed before returning). Raises whatever
    :func:`numpy.load` / :func:`json.loads` raise on a corrupt blob —
    callers that must survive truncated files (the checkpoint store)
    catch and treat those as cache misses.
    """
    states: dict[str, dict[str, np.ndarray]] = {}
    with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as blob:
        meta = json.loads(str(blob[META_KEY][()])) if META_KEY in blob else {}
        if not isinstance(meta, dict):
            raise ValueError(f"blob metadata must be a JSON object, got {meta!r}")
        for name in blob.files:
            if name == META_KEY:
                continue
            group, _, key = name.partition(GROUP_SEP)
            if not key:
                raise ValueError(f"malformed blob entry {name!r}")
            states.setdefault(group, {})[key] = blob[name]
    return states, meta
