"""A schema bump retires every old record and blob.

``SCHEMA_VERSION`` is keyed into every cell request and written into
every record; ``CHECKPOINT_SCHEMA_VERSION`` is written into every policy
blob, and a blob carrying another value misses. A schema number spelled
as a literal anywhere on those paths would keep serving old records or
blobs after a bump. So a warm-started ``drl-only`` sweep of
``paper-default`` is journaled, both constants are raised by one in
every loaded ``repro`` module that binds them, and the same sweep runs
again: its cell must be computed and its policy retrained, and the new
record and blob must carry the new numbers.
"""

import json
import sys

from repro.nn.serialize import load_states
from repro.scenarios import checkpoints, store
from repro.scenarios.orchestrator import sweep
from repro.scenarios.store import ResultStore

CONSTANTS = ("SCHEMA_VERSION", "CHECKPOINT_SCHEMA_VERSION")


def bump_schemas(monkeypatch) -> None:
    """Raise both constants by one wherever a ``repro`` module binds them."""
    for name, module in list(sys.modules.items()):
        if name != "repro" and not name.startswith("repro."):
            continue
        for constant in CONSTANTS:
            if constant in vars(module):
                monkeypatch.setattr(module, constant, vars(module)[constant] + 1)


def journal(root, lines: list):
    return sweep(
        ["paper-default"],
        systems=("drl-only",),
        n_jobs=60,
        workers=1,
        store=ResultStore(root),
        progress=lines.append,
    )


def test_a_schema_bump_recomputes_the_cell_and_retrains_the_policy(
    tmp_path, monkeypatch
):
    schema, blob_schema = store.SCHEMA_VERSION, checkpoints.CHECKPOINT_SCHEMA_VERSION
    first = journal(tmp_path, [])
    assert first.n_computed == 1

    bump_schemas(monkeypatch)
    lines: list[str] = []
    second = journal(tmp_path, lines)

    assert second.cached == [False]
    assert second.keys != first.keys
    assert any("(0 checkpointed, 1 to train)" in line for line in lines), lines
    record = json.loads(ResultStore(tmp_path).path_for(second.keys[0]).read_text())
    assert record["schema"] == schema + 1
    assert record["request"]["protocol"]["schema"] == schema + 1
    (blob,) = (tmp_path / "checkpoints").glob("*/*.npz")
    _, meta = load_states(blob)
    assert meta["schema"] == blob_schema + 1
