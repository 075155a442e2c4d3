"""Behaviour lock for Section 4's deciders.

``tests/data/notion_verdicts.json`` records, for ~400 small SWMR
histories (seeded, 2-3 clients, at most 6 operations, some with a pending
write) plus the paper's Figure 3 and E12's causality witness, the ``ok``
verdict of all nine deciders and of each ``validate_*`` on its search's
own witness.  It was generated at the commit *before* the four forking
modules and the sequential oracle were folded into one table, one views
engine and one total-order search — so any verdict the refactor (or a
later edit) changes shows up here as a named history and checker.

Regenerate with ``PYTHONPATH=src python tests/test_consistency_golden.py``
only when a verdict is *meant* to change.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import repro.consistency as consistency
from repro.common.types import BOTTOM, OpKind
from repro.history.events import Operation
from repro.history.history import History

CORPUS = Path(__file__).parent / "data" / "notion_verdicts.json"

#: The deciders without views: fast and exhaustive per total-order notion.
DECIDERS = (
    "check_linearizability",
    "check_linearizability_exhaustive",
    "check_sequential_consistency_exhaustive",
    "check_causal_consistency",
    "check_causal_exhaustive",
)
#: Forking search -> the validator its witness views must pass.
SEARCHES = {
    "check_fork_linearizability_exhaustive": "validate_fork_linearizability",
    "check_fork_star_linearizability_exhaustive": "validate_fork_star_linearizability",
    "check_weak_fork_linearizability_exhaustive": "validate_weak_fork_linearizability",
    "check_fork_sequential_exhaustive": "validate_fork_sequential_consistency",
}


def verdicts(history: History) -> dict[str, bool | None]:
    """Every decider's verdict on ``history`` (validators: ``None`` when
    the search found no witness to validate)."""
    out: dict[str, bool | None] = {
        name: getattr(consistency, name)(history).ok for name in DECIDERS
    }
    for search, validator in SEARCHES.items():
        found = getattr(consistency, search)(history)
        out[search] = found.ok
        out[validator] = (
            getattr(consistency, validator)(history, found.witness).ok
            if found.ok
            else None
        )
    return out


def _encode(history: History) -> list[list]:
    return [
        [
            op.op_id,
            op.client,
            op.kind.name,
            op.register,
            None if op.value is BOTTOM else op.value.decode(),
            op.invoked_at,
            op.responded_at,
        ]
        for op in history
    ]


def _decode(rows: list[list]) -> History:
    return History(
        Operation(
            op_id,
            client,
            OpKind[kind],
            register,
            BOTTOM if value is None else value.encode(),
            invoked_at,
            responded_at,
        )
        for op_id, client, kind, register, value, invoked_at, responded_at in rows
    )


def _load() -> list[tuple[str, list[list], dict[str, bool | None]]]:
    corpus = json.loads(CORPUS.read_text())
    return [
        (label, ops, dict(zip(corpus["columns"], row, strict=True)))
        for label, ops, row in corpus["histories"]
    ]


def test_corpus_verdicts_unchanged():
    entries = _load()
    assert len(entries) >= 400
    changed = []
    for label, ops, recorded in entries:
        now = verdicts(_decode(ops))
        assert now.keys() == recorded.keys()
        changed += [
            f"{label}: {name} was {was}, now {now[name]}"
            for name, was in recorded.items()
            if now[name] != was
        ]
    assert not changed, "\n".join(changed)


def test_corpus_exercises_both_verdicts_of_every_decider():
    entries = _load()
    for name in (*DECIDERS, *SEARCHES):
        assert {recorded[name] for _, _, recorded in entries} == {True, False}, name
    assert any(op[6] is None for _, ops, _ in entries for op in ops)


# ---------------------------------------------------------------------- #
# Generation (run as a script; not used by the tests above)
# ---------------------------------------------------------------------- #


def _seeded_history(seed: int) -> History:
    """Well-formed history with adversarial read values; every fifth seed
    leaves one client's final write pending."""
    rng = random.Random(seed)
    num_clients = rng.choice((2, 3))
    ops: list[Operation] = []
    clock = {c: 0.0 for c in range(num_clients)}
    written: dict[int, list[bytes]] = {c: [] for c in range(num_clients)}
    for op_id in range(rng.randint(2, 6)):
        client = rng.randrange(num_clients)
        start = round(clock[client] + rng.random() * 3, 3)
        end = round(start + rng.random() * 3, 3)
        clock[client] = end + 0.01
        if rng.random() < 0.5:
            value = f"v{op_id}".encode()
            written[client].append(value)
            ops.append(Operation(op_id, client, OpKind.WRITE, client, value, start, end))
        else:
            register = rng.randrange(num_clients)
            value = rng.choice(written[register] + [BOTTOM])
            ops.append(Operation(op_id, client, OpKind.READ, register, value, start, end))
    if seed % 5 == 0:
        last = {op.client: index for index, op in enumerate(ops)}
        pending = [i for i in last.values() if ops[i].is_write]
        if pending:
            op = ops[pending[0]]
            ops[pending[0]] = Operation(
                op.op_id, op.client, op.kind, op.register, op.value, op.invoked_at, None
            )
    return History(ops)


def _generate() -> str:
    from repro.experiments import e12_notion_separation as e12

    labelled = [("figure3", e12._figure3()), ("e12-causality", e12._causality_violation())]
    labelled += [(f"seed-{seed}", _seeded_history(seed)) for seed in range(400)]
    columns = list(verdicts(labelled[0][1]))
    rows = ",\n".join(
        json.dumps(
            [label, _encode(history), list(verdicts(history).values())],
            separators=(",", ":"),
        )
        for label, history in labelled
    )
    return f'{{"columns": {json.dumps(columns)},\n"histories": [\n{rows}\n]}}\n'


if __name__ == "__main__":  # pragma: no cover
    CORPUS.parent.mkdir(exist_ok=True)
    CORPUS.write_text(_generate())
    print(f"wrote {CORPUS}")
