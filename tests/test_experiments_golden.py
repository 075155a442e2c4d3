"""EXPERIMENTS.md is what the experiments print, byte for byte.

Each experiment's full-size ``render()`` must equal its section of the
committed EXPERIMENTS.md.  The simulator is deterministic, so any
difference is a behaviour change of the protocol stack, of a scenario
row, or of the table code — and it shows up here as a unified diff of
one section, whether or not anything asserts that section's findings
(nothing else asserts E15's, E16's or E20's).

E11 and E17 time real CPU work: their wall-clock cells (microseconds per
signature, ops/sec, and the two "informational" ratios) are masked on
both sides; every other byte of those sections is compared.

Sections that take about a second or more are marked ``slow`` (the
``extended`` CI job runs them); the rest cost tier-1 ~2 s in all.

A *meant* change regenerates the record:
``PYTHONPATH=src python -m repro.experiments --write`` (then restore the
committed E11/E17 wall-clock cells, so the diff shows only what moved).
"""

from __future__ import annotations

import difflib
import re
from pathlib import Path

import pytest

from repro.experiments import EXPERIMENTS

RECORD = Path(__file__).resolve().parents[1] / "EXPERIMENTS.md"

#: Sections whose full-size run takes about a second or more.
SLOW = {"E14", "E16", "E17", "E18", "E19", "E20"}


def committed_sections() -> dict[str, str]:
    """EXPERIMENTS.md split at its ``## E<n> —`` headings, by id."""
    parts = re.split(r"^(?=## E\d+ )", RECORD.read_text(), flags=re.MULTILINE)
    return {part.split(" ", 2)[1]: part for part in parts[1:]}


def mask_wall_clock(experiment_id: str, section: str) -> str:
    """Blank the cells that measure this machine rather than the protocol."""
    lines = section.splitlines()
    for index, line in enumerate(lines):
        if experiment_id == "E11" and (
            re.match(r"(ed25519|hmac|insecure)\s", line) or "speedup" in line
        ):
            lines[index] = re.sub(r"\s*\d+\.\d+", " #", line)
        elif experiment_id == "E17" and re.match(r"(ustor|faust|cluster)\s", line):
            cells = re.split(r"\s{2,}", line)
            cells[3] = "#"  # ops/sec (wall), in both tables
            lines[index] = "  ".join(cells)
        elif experiment_id == "E17" and "informational)" in line:
            lines[index] = re.sub(r"\d+\.\d+$", "#", line)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "experiment_id",
    [
        pytest.param(eid, marks=pytest.mark.slow) if eid in SLOW else eid
        for eid in EXPERIMENTS
    ],
)
def test_section_matches_the_committed_record(experiment_id):
    committed = committed_sections()[experiment_id]
    # Sections are joined by a newline in the file; the last has none.
    rendered = EXPERIMENTS[experiment_id].run().render() + "\n"
    if experiment_id == list(EXPERIMENTS)[-1]:
        rendered = rendered[:-1]
    if experiment_id in ("E11", "E17"):
        committed = mask_wall_clock(experiment_id, committed)
        rendered = mask_wall_clock(experiment_id, rendered)
    assert rendered == committed, "".join(
        difflib.unified_diff(
            committed.splitlines(keepends=True),
            rendered.splitlines(keepends=True),
            "EXPERIMENTS.md",
            f"{experiment_id}.run().render()",
        )
    )


def test_the_record_has_exactly_the_known_sections():
    assert list(committed_sections()) == list(EXPERIMENTS)


def test_masking_hides_only_wall_clock_cells():
    masked = mask_wall_clock("E17", committed_sections()["E17"])
    # Counts the simulator determines stay compared ...
    assert re.search(r"^ustor\s+4\s+4\s+#\s+2\.2\s+188\s+48$", masked, re.MULTILINE)
    assert "largest event reduction across the sweep: 0.287" in masked
    # ... and no ops/sec figure or informational ratio survives.
    assert not re.search(r"\d,\d{3}", masked)
    assert len(re.findall(r"informational\): #$", masked, re.MULTILINE)) == 2
    masked = mask_wall_clock("E11", committed_sections()["E11"])
    assert "4 sign + (3 + 2|L|) verify" in masked
    assert not re.search(r"\d\.\d", masked)
