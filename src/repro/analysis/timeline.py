"""ASCII timelines of histories — the paper's figures, renderable.

Figures 2 and 3 of the paper draw operations as intervals on per-client
time lines.  :func:`render_timeline` produces the same picture for any
recorded history::

    C1 |==w(X1,'u')==|...............................
    C2 ..............|==r(X1)->B==|..|==r(X1)->'u'==|

Used by the CLI (``--timeline``) and handy in test failure messages.
"""

from __future__ import annotations

from repro.common.types import BOTTOM, client_name, register_name
from repro.history.events import Operation
from repro.history.history import History


def _label(op: Operation) -> str:
    reg = register_name(op.register)
    if op.is_write:
        return f"w({reg})"
    if op.value is BOTTOM:
        return f"r({reg})->B"
    if op.value is None:
        return f"r({reg})->?"
    try:
        shown = op.value.decode("utf-8")
    except (UnicodeDecodeError, AttributeError):
        shown = op.value.hex()[:6] if isinstance(op.value, bytes) else repr(op.value)
    if len(shown) > 8:
        shown = shown[:7] + "~"
    return f"r({reg})->{shown}"


def render_timeline(history: History, width: int = 100) -> str:
    """Render one line per client; operations as ``|==label==|`` spans.

    Incomplete operations extend to the right margin with ``>``.  Spans
    are scaled to the history's duration; labels are truncated to fit.
    """
    ops = list(history)
    if not ops:
        return "(empty history)"
    start = min(op.invoked_at for op in ops)
    end = max(
        op.responded_at if op.complete else op.invoked_at for op in ops
    )
    span = max(end - start, 1e-9)

    def column(time: float) -> int:
        return int((time - start) / span * (width - 1))

    lines = []
    for client in history.clients():
        row = ["."] * width
        for op in history.restrict_to_client(client):
            left = column(op.invoked_at)
            right = column(op.responded_at) if op.complete else width - 1
            right = max(right, left + 1)
            fill = "=" if op.complete else ">"
            for index in range(left, min(right + 1, width)):
                row[index] = fill
            row[left] = "|"
            if op.complete and right < width:
                row[right] = "|"
            label = _label(op)[: max(right - left - 1, 0)]
            for offset, char in enumerate(label):
                position = left + 1 + offset
                if position < min(right, width):
                    row[position] = char
        lines.append(f"{client_name(client):>4} {''.join(row)}")
    scale = f"     t={start:.2f}{' ' * (width - len(f't={start:.2f}') - len(f't={end:.2f}'))}t={end:.2f}"
    return "\n".join(lines + [scale])
