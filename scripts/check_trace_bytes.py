"""Check that trace files hold exactly the bytes of format(x, ".17g").

Usage: python scripts/check_trace_bytes.py TRACE [TRACE ...]

Each trace (csv or text dialect) is read back with numpy, every field is
rendered again, floats with format(x, ".17g") and the id and safe columns
with %d, and the text is compared with the file byte for byte. Since ".17g"
reparses to the same double, this passes exactly when every field is the
".17g" text of some double. Exits 1 naming the first line that differs.
"""

from __future__ import annotations

import sys

import numpy as np

INT_COLUMNS = {"agent_id", "cell_id", "safe"}


def check(path: str) -> str | None:
    """None if the trace at `path` re-renders to its own bytes, else the reason."""
    with open(path, "rb") as fh:
        text = fh.read()
    header_line = text[:text.index(b"\n")].decode()
    delim = "," if "," in header_line else " "
    header = header_line.split(delim)
    data = np.loadtxt(path, delimiter=delim if delim == "," else None, skiprows=1,
                      ndmin=2, comments=None)
    formats = ["%d" if name in INT_COLUMNS else None for name in header]
    lines = [header_line]
    for row in data.tolist():
        lines.append(delim.join(format(v, ".17g") if f is None else f % v
                                for f, v in zip(formats, row)))
    expected = ("\n".join(lines) + "\n").encode()
    if expected == text:
        return None
    for number, (got, want) in enumerate(zip(text.split(b"\n"), expected.split(b"\n")), 1):
        if got != want:
            return f"line {number}: {got[:120]!r} != {want[:120]!r}"
    return "lengths differ"


def main(paths: list[str]) -> int:
    failed = False
    for path in paths:
        reason = check(path)
        print(f"{path}: {'ok' if reason is None else reason}")
        failed |= reason is not None
    return int(failed)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
