"""How a file reaches disk: every file the package writes goes through here.

A writer fills a temp file beside its target, named for the writing
process, and renames it over the target only once the content is whole, so
a reader sees the old file or the new one and never a part; a writer that
raises removes its temp file and leaves the old file as it was.  Two
processes writing one path each fill their own temp file, and the last
rename wins with a whole file.  CSV artifacts print every value with
FLOAT_FMT, 17 significant digits: enough to round-trip a float64, and the
plain digits of any integer below 2**53.
"""

from __future__ import annotations

import contextlib
import os

FLOAT_FMT = "%.17g"


@contextlib.contextmanager
def atomic_open(path):
    """Text handle (UTF-8, lines end in \\n) on a temp file beside ``path``,
    renamed over ``path`` when the block exits cleanly, removed when it
    raises."""
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_csv(path, header, rows) -> None:
    """``header`` (column names) on the first line, then one line per row of
    numbers, each printed with FLOAT_FMT; a row must hold one number per
    column."""
    line = ",".join([FLOAT_FMT] * len(header)) + "\n"
    with atomic_open(path) as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(line % tuple(row))
