"""The marking file: a persisted gazetteer of marked objects.

Each marked object is a lowercase phrase with an observed frequency. The
file grows adaptively: whenever extraction admits a new instance, it is
appended here, so the file is the system's only mutable state. Format is
one record per line, ``<phrase>\\t<frequency>``, UTF-8, LF line endings;
:func:`read_records` reads that record layout for this file and for the
taxonomy's edge list.

In memory the marking is a plain ``{phrase: frequency}`` dict in file
order: :func:`load_marking` builds it, :func:`update_marking` grows it in
place and :func:`save_marking` writes it back.

Single-writer contract: at most one component may update a marking file
between its load and its save. Cross-process locking is out of scope.
"""

from __future__ import annotations

import os
import re
import tempfile
from pathlib import Path

_FREQ_RE = re.compile(r"[0-9]+\Z")


class MarkingFormatError(ValueError):
    """A marking file line that does not parse, with its line number."""


def read_records(path: Path, error: type[Exception]) -> list[str]:
    """The lines of a UTF-8 record file, without their LF terminators.

    Lines end at LF only (CR and CRLF read as LF), so any other separator
    character stays inside its line; the empty piece after a final LF is
    dropped. Raises FileNotFoundError for a missing file and ``error`` for
    a file that is not UTF-8.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            content = fh.read()
        except UnicodeDecodeError as exc:
            raise error(
                f"{path}: not valid UTF-8 ({exc.reason} at byte {exc.start})"
            ) from None
    lines = content.split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines


def load_marking(path: Path | str) -> dict[str, int]:
    """Load a marking file as a ``{phrase: frequency}`` dict in file order.

    Records are read by :func:`read_records`. Raises FileNotFoundError for
    a missing file and MarkingFormatError for a file that is not UTF-8 or a
    malformed or duplicate line (the message names the line number).
    """
    path = Path(path)
    marking: dict[str, int] = {}
    for lineno, line in enumerate(read_records(path, MarkingFormatError), start=1):
        parts = line.split("\t")
        if len(parts) != 2:
            raise MarkingFormatError(
                f"{path}: line {lineno}: expected '<phrase>\\t<frequency>', got {line!r}"
            )
        phrase = parts[0].lower()
        if not phrase:
            raise MarkingFormatError(f"{path}: line {lineno}: empty phrase")
        if not _FREQ_RE.match(parts[1]):
            raise MarkingFormatError(
                f"{path}: line {lineno}: frequency is not an integer: {parts[1]!r}"
            )
        frequency = int(parts[1])
        if frequency < 1:
            raise MarkingFormatError(
                f"{path}: line {lineno}: frequency must be >= 1, got {frequency}"
            )
        if phrase in marking:
            raise MarkingFormatError(
                f"{path}: line {lineno}: duplicate phrase {phrase!r}"
            )
        marking[phrase] = frequency
    return marking


def update_marking(
    marking: dict[str, int], instance_phrase: str, observed_frequency: int
) -> None:
    """Record an extracted instance: append if new, otherwise accumulate.

    Frequencies sum across documents and runs, so updates never shrink the
    marking and never decrease a count.
    """
    if observed_frequency < 1:
        raise ValueError(
            f"observed_frequency must be >= 1, got {observed_frequency}"
        )
    phrase = instance_phrase.lower()
    marking[phrase] = marking.get(phrase, 0) + observed_frequency


def save_marking(marking: dict[str, int], path: Path | str) -> Path:
    """Persist the marking atomically (write and fsync temp, then rename).

    On failure the original file is left intact. Returns the target path.
    """
    target = Path(path)
    payload = "".join(f"{p}\t{f}\n" for p, f in marking.items())
    fd, tmp_name = tempfile.mkstemp(
        dir=target.parent, prefix=target.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(payload)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp_name, target)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return target
