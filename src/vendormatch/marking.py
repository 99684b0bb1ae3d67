"""The marking file: a persisted gazetteer of marked objects.

Each marked object is a lowercase phrase with an observed frequency. The
file grows adaptively: whenever extraction admits a new instance, it is
appended here, so the file is the system's only mutable state. Format is
one record per line, ``<phrase>\\t<frequency>``, UTF-8, LF line endings;
:func:`read_records` reads that record layout for this file and for the
taxonomy's edge list. It reads through :func:`read_text`, as the corpus
reader does, so every input file has one UTF-8 check and one error text.

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
# A loaded count stays below 10**18, so what a run adds to it (at most its
# corpus's token count) still prints under any interpreter's digit limit
_MAX_FREQ_DIGITS = 18
_SEPARATOR_RE = re.compile("[\t\n\r]")


class MarkingFormatError(ValueError):
    """A marking file line that does not parse, with its line number."""


def read_text(path: Path, error: type[Exception]) -> str:
    """A file's UTF-8 text, with CR and CRLF read as LF.

    One leading byte order mark (U+FEFF) is dropped, so it never joins the
    first record; :func:`save_marking` writes none. Raises
    FileNotFoundError for a missing file and ``error``, naming the path and
    the first bad byte of the file, for a file that is not UTF-8.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise error(
                f"{path}: not valid UTF-8 ({exc.reason} at byte {exc.start})"
            ) from None
    return text.removeprefix("\ufeff")


def read_records(path: Path, error: type[Exception]) -> list[str]:
    """The lines of a file read by :func:`read_text`, without their LFs.

    Lines end at LF only, so any other separator character stays inside its
    line; the empty piece after a final LF is dropped.
    """
    lines = read_text(path, error).split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines


def load_marking(path: Path | str) -> dict[str, int]:
    """Load a marking file as a ``{phrase: frequency}`` dict in file order.

    Records are read by :func:`read_records`. Raises FileNotFoundError for
    a missing file and MarkingFormatError for a file that is not UTF-8 or a
    malformed or duplicate line (the message names the line number). A
    frequency of more than 18 digits is malformed.
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
        if len(parts[1]) > _MAX_FREQ_DIGITS:
            raise MarkingFormatError(
                f"{path}: line {lineno}: frequency has more than {_MAX_FREQ_DIGITS} digits"
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
    marking and never decrease a count. Raises ValueError, changing nothing,
    for a frequency below 1 or a phrase a saved file cannot hold: an empty
    one or one with a tab, LF or CR.
    """
    if observed_frequency < 1:
        raise ValueError(
            f"observed_frequency must be >= 1, got {observed_frequency}"
        )
    phrase = instance_phrase.lower()
    if not phrase or _SEPARATOR_RE.search(phrase):
        raise ValueError(f"phrase is empty or has a tab, LF or CR: {phrase!r}")
    marking[phrase] = marking.get(phrase, 0) + observed_frequency


def save_marking(marking: dict[str, int], path: Path | str) -> Path:
    """Persist the marking atomically (write and fsync temp, then rename).

    Writes through a symlink and keeps an existing file's permission bits;
    a new file gets ``0o666`` less the umask, as ``open`` would give it. On
    failure the original file is left intact. Returns the path written.
    """
    target = Path(path).resolve()
    fd, tmp_name = tempfile.mkstemp(
        dir=target.parent, prefix=target.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write("".join(f"{p}\t{f}\n" for p, f in marking.items()))
            fh.flush()
            os.fsync(fh.fileno())
        if target.exists():
            mode = target.stat().st_mode & 0o7777
        else:
            umask = os.umask(0)  # the umask can only be read by setting it
            os.umask(umask)
            mode = 0o666 & ~umask
        os.chmod(tmp_name, mode)
        os.replace(tmp_name, target)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return target
