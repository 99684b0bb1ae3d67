"""The marking file: a persisted gazetteer of marked objects.

Each marked object is a lowercase phrase with an observed frequency. The
file grows adaptively: whenever extraction admits a new instance, it is
appended here, so the file is the system's only mutable state. Format is
one record per line, ``<phrase>\\t<frequency>``, UTF-8, LF line endings.

Single-writer contract: at most one component may hold a MarkingFile open
for update at a time. Cross-process locking is out of scope.
"""

from __future__ import annotations

import os
import re
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

_FREQ_RE = re.compile(r"[0-9]+\Z")


class MarkingFormatError(ValueError):
    """A marking file line that does not parse, with its line number."""


@dataclass
class MarkedObject:
    phrase: str
    frequency: int


class MarkingFile:
    """Ordered, unique-by-phrase collection of marked objects."""

    def __init__(
        self,
        entries: Iterable[MarkedObject] = (),
        source_path: Path | str | None = None,
    ) -> None:
        self.entries: list[MarkedObject] = []
        self.source_path = Path(source_path) if source_path is not None else None
        self.dirty = False
        self._index: dict[str, MarkedObject] = {}
        for entry in entries:
            self._append(entry.phrase.lower(), entry.frequency)

    def _append(self, phrase: str, frequency: int) -> None:
        if phrase in self._index:
            raise ValueError(f"duplicate marked phrase: {phrase!r}")
        obj = MarkedObject(phrase=phrase, frequency=frequency)
        self.entries.append(obj)
        self._index[phrase] = obj

    def get(self, phrase: str) -> MarkedObject | None:
        return self._index.get(phrase.lower())

    def __contains__(self, phrase: str) -> bool:
        return phrase.lower() in self._index

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[MarkedObject]:
        return iter(self.entries)


def load_marking(path: Path | str) -> MarkingFile:
    """Load a marking file, preserving entry order.

    Lines end at LF only (CR and CRLF read as LF), so any other separator
    character stays inside its line. Raises FileNotFoundError for a missing
    file and MarkingFormatError for a file that is not UTF-8 or a malformed
    or duplicate line (the message names the line number).
    """
    path = Path(path)
    mf = MarkingFile(source_path=path)
    with open(path, encoding="utf-8") as fh:
        try:
            content = fh.read()
        except UnicodeDecodeError as exc:
            raise MarkingFormatError(
                f"{path}: not valid UTF-8 ({exc.reason} at byte {exc.start})"
            ) from None
    lines = content.split("\n")
    if lines[-1] == "":
        lines.pop()
    for lineno, line in enumerate(lines, start=1):
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
        try:
            mf._append(phrase, frequency)
        except ValueError:
            raise MarkingFormatError(
                f"{path}: line {lineno}: duplicate phrase {phrase!r}"
            ) from None
    return mf


def update_marking(
    mf: MarkingFile, instance_phrase: str, observed_frequency: int
) -> MarkingFile:
    """Record an extracted instance: append if new, otherwise accumulate.

    Frequencies sum across documents and runs, so updates never shrink the
    file and never decrease a count.
    """
    if observed_frequency < 1:
        raise ValueError(
            f"observed_frequency must be >= 1, got {observed_frequency}"
        )
    phrase = instance_phrase.lower()
    existing = mf._index.get(phrase)
    if existing is None:
        mf._append(phrase, observed_frequency)
    else:
        existing.frequency += observed_frequency
    mf.dirty = True
    return mf


def save_marking(mf: MarkingFile, path: Path | str | None = None) -> Path:
    """Persist the marking file atomically (write and fsync temp, then rename).

    On failure the original file is left intact. Clears the dirty flag.
    """
    target = Path(path) if path is not None else mf.source_path
    if target is None:
        raise ValueError("marking file has no source path to save to")
    payload = "".join(f"{e.phrase}\t{e.frequency}\n" for e in mf.entries)
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
    mf.source_path = target
    mf.dirty = False
    return target
