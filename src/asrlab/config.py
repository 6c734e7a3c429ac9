"""Flat key-value run configuration shared by the CLI subcommands.

Format: UTF-8 lines of ``key = value`` with ``#`` comments; keys use dotted
namespaces (``curation.wpm_min``). Command-line flags always win over the file;
the CLI's option table says which key feeds which flag. ``utf8_lines`` is the
line reader of this and every other text-file parser in the package, and
``_in_range`` the closed numeric range rule that options and library calls share.
"""

from __future__ import annotations

import math
from typing import Iterator

__all__ = ["load_config", "utf8_lines"]


def utf8_lines(path: str) -> Iterator[tuple[int, str]]:
    """(line number, line) for each line of a UTF-8 text file, newlines read as in text mode.

    A byte-order mark at the start of the file is dropped. A line that is not
    valid UTF-8 raises ValueError naming ``path:line``.
    """
    with open(path, encoding="utf-8-sig", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not _is_utf8(line):
                raise ValueError(f"{path}:{line_no}: not valid UTF-8")
            yield line_no, line


def _is_utf8(text: str) -> bool:
    """Whether `text` encodes as UTF-8: text read with errors="surrogateescape" holds a byte that is not UTF-8 as a
    lone surrogate, which does not."""
    if not text.isascii():
        try:
            text.encode("utf-8")
        except UnicodeEncodeError:
            return False
    return True


def _in_range(lo: float, hi: float = math.inf):
    """A check that a number lies in [lo, hi]: None if it does, else why not. NaN lies in no range."""
    return lambda value: None if lo <= value <= hi else f"must lie in [{lo}, {hi}], got {value}"


def load_config(path: str) -> dict[str, tuple[int, str]]:
    """Each key of a config file, with the number of the line that sets it and its value, in file order.

    A line without ``=``, or a key set a second time, raises ValueError naming ``path:line``.
    """
    cfg: dict[str, tuple[int, str]] = {}
    for line_no, raw in utf8_lines(path):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{line_no}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in cfg:
            raise ValueError(f"{path}:{line_no}: config key {key!r} is repeated (line {cfg[key][0]} sets it too)")
        cfg[key] = line_no, value
    return cfg
