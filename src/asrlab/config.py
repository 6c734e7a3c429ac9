"""Flat key-value run configuration shared by the CLI subcommands.

Format: UTF-8 lines of ``key = value`` with ``#`` comments; keys use dotted
namespaces (``curation.wpm_min``). Command-line flags always win over the file;
the CLI's option table says which key feeds which flag.
"""

from __future__ import annotations

__all__ = ["load_config"]


def load_config(path: str) -> dict[str, str]:
    cfg: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{line_no}: expected 'key = value', got {line!r}")
            key, value = line.split("=", 1)
            cfg[key.strip()] = value.strip()
    return cfg

