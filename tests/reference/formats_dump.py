"""Frozen reference copy of the document writer ``formats._dump`` before it
wrote each document in one traversal.

Kept unchanged as an oracle for ``tests/test_formats_fuzz.py``.  Do not edit
this file.
"""

from __future__ import annotations

import json
import re


def _has_dict(node) -> bool:
    if isinstance(node, dict):
        return True
    if isinstance(node, (list, tuple)):
        return any(_has_dict(x) for x in node)
    return False


def _dump(doc: dict) -> str:
    """Indented JSON with short leaf arrays kept on one line."""
    compacted: list[str] = []

    def mark(node):
        if isinstance(node, (list, tuple)):
            if not _has_dict(node):
                compact = json.dumps(list(node), allow_nan=False)
                if len(compact) <= 76:
                    compacted.append(compact)
                    return f"\u0000{len(compacted) - 1}\u0000"
            return [mark(x) for x in node]
        if isinstance(node, dict):
            return {key: mark(value) for key, value in node.items()}
        return node

    text = json.dumps(mark(doc), indent=2, allow_nan=False)
    text = re.sub(r'"\\u0000(\d+)\\u0000"', lambda m: compacted[int(m.group(1))], text)
    return text + "\n"
