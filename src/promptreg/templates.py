"""Prompt template assets and exact-substitution rendering.

Assets live under ``promptreg/assets`` and are rendered by replacing
``{placeholder}`` markers with caller-supplied text, nothing else. Literal
braces elsewhere in an asset (JSON examples, the ``{{improved variable}}``
span) are left untouched because they never form a bare lowercase
``{word}`` marker.
"""

from __future__ import annotations

import re
from functools import lru_cache
from importlib import resources

PURIFIER = "purifier.txt"
RULE_CANONICALIZER = "rule_canonicalizer.txt"
SEMANTIC_DIFF = "semantic_diff.txt"
REG_GENERATOR = "reg_generator.txt"
UPDATER_SYSTEM = "updater_system.txt"
UPDATER_TRAILING = "updater_trailing.txt"
UPDATER_SKELETON = "updater_skeleton.txt"
UPDATER_REG_SECTION = "updater_reg_section.txt"
RAW_GRADIENT = "raw_gradient.txt"

_PLACEHOLDER_RE = re.compile(r"\{([a-z][a-z_]*)\}")


@lru_cache(maxsize=None)
def load_asset(name: str) -> str:
    """Read a template asset verbatim."""
    return resources.files("promptreg.assets").joinpath(name).read_text(
        encoding="utf-8"
    )


@lru_cache(maxsize=32)
def placeholders(template: str) -> frozenset[str]:
    """Names of all substitution markers in a template string."""
    return frozenset(_PLACEHOLDER_RE.findall(template))


def render(template: str, **values: str) -> str:
    """Substitute every placeholder; unknown or missing names are errors.

    Values are inserted verbatim, in one pass over the template: a marker
    inside a value is text, not a placeholder.
    """
    expected = placeholders(template)
    if values.keys() != expected:
        raise ValueError(
            f"placeholder mismatch: template wants {sorted(expected)}, "
            f"got {sorted(values)}"
        )
    return _PLACEHOLDER_RE.sub(lambda match: values[match[1]], template)


def render_asset(name: str, **values: str) -> str:
    return render(load_asset(name), **values)
