"""HTML rendering helpers for the synthetic origins.

The paper's crawler infers Dissenter-account existence from response
*size* (user pages are >10 kB because of bundled CSS/JS; missing-user
responses are ~150 bytes), so page weight is part of the contract here:
:func:`page` pads every real page past the 10 kB threshold with a
deterministic style block, and :func:`tiny_error` renders the ~150-byte
negative response.
"""

from __future__ import annotations

from html import escape

__all__ = ["PAGE_SIZE_THRESHOLD", "page", "tiny_error"]

PAGE_SIZE_THRESHOLD = 10_240   # bytes; the paper's ">= 10 kB" detector

# A deterministic CSS filler emulating the bundled stylesheet weight of the
# real application.  Generated once at import; content is irrelevant, bytes
# are not.
_FILLER_RULES = "\n".join(
    f".c{i:04d} {{ margin: {i % 7}px; padding: {i % 5}px; "
    f"color: #{(i * 2654435761) % 0xFFFFFF:06x}; }}"
    for i in range(200)
)
_STYLE_BLOCK = f"<style>\n{_FILLER_RULES}\n</style>"


def page(title: str, body: str, pad: bool = True) -> str:
    """Assemble a full HTML page.

    Args:
        title: the <title> content (already plain text; escaped here).
        body: inner HTML (caller escapes its own dynamic content).
        pad: include the stylesheet filler that keeps real pages heavy.
    """
    style = _STYLE_BLOCK if pad else ""
    return (
        "<!DOCTYPE html>\n"
        f"<html><head><title>{escape(title)}</title>{style}</head>\n"
        f"<body>\n{body}\n</body></html>\n"
    )


def tiny_error(message: str = "Not Found") -> str:
    """The ~150-byte negative response body."""
    return (
        "<!DOCTYPE html><html><head><title>Error</title></head>"
        f"<body><p>{escape(message)}</p></body></html>"
    )
