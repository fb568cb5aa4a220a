"""``split_url``'s character classes admit exactly visible ASCII less
each part's delimiters.

Each positive class must have the membership of the negated class it
spells out (everything but controls, space, DEL, non-ASCII and the
part's delimiters), checked over every code point.
"""

import re

import pytest

from repro.net import http

_NOT_VISIBLE = r"\x00-\x20\x7f-\U0010ffff"
_ALL_CODE_POINTS = "".join(map(chr, range(0x110000)))


@pytest.mark.parametrize(
    "name, negated",
    [
        ("_NETLOC", rf"[^{_NOT_VISIBLE}/?#\[\]]"),
        ("_PATH", rf"[^{_NOT_VISIBLE}?#]"),
        ("_QUERY", rf"[^{_NOT_VISIBLE}#]"),
        ("_FRAGMENT", rf"[^{_NOT_VISIBLE}]"),
    ],
)
def test_class_membership_over_every_code_point(name, negated):
    def members(pattern):
        return [m.start() for m in re.finditer(pattern, _ALL_CODE_POINTS)]

    assert members(getattr(http, name)) == members(negated)
