"""The one rule by which every layer shows a value in an error message.

It imports only sys, so a layer that formats an error loads no other
layer for it.
"""

import sys


def _shown(x: object) -> str:
    """x for an error message: an int of 10**30 or more by its bit length, as
    Python prints no int past 4300 digits, and a Fraction as p/q (p alone
    when q = 1) with p and q shown so; anything else as its repr, cut after
    40 characters and followed by its length when past 100."""
    if isinstance(x, int) and abs(x) >= 10**30:
        return f"<{x.bit_length()}-bit number>"
    # No Fraction exists before fractions is loaded, so look the module up
    # rather than import it for a command that never builds one.
    fractions = sys.modules.get("fractions")
    if fractions is not None and isinstance(x, fractions.Fraction):
        return _shown(x.numerator) + (f"/{_shown(x.denominator)}" if x.denominator != 1 else "")
    return _cut(repr(x))


def _cut(text: str, longest: int = 100) -> str:
    """text, or past longest characters its first 40 followed by its length."""
    return text if len(text) <= longest else f"{text[:40]}... ({len(text)} characters)"
