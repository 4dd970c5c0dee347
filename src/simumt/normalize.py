"""ASR-style text normalization.

Transcripts and their translations are compared in a lowercased,
punctuation-free space where standalone numbers are written out in
letters, matching what a speech recognizer emits.  The same function is
applied to hypotheses and references so the comparison stays fair.
"""
from __future__ import annotations

import logging

logger = logging.getLogger(__name__)

_ONES = (
    "zero one two three four five six seven eight nine ten eleven twelve "
    "thirteen fourteen fifteen sixteen seventeen eighteen nineteen"
).split()
_TENS = (
    "", "", "twenty", "thirty", "forty", "fifty", "sixty", "seventy",
    "eighty", "ninety",
)

NUMBER_LEXICON_LIMIT = 10_000


def number_to_words(n: int) -> str:
    """English words for 0 <= n < 10000, space separated, no hyphens."""
    if not 0 <= n < NUMBER_LEXICON_LIMIT:
        raise ValueError(f"number {n} outside [0, {NUMBER_LEXICON_LIMIT})")
    if n < 20:
        return _ONES[n]
    if n < 100:
        tens, ones = divmod(n, 10)
        return _TENS[tens] + (" " + _ONES[ones] if ones else "")
    if n < 1000:
        hundreds, rest = divmod(n, 100)
        out = _ONES[hundreds] + " hundred"
        return out + (" " + number_to_words(rest) if rest else "")
    thousands, rest = divmod(n, 1000)
    out = _ONES[thousands] + " thousand"
    return out + (" " + number_to_words(rest) if rest else "")


def build_number_lexicon() -> dict[str, str]:
    """Map decimal strings "0".."9999" to their word forms."""
    return {str(n): number_to_words(n) for n in range(NUMBER_LEXICON_LIMIT)}


_DEFAULT_LEXICON: dict[str, str] | None = None


def default_number_lexicon() -> dict[str, str]:
    global _DEFAULT_LEXICON
    if _DEFAULT_LEXICON is None:
        _DEFAULT_LEXICON = build_number_lexicon()
    return _DEFAULT_LEXICON


def asr_normalize(text: str) -> str:
    """Lowercase, strip punctuation, spell out digit-only tokens.

    Characters that are neither alphanumeric nor whitespace are deleted
    (so "3,000" becomes the token "3000" before lookup).  Whitespace is
    collapsed to single spaces.  A digit-only token not covered by the
    lexicon (`default_number_lexicon`) is kept verbatim and a warning is
    logged.  The function is idempotent: normalizing its own output is a
    no-op.
    """
    number_lexicon = default_number_lexicon()
    kept = [c for c in text.lower() if c.isalnum() or c.isspace()]
    out: list[str] = []
    for tok in "".join(kept).split():
        if tok.isdigit():
            word = number_lexicon.get(tok)
            if word is None and tok != str(int(tok)):
                word = number_lexicon.get(str(int(tok)))  # drop leading zeros
            if word is None:
                logger.warning("no word form for number token %r; kept as is", tok)
                out.append(tok)
            else:
                out.append(word)
        else:
            out.append(tok)
    return " ".join(out)
