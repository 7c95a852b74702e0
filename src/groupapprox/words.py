"""Freely reduced words over a signed alphabet.

A word is a tuple of nonzero ints: +i is the i-th symbol (1-based), -i
its inverse.  The empty tuple is the identity word, written "1" in text.
Text words are whitespace-separated tokens ``name`` or ``name^k`` for an
integer k, e.g. "a b^-1 a^2".
"""

from __future__ import annotations

import re

from .errors import ParseError
from .perm import Permutation, identity

Word = tuple


def reduce_word(symbols) -> Word:
    out = []
    for s in symbols:
        if s == 0:
            raise ValueError("0 is not a word symbol")
        if out and out[-1] == -s:
            out.pop()
        else:
            out.append(s)
    return tuple(out)


def concat(*parts) -> Word:
    merged = []
    for p in parts:
        merged.extend(p)
    return reduce_word(merged)


def evaluate_word(word, images, degree: int) -> Permutation:
    """Image of a word under symbol i -> images[i-1] (right-action product)."""
    result = None
    for s in word:
        i = abs(s) - 1
        if i >= len(images):
            raise ValueError(f"word uses symbol {abs(s)} but only {len(images)} images given")
        g = images[i]
        if len(g) != degree:
            raise ValueError(f"image degree {len(g)} does not match carrier degree {degree}")
        if s < 0:
            g = g.inverse()
        result = g if result is None else result * g
    return identity(degree) if result is None else result


def paired_images(domain):
    """Each element with its inverse, so a compiled word finds either by slot.

    A listed domain (tuple or list) is paired once into a list.  Any other
    domain is a re-iterable view, such as ``FiniteGroup.iter_elements`` of
    ``S_m``; it is paired afresh on each pass and never listed.
    """
    if isinstance(domain, (tuple, list)):
        return [(x, x.inverse()) for x in domain]
    return _Paired(domain)


class _Paired:
    """Re-iterable pairs (x, x^-1) over a re-iterable domain."""

    __slots__ = ("domain",)

    def __init__(self, domain):
        self.domain = domain

    def __iter__(self):
        return ((x, x.inverse()) for x in self.domain)


def compile_word(word) -> tuple[int, ...]:
    """Slots of the letters in a flattened paired assignment (``paired_images``):
    symbol i at 2(i - 1), its inverse at 2(i - 1) + 1."""
    return tuple(2 * abs(s) - 2 + (s < 0) for s in word)


def evaluate_compiled(slots, vals, points) -> tuple:
    """Image tuple of a compiled word under the flattened paired assignment
    ``vals``, composing raw tuples; ``points`` (the identity) for the empty word."""
    if not slots:
        return points
    image = vals[slots[0]]
    for k in slots[1:]:
        image = map(vals[k].__getitem__, image)
    return tuple(image)


def max_symbol(word) -> int:
    return max((abs(s) for s in word), default=0)


def parse_word(text: str, names, line=None, source=None, column=1) -> Word:
    """Parse a text word over the given symbol names; "1" is the identity.

    ``column`` is the 1-based column of ``text[0]`` in its line, so an error
    points at the bad token in the file.
    """
    index = {name: i + 1 for i, name in enumerate(names)}
    stripped = text.strip()
    if stripped == "1" or not stripped:
        return ()
    symbols = []
    for match in re.finditer(r"\S+", text):
        col, tok = column + match.start(), match.group()
        name, caret, exp_text = tok.partition("^")
        if name not in index:
            raise ParseError(f"unknown symbol {name!r}", line=line, column=col, source=source)
        try:
            exp = int(exp_text) if caret else 1
        except ValueError:
            raise ParseError(
                f"bad exponent {exp_text!r} on {name!r}", line=line, column=col, source=source
            )
        s = index[name]
        symbols.extend([s if exp > 0 else -s] * abs(exp))
    return reduce_word(symbols)


def word_str(word, names) -> str:
    if not word:
        return "1"
    parts = []
    for s in word:
        name = names[abs(s) - 1]
        parts.append(name if s > 0 else f"{name}^-1")
    return " ".join(parts)
