"""Substitutions on free monoids and prefixes of their fixed points."""

from __future__ import annotations

from collections.abc import Mapping

from .words import Alphabet, BINARY, Word


class Morphism:
    """Letter-to-word substitution, determined by one image per source symbol."""

    def __init__(
        self,
        source: Alphabet,
        target: Alphabet,
        images: Mapping[str, Word | str],
    ) -> None:
        self.source = source
        self.target = target
        table: dict[str, str] = {}
        for symbol in source.symbols:
            if symbol not in images:
                raise ValueError(f"no image given for symbol {symbol!r}")
            image = images[symbol]
            if isinstance(image, str):
                image = Word(target, image)
            elif image.alphabet != target:
                raise ValueError(f"image of {symbol!r} is not over the target alphabet")
            table[symbol] = image.text
        extra = set(images) - set(source.symbols)
        if extra:
            raise ValueError(f"images given for unknown symbols {sorted(extra)!r}")
        self._images = table  # symbol -> image text, the one table `apply` reads

    def image(self, symbol: str) -> Word:
        if symbol not in self._images:
            raise ValueError(f"symbol {symbol!r} not in source alphabet")
        return Word(self.target, self._images[symbol])

    def __repr__(self) -> str:
        body = ", ".join(f"{s}->{text}" for s, text in self._images.items())
        return f"Morphism({body})"


def fibonacci_morphism() -> Morphism:
    """The substitution 0 -> 01, 1 -> 0 on the binary alphabet."""
    return Morphism(BINARY, BINARY, {"0": "01", "1": "0"})


def _image_text(h: Morphism, text: str) -> str:
    """h applied to a text over its source alphabet, as text: the images of its letters, in order."""
    return "".join(map(h._images.__getitem__, text))


def apply(h: Morphism, w: Word) -> Word:
    """Concatenation of the images of w's letters, in order."""
    if w.alphabet != h.source:
        raise ValueError("word is not over the morphism's source alphabet")
    return Word(h.target, _image_text(h, w.text))


def mortal_letters(h: Morphism) -> frozenset[str]:
    """Letters whose iterated images eventually vanish.

    Fixpoint: a letter is mortal iff its image consists only of mortal
    letters (in particular, letters with empty image).  Requires equal
    source and target alphabets.
    """
    if h.source != h.target:
        raise ValueError("mortality needs an endomorphism (equal alphabets)")
    mortal: set[str] = set()  # the first pass adds the letters with empty image
    changed = True
    while changed:
        changed = False
        for s, text in h._images.items():
            if s not in mortal and all(c in mortal for c in text):
                mortal.add(s)
                changed = True
    return frozenset(mortal)


def is_prolongable(h: Morphism, a: str) -> bool:
    """True iff h(a) = a x with x non-empty and never erased under iteration."""
    if h.source != h.target:
        raise ValueError("prolongability needs an endomorphism (equal alphabets)")
    if a not in h.source:
        raise ValueError(f"symbol {a!r} not in alphabet")
    image = h._images[a]
    if not image.startswith(a) or len(image) < 2:
        return False
    remainder = image[1:]
    mortal = mortal_letters(h)
    return any(c not in mortal for c in remainder)


def fixed_point_prefix(h: Morphism, a: str, n: int) -> Word:
    """The length-n prefix of the infinite fixed point h^omega(a).

    With h(a) = a x, h^{k+1}(a) = h^k(a) h^k(x): each step appends the image
    of the previous extension, so the morphism is applied to whole texts and
    every letter of the prefix is made once.  Every step is a text over the
    alphabet, so only the returned prefix is built as a (validated) Word.
    h^k(x) is never empty, because x holds a letter that is not mortal, so
    the loop ends.
    """
    if not is_prolongable(h, a):
        raise ValueError(f"morphism is not prolongable on {a!r}")
    if n < 1:
        raise ValueError("prefix length must be >= 1")
    parts, length = [a], 1
    extension = h._images[a][1:]
    while True:
        parts.append(extension)
        length += len(extension)
        if length >= n:
            return Word(h.source, "".join(parts)[:n])
        extension = _image_text(h, extension)
