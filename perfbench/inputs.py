"""Seeded input generation for the benchmark workloads.

The benchmark owns its generator so that a change to the program under
test (including ``repro.datasets``) can never change the inputs it is
measured on.  Strings are built from a fixed syllable vocabulary with
Zipf-skewed word choice — common names and words give the long inverted
lists real collections have — and a share of near-duplicates (a few
random character edits of an earlier string), so joins and searches
return real matches.
"""

from __future__ import annotations

import random

_CONSONANTS = "bcdfghjklmnprstvwz"
_VOWELS = "aeiouy"


def _vocabulary(tag: str, size: int, min_syllables: int,
                max_syllables: int) -> list[str]:
    """A fixed word list (independent of the workload seed)."""
    rng = random.Random(f"perfbench-vocabulary:{tag}")
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < size:
        word = "".join(rng.choice(_CONSONANTS) + rng.choice(_VOWELS)
                       for _ in range(rng.randint(min_syllables,
                                                  max_syllables)))
        if rng.random() < 0.4:
            word += rng.choice(_CONSONANTS)
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


class _Words:
    """One vocabulary with Zipf weights over its ranks."""

    def __init__(self, tag: str, size: int, min_syllables: int,
                 max_syllables: int, exponent: float) -> None:
        self.words = _vocabulary(tag, size, min_syllables, max_syllables)
        self.weights = [1.0 / rank ** exponent for rank in range(1, size + 1)]

    def deal(self, count: int, rng: random.Random) -> list[str]:
        """``count`` words, each as often as its weight allows, shuffled.

        Whole counts closest to the Zipf shares (largest remainders round
        up), so how often the popular words occur — which sets the length
        of the longest inverted lists — is the same for every seed; the
        seed decides which words meet in one string.
        """
        total = sum(self.weights)
        exact = [count * weight / total for weight in self.weights]
        counts = [int(share) for share in exact]
        by_remainder = sorted(range(len(exact)),
                              key=lambda rank: counts[rank] - exact[rank])
        for rank in by_remainder[:count - sum(counts)]:
            counts[rank] += 1
        dealt = [word for word, times in zip(self.words, counts)
                 for _ in range(times)]
        rng.shuffle(dealt)
        return dealt


_FIRST = _Words("first", 2000, 2, 3, 0.9)
_LAST = _Words("last", 6000, 2, 5, 0.7)
_TITLE = _Words("title", 6000, 1, 4, 1.0)


def author_strings(count: int, rng: random.Random) -> list[str]:
    """Person names, ``first [initial] last`` (about 14 characters)."""
    names = []
    for first, last in zip(_FIRST.deal(count, rng), _LAST.deal(count, rng)):
        if rng.random() < 0.15:
            names.append(f"{first} {rng.choice(_CONSONANTS)} {last}")
        else:
            names.append(f"{first} {last}")
    return names


def _deal_range(count: int, low: int, high: int,
                rng: random.Random) -> list[int]:
    """``count`` whole numbers in ``low..high``, each equally often, shuffled."""
    values = [low + index % (high - low + 1) for index in range(count)]
    rng.shuffle(values)
    return values


def title_strings(count: int, rng: random.Random) -> list[str]:
    """Bibliography lines, ``first last. title words.`` (about 110).

    Author and word counts per line and the words themselves are dealt,
    as for :func:`author_strings`, so line lengths and word frequencies
    are the same for every seed.
    """
    author_counts = _deal_range(count, 1, 3, rng)
    word_counts = _deal_range(count, 8, 15, rng)
    firsts = iter(_FIRST.deal(sum(author_counts), rng))
    lasts = iter(_LAST.deal(sum(author_counts), rng))
    words = iter(_TITLE.deal(sum(word_counts), rng))
    lines = []
    for authors, length in zip(author_counts, word_counts):
        names = ", ".join(f"{next(firsts)} {next(lasts)}"
                          for _ in range(authors))
        title = " ".join(next(words) for _ in range(length))
        lines.append(f"{names}. {title}.")
    return lines


def near_duplicate(text: str, rng: random.Random, max_edits: int) -> str:
    """``text`` with 1 to ``max_edits`` random single-character edits."""
    chars = list(text)
    for _ in range(rng.randint(1, max_edits)):
        kind = rng.random()
        position = rng.randrange(len(chars) + 1)
        letter = rng.choice(_CONSONANTS + _VOWELS)
        if kind < 0.4 and position < len(chars):
            chars[position] = letter
        elif kind < 0.7 and position < len(chars) and len(chars) > 4:
            del chars[position]
        else:
            chars.insert(position, letter)
    return "".join(chars)


_FACTORIES = {"author": author_strings, "title": title_strings}


def generate(kind: str, size: int, seed: int, *, duplicate_share: float,
             max_edits: int, salt: str = "") -> list[str]:
    """``size`` strings of ``kind`` (``author`` or ``title``) for ``seed``.

    The same arguments always give the same list.  A
    ``duplicate_share`` of the strings, at seeded positions, are near
    duplicates of an earlier string.  ``salt`` separates independent
    streams drawn from one seed (the collection, the query pool, the
    inserted strings).
    """
    rng = random.Random(f"perfbench:{kind}:{seed}:{size}:{salt}")
    duplicates = min(round(size * duplicate_share), max(size - 1, 0))
    slots = [True] * duplicates + [False] * (size - duplicates)
    rng.shuffle(slots)
    if slots and slots[0]:
        slots[slots.index(False)] = True
        slots[0] = False
    fresh = iter(_FACTORIES[kind](size - duplicates, rng))
    strings: list[str] = []
    for duplicate in slots:
        strings.append(near_duplicate(rng.choice(strings), rng, max_edits)
                       if duplicate else next(fresh))
    return strings
