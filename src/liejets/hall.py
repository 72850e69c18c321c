"""Free nilpotent Lie algebras on a Lyndon-word Hall basis.

The basis of the free Lie algebra on m generators, truncated at bracket
length c, is indexed by Lyndon words of length <= c.  Each word carries its
standard bracketing; expanding those bracketings in the free associative
algebra gives a triangular system (a Lyndon word is the lexicographically
smallest word in its own expansion, with coefficient 1), which lets us
rewrite any bracket of basis elements back into the basis and read off exact
structure constants.

Only m <= 3 and c <= 3 are supported; that is all the verification drivers
need and keeps every table tiny.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from .algebras import AlgebraError, LieAlgebraSpec

__all__ = ["free_nilpotent", "GENERATOR_LETTERS"]

GENERATOR_LETTERS = ("x", "y", "z")

#: Bracket trees are ints (generator index) or pairs (left_tree, right_tree).
Tree = object


def _is_lyndon(word: tuple[int, ...]) -> bool:
    """A word is Lyndon iff it is strictly smaller than all proper rotations."""
    n = len(word)
    if n == 1:
        return True
    return all(word < word[i:] + word[:i] for i in range(1, n))


def lyndon_words(alphabet_size: int, max_length: int) -> list[tuple[int, ...]]:
    """All Lyndon words over {0..alphabet_size-1} of length <= max_length,
    sorted by (length, lexicographic)."""
    out = []
    for length in range(1, max_length + 1):
        for word in product(range(alphabet_size), repeat=length):
            if _is_lyndon(word):
                out.append(word)
    return out


def standard_bracketing(word: tuple[int, ...]) -> Tree:
    """Standard bracket tree of a Lyndon word.

    For length >= 2 the right factor is the smallest proper suffix, which is
    itself Lyndon, as is the left factor.
    """
    if len(word) == 1:
        return word[0]
    suffix = min(word[i:] for i in range(1, len(word)))
    split = len(word) - len(suffix)
    return (standard_bracketing(word[:split]), standard_bracketing(suffix))


def _concat_product(a: dict, b: dict, cap: int) -> dict:
    """Concatenation product of word->coefficient tables, dropping words
    longer than cap."""
    out: dict = {}
    for w1, c1 in a.items():
        for w2, c2 in b.items():
            if len(w1) + len(w2) > cap:
                continue
            w = w1 + w2
            acc = out.get(w, 0) + c1 * c2
            if acc:
                out[w] = acc
            else:
                del out[w]
    return out


def _commutator(left: dict, right: dict, cap: int) -> dict:
    """left*right - right*left in the free associative algebra (degree <= cap)."""
    out = _concat_product(left, right, cap)
    for w, c in _concat_product(right, left, cap).items():
        acc = out.get(w, 0) - c
        if acc:
            out[w] = acc
        else:
            del out[w]
    return out


def expand_tree(tree: Tree, cap: int) -> dict:
    """Expansion of a bracket tree in the free associative algebra (degree <= cap)."""
    if isinstance(tree, int):
        return {(tree,): Fraction(1)}
    return _commutator(expand_tree(tree[0], cap), expand_tree(tree[1], cap), cap)


def _tree_name(tree: Tree, letters: tuple[str, ...]) -> str:
    if isinstance(tree, int):
        return letters[tree]
    return f"[{_tree_name(tree[0], letters)},{_tree_name(tree[1], letters)}]"


def _rewrite_to_basis(tensor: dict, expansions: dict) -> dict:
    """Express a Lie element of the free associative algebra in the Lyndon
    basis.  ``expansions`` maps each basis word to its tree expansion.

    Works degree by degree: repeatedly peel off the smallest remaining word,
    which must be a basis word with unit leading coefficient.
    """
    work = {w: c for w, c in tensor.items() if c}
    out: dict = {}
    while work:
        w = min(work, key=lambda u: (len(u), u))
        c = work.pop(w)
        expansion = expansions.get(w)
        if expansion is None:
            raise AlgebraError(
                f"word {w} is not a Lyndon basis word; input is not a Lie element"
            )
        out[w] = c
        for u, q in expansion.items():
            if u == w:
                continue
            acc = work.get(u, 0) - c * q
            if acc:
                work[u] = acc
            else:
                work.pop(u, None)
    return out


def free_nilpotent(generator_count: int, nilpotency_class: int) -> LieAlgebraSpec:
    """Free nilpotent Lie algebra on the Hall basis, with structure constants
    computed by expansion and triangular rewriting."""
    for what, value in (("generator count", generator_count),
                        ("nilpotency class", nilpotency_class)):
        # a bool or float would pass the range test and leak into the name
        if value.__class__ is not int or not 1 <= value <= 3:
            raise AlgebraError(f"{what} must be between 1 and 3, got {value!r}")
    cap = nilpotency_class
    words = lyndon_words(generator_count, cap)
    trees = [standard_bracketing(w) for w in words]
    expansions = {w: expand_tree(t, cap) for w, t in zip(words, trees)}
    for w, expansion in expansions.items():
        lead = min(expansion, key=lambda u: (len(u), u))
        if lead != w or expansion[w] != 1:
            raise AlgebraError(f"basis word {w} is not triangular")
    word_index = {w: k for k, w in enumerate(words)}

    structure: dict = {}
    n = len(words)
    for i in range(n):
        for j in range(i + 1, n):
            if len(words[i]) + len(words[j]) > cap:
                continue
            commutator = _commutator(expansions[words[i]], expansions[words[j]], cap)
            coeffs = _rewrite_to_basis(commutator, expansions)
            entries = tuple(sorted((word_index[w], c) for w, c in coeffs.items() if c))
            if entries:
                structure[(i, j)] = entries

    letters = GENERATOR_LETTERS[:generator_count]
    return LieAlgebraSpec(
        name=f"free-nilpotent({generator_count},{nilpotency_class})",
        basis=tuple(_tree_name(t, letters) for t in trees),
        structure=structure,
        degrees=tuple(len(w) for w in words),
    )
