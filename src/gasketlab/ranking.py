"""Canonical integer ranks for k-subsets and permutations.

Subsets of {1..n} are ranked by the colexicographic combinadic: with
0-based elements e_1 < e_2 < ... < e_k (= label - 1),

    rank = sum_t C(e_t, t)    in [0, C(n,k)).

Permutations of {1..k} use the Lehmer (factorial-base) rank, identity = 0.
These are the minimal-length canonical indices used by the two-part codec's
bit accounting.
"""

from __future__ import annotations

from math import comb, factorial
from typing import Sequence

from .errors import DomainError, ResourceLimitError, check_int, check_iterable, shown

__all__ = [
    "ceil_log2",
    "rank_subset",
    "unrank_subset",
    "rank_permutation",
    "unrank_permutation",
]

# The largest permutation size k: it covers sierpinski:9 (9,843 vertices),
# and unrank_permutation takes about 0.2 s for a random rank at the cap on a
# 2-core machine (its k small divisions of a rank of up to k log2 k bits)
PERMUTATION_SIZE_MAX = 10_000


def ceil_log2(x: int) -> int:
    """Smallest b with 2**b >= x; the whole-bit cost of one index in [0, x)."""
    x = check_int(x, "ceil_log2 argument x", 1)
    return (x - 1).bit_length()


def rank_subset(members: Sequence[int], n: int) -> int:
    """Colex combinadic rank of a sorted subset of {1..n}."""
    n = check_int(n, "host size n", 0)
    members = [check_int(v, "subset member", 1, n) for v in check_iterable(members, "subset")]
    if any(a >= b for a, b in zip(members, members[1:])):
        raise DomainError("subset must be strictly increasing")
    return sum(comb(v - 1, t) for t, v in enumerate(members, start=1))


def unrank_subset(rank: int, n: int, k: int) -> tuple[int, ...]:
    """Inverse of :func:`rank_subset`."""
    n, k = check_int(n, "host size n", 0), check_int(k, "subset size k", 0)
    rank = check_int(rank, "subset rank", 0, comb(n, k) - 1)
    out = []
    r = rank
    for t in range(k, 0, -1):
        # largest e with C(e, t) <= r
        e = t - 1
        while comb(e + 1, t) <= r:
            e += 1
        out.append(e + 1)
        r -= comb(e, t)
    return tuple(reversed(out))


def rank_permutation(perm: Sequence[int]) -> int:
    """Lehmer rank of a permutation of {1..k}."""
    perm = [check_int(v, "permutation member") for v in check_iterable(perm, "permutation")]
    k = len(perm)
    if sorted(perm) != list(range(1, k + 1)):
        raise DomainError(f"{shown(tuple(perm), str)} is not a permutation of 1..{k}")
    rank = 0
    for i in range(k):
        smaller_later = sum(1 for j in range(i + 1, k) if perm[j] < perm[i])
        rank += smaller_later * factorial(k - 1 - i)
    return rank


def unrank_permutation(rank: int, k: int) -> tuple[int, ...]:
    """Inverse of :func:`rank_permutation`, for k up to
    ``PERMUTATION_SIZE_MAX``; a larger k raises ResourceLimitError before
    any factorial is formed.

    The Lehmer digits are read least significant first, one division by a
    radix of at most k each, so no factorial but k! itself is formed."""
    k = check_int(k, "permutation size k", 0)
    if k > PERMUTATION_SIZE_MAX:
        raise ResourceLimitError(
            f"permutation size k={shown(k)} exceeds the cap "
            f"PERMUTATION_SIZE_MAX = {PERMUTATION_SIZE_MAX}"
        )
    r = check_int(rank, "permutation rank", 0, factorial(k) - 1)
    digits = [0] * k  # digits[i] < k - i counts the smaller members after position i
    for radix in range(2, k + 1):
        if not r:
            break
        r, digits[k - radix] = divmod(r, radix)
    available = list(range(1, k + 1))
    return tuple(available.pop(d) for d in digits)
