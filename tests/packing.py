"""Reference layout of packed symmetric tensors, for any k.

The library stores a symmetric k-tensor as its distinct entries, the index tuples
a <= b (<= c) in lexicographic order, and writes the k = 2, 3 and 4 cases out by
name (``kernel._PAIR_INDEX``, ``kernel.radial_chain``, ``tensors._radial_point``);
the tests build their generic loops and dense views over these tables.
"""

from functools import lru_cache


@lru_cache(maxsize=None)
def packing(k: int):
    """Index tables, as tuples, of symmetric k-tensors stored packed as their distinct
    entries: the pairs a <= b, per triple a <= b <= c the indices (a, b, c) and the
    packed pairs ab, ac and bc, and the packed position of every pair and triple."""
    pairs = tuple((a, b) for a in range(k) for b in range(a, k))
    triples = [(a, b, c) for a, b in pairs for c in range(b, k)]
    pair_at = tuple(tuple(pairs.index((min(a, b), max(a, b))) for b in range(k)) for a in range(k))
    triple_at = tuple(tuple(tuple(triples.index(tuple(sorted((a, b, c)))) for c in range(k))
                            for b in range(k)) for a in range(k))
    spans = tuple((a, b, c, pair_at[a][b], pair_at[a][c], pair_at[b][c]) for a, b, c in triples)
    return pairs, spans, pair_at, triple_at
