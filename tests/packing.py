"""Reference layout of packed symmetric tensors, for any k.

The library stores a symmetric k-tensor as its distinct entries, the index tuples
a <= b (<= c) in lexicographic order, and writes the k = 2, 3 and 4 cases out by
name (``kernel._PAIR_INDEX``, ``kernel.radial_chain``, ``tensors._radial_point``);
the tests build their generic loops and dense views over these tables.
"""

from functools import lru_cache

import numpy as np


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


def gauss_tensor(cartan, chart_metric):
    """Dense curvature tensor of a k = 3 indicatrix chart by the Gauss equation, and the
    tensor of unit constant curvature, from the packed Cartan tensor and chart metric that
    ``curvature.gauss_curvatures`` takes: at one point, or at m points as rows of m.
    R_ijkl = sign [G_ijkl - (C_ik. m^-1 C_jl. - C_il. m^-1 C_jk.)] with
    G_ijkl = m_ik m_jl - m_il m_jk, sign that of m's first entry; R_ijij is the sectional
    curvature of the ij plane times its area G_ijij."""
    _, _, pair_at, triple_at = packing(3)
    m = np.asarray(chart_metric)[..., np.array(pair_at)]
    c = np.asarray(cartan)[..., np.array(triple_at)]
    t = np.einsum("...ikp,...pq,...jlq->...ijkl", c, np.linalg.inv(m), c)
    g = np.einsum("...ik,...jl->...ijkl", m, m)
    gauss = g - np.swapaxes(g, -1, -2)
    sign = np.sign(m[..., 0, 0])[..., None, None, None, None]
    return sign * (gauss - (t - np.swapaxes(t, -1, -2))), gauss
