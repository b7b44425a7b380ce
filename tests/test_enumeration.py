"""The existence search against brute force over every subset of atom
column spaces.

For a finite distribution a critical subspace, if there is one, is spanned
by the column spaces of some atoms.  With at most about ten distinct column
spaces every such span can be listed, which decides the existence conditions
independently of the breadth-first search in ``check_existence``.
"""

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mscatter import augment, build_kstat, check_existence, from_observations, gaussian, t_dist, tyler
from mscatter.distribution import MatrixDistribution
from mscatter.rho import CASE0

LOSSES = {"tyler": tyler, "t": lambda q: t_dist(1.5, q), "gaussian": lambda q: gaussian()}


def column_spaces(q):
    """(basis, weight) of every nonzero atom and the weight of the zero atoms."""
    spaces, zero = [], 0.0
    for a, w in zip(q.atoms, q.weights):
        lam, vec = np.linalg.eigh(a)
        cols = vec[:, lam > 1e-9 * max(lam[-1], 1e-300)]
        if cols.shape[1]:
            spaces.append((cols, w))
        else:
            zero += w
    return spaces, zero


def mass_inside(q, basis):
    """Weight of the atoms whose column space lies inside span(basis)."""
    spaces, zero = column_spaces(q)
    proj = basis @ basis.T
    return zero + sum(w for cols, w in spaces if np.linalg.norm(cols - proj @ cols) <= 1e-6)


def threshold(f, d, q):
    if f.case_tag == CASE0:
        return d / q
    if np.isinf(f.psi_infinity):
        return 1.0
    return (f.psi_infinity - q + d) / f.psi_infinity


def oracle_verdict(q, f):
    """'violated' if the zero space or the span of some subset of distinct
    atom column spaces is proper and carries its critical mass."""
    dim = q.dim
    spaces, zero = column_spaces(q)
    if zero > 0 and (f.case_tag == CASE0 or zero >= threshold(f, 0, dim) - 1e-12):
        return "violated"
    distinct = []
    for cols, _ in spaces:
        if not any(b.shape == cols.shape and np.allclose(b @ b.T, cols @ cols.T, atol=1e-8)
                   for b in distinct):
            distinct.append(cols)
    assert len(distinct) <= 12
    for r in range(1, len(distinct) + 1):
        for subset in itertools.combinations(distinct, r):
            u, sv, _ = np.linalg.svd(np.hstack(subset), full_matrices=False)
            span = u[:, sv > 1e-10 * sv[0]]
            d = span.shape[1]
            if d < dim and mass_inside(q, span) >= threshold(f, d, dim) - 1e-12:
                return "violated"
    return "satisfied"


@st.composite
def problems(draw):
    """A distribution with at most about ten distinct atom column spaces,
    from rows with duplicates and optionally confined to a subspace, and a
    loss for it."""
    kind = draw(st.sampled_from(["observations", "augmented", "k2", "k3"]))
    q = draw(st.integers(2, 4 if kind != "augmented" else 3))
    n = draw(st.integers(2 if kind != "k3" else 3, 9 if kind in ("observations", "augmented") else 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal((n, q))
    if draw(st.booleans()):
        d = draw(st.integers(1, q - 1))
        x = x[:, :d] @ rng.standard_normal((d, q))
    dup = draw(st.integers(0, n // 2))
    x[n - dup:] = x[:dup]
    if kind == "augmented":
        prob = augment(x, draw(st.sampled_from([1.0, 3.0])))
        dist, f = prob.q_aug, prob.augmented_rho
    else:
        dist = from_observations(x) if kind == "observations" else build_kstat(x, int(kind[1]))
        f = LOSSES[draw(st.sampled_from(sorted(LOSSES)))](q)
    if draw(st.booleans()):
        dist = MatrixDistribution(dist.atoms, dist.weights, source=dist.source)
    return dist, f


@settings(max_examples=150, deadline=None, derandomize=True)
@given(problem=problems())
def test_search_agrees_with_every_subset_span(problem):
    q, f = problem
    rep = check_existence(q, f)
    if rep.method == "exact_enumeration":
        assert rep.verdict == oracle_verdict(q, f)
    projectors = [w.basis @ w.basis.T for w in rep.witnesses]
    for i, w in enumerate(rep.witnesses):
        assert not any(p.shape == projectors[i].shape and np.allclose(p, projectors[i], atol=1e-8)
                       for p in projectors[:i])
        mass = mass_inside(q, w.basis) if w.subspace_dim else column_spaces(q)[1]
        assert abs(mass - w.mass) <= 1e-10
        assert mass >= w.threshold - 1e-12
