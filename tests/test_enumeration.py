"""The existence search against brute force over every subset of atom
column spaces.

For a finite distribution a critical subspace, if there is one, is spanned
by the column spaces of some atoms.  With at most about ten distinct column
spaces every such span can be listed, which decides the existence conditions
independently of the breadth-first search in ``check_existence``.  The
same recount checks the witnesses that failed fits report.
"""

import itertools
import json
import math
from collections import deque
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from mscatter import (
    SolverConfig,
    augment,
    build_kstat,
    check_existence,
    fixed_point_solve,
    from_observations,
    gaussian,
    t_dist,
    tyler,
    weibull,
)
from mscatter import distribution, symmat
from mscatter.cli import run
from mscatter.distribution import (
    _CONTAIN_TOL,
    ExistenceWitness,
    MatrixDistribution,
    _atom_groups,
    _critical,
    _frame,
    _zero_mass,
    span_witness,
)
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
        dist = MatrixDistribution(dist.atoms, dist.weights)
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


FIT_LOSSES = {"tyler": tyler, "t": lambda q: t_dist(1.0, q), "gaussian": lambda q: gaussian(),
              "weibull": lambda q: weibull(0.5)}


@st.composite
def degenerate_fits(draw):
    """Rows of which a drawn fraction lies in a random proper subspace, a
    loss and an existence budget small enough to stop the search."""
    q = draw(st.integers(2, 4))
    n = draw(st.integers(q + 1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal((n, q))
    d = draw(st.integers(1, q - 1))
    planar = int(round(draw(st.sampled_from([0.25, 0.5, 0.75, 0.9, 1.0])) * n))
    x[:planar] = x[:planar, :d] @ rng.standard_normal((d, q))
    dist = from_observations(x)
    if draw(st.booleans()):
        dist = MatrixDistribution(dist.atoms, dist.weights)
    budget = draw(st.sampled_from([5, 50, 1000]))
    return dist, FIT_LOSSES[draw(st.sampled_from(sorted(FIT_LOSSES)))](q), budget


@settings(max_examples=150, deadline=None, derandomize=True)
@given(problem=degenerate_fits())
def test_fit_verdict_agrees_with_status(problem):
    q, f, budget = problem
    est = fixed_point_solve(q, f, SolverConfig(existence_budget=budget))
    rep = est.existence
    if est.status in ("existence_violated", "diverged"):
        assert rep.verdict != "satisfied"
    if rep.verdict == "violated":
        assert est.status in ("existence_violated", "diverged")
    if rep.method == "sufficient_condition":
        assert est.status == "converged" and rep.verdict == "satisfied"
    for w in rep.witnesses:
        mass = mass_inside(q, w.basis) if w.subspace_dim else column_spaces(q)[1]
        assert abs(mass - w.mass) <= 1e-10
        assert mass >= w.threshold - 1e-12


def test_scan_returns_the_smallest_critical_nested_span():
    # Six of ten rows on e1 and two on e2: the line e1 (0.6 against 1/3) and
    # the plane e1-e2 (0.8 against 2/3) are both critical; the line is given.
    x = np.repeat(np.eye(3), [6, 2, 2], axis=0)
    q = from_observations(x)
    w = span_witness(q, tyler(3), np.eye(3)[:, ::-1])
    assert w.subspace_dim == 1 and abs(w.basis[0, 0]) == 1.0
    assert w.mass == pytest.approx(0.6) and mass_inside(q, w.basis) == pytest.approx(w.mass)
    # No nested span of e3, e3-e2 is critical (0.2 and 0.4).
    assert span_witness(q, tyler(3), np.eye(3)) is None


def rows_in_3d_subspace(n, inside):
    """n seeded rows in R^5 of which the first ``inside`` lie in a random
    3-D subspace."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal((n, 5))
    x[:inside] = rng.standard_normal((inside, 3)) @ rng.standard_normal((3, 5))
    return x


def test_codimension_two_collapse_is_the_witness():
    # Two eigenvalues of the last Psi collapse at different rates, so no
    # single spectral cut separates them; the nested eigenspaces of Psi
    # include the 3-D span of the 29 rows.
    x = rows_in_3d_subspace(39, 29)
    q = from_observations(x)
    est = fixed_point_solve(q, t_dist(1.5, 5), SolverConfig(existence_budget=5))
    assert (est.status, est.iterations) == ("diverged", 143)
    assert (est.existence.verdict, est.existence.method) == ("violated", "witness")
    (w,) = est.existence.witnesses
    assert w.subspace_dim == 3
    assert w.mass == pytest.approx(29 / 39, abs=1e-12)
    assert abs(mass_inside(q, w.basis) - w.mass) <= 1e-10
    assert w.threshold == pytest.approx(4.5 / 6.5) and w.mass >= w.threshold
    rows = np.linalg.svd(x[:29].T, full_matrices=False)[0][:, :3]
    assert np.allclose(w.basis @ w.basis.T, rows @ rows.T, atol=1e-6)


@pytest.mark.parametrize("flags", [["--estimator", "tyler"], ["--estimator", "t", "--nu", "1.5"]])
def test_cli_codimension_two_collapse_is_the_witness(tmp_path, capsys, flags):
    x = rows_in_3d_subspace(60, 45)
    path = tmp_path / "x.csv"
    np.savetxt(path, x, delimiter=",", fmt="%.17g")
    code = run(["scatter", "--input", str(path)] + flags)
    doc = json.loads(capsys.readouterr().out)
    assert code == 2
    assert doc["status"] == "diverged"
    assert (doc["existence"]["verdict"], doc["existence"]["method"]) == ("violated", "witness")
    (w,) = doc["existence"]["witnesses"]
    assert w["dim"] == 3 and w["mass"] == pytest.approx(0.75, abs=1e-12)
    assert abs(mass_inside(from_observations(x), np.asarray(w["basis"])) - w["mass"]) <= 1e-10


# -- the search against its unscreened form ------------------------------------
#
# ``_containment`` and ``_enumerate`` below are the search as it was before
# unions were screened, mirrored unions skipped and containment batched:
# every union of a node with a group not inside it got an SVD, and every
# child its own containment product.  The search must build the same
# candidates in the same order, so it must charge the same budget and report
# the same witnesses.


def _containment(bases):
    """``inside(U)``: the mask of the groups whose column space lies inside
    span(U), one product against all groups' basis columns reduced per group."""
    ranks = np.array([b.shape[1] for b in bases])
    cols, owner = np.hstack(bases), np.repeat(np.arange(len(bases)), ranks)

    def inside(u):
        resid = cols - u @ (u.T @ cols)
        return np.bincount(owner, np.einsum("ij,ij->j", resid, resid), len(bases)) <= _CONTAIN_TOL**2 * ranks

    return inside


def _enumerate(bases, masses, zero_mass, f, dim, budget, witnesses) -> bool:
    """Breadth-first search over the spans of unions of groups.

    Appends every critical candidate to ``witnesses``; returns False when the
    budget runs out.  A candidate is the span of the groups it contains, so
    the boolean mask of those groups keys it exactly.  Each new distinct
    candidate is charged when it is built, and depth one (the groups
    themselves) is swept whole before the charge is compared with the budget.
    When every group is a line and dim > 2, every pair of lines spans a
    proper plane, so the search stops at once if the lines and their pairs
    exceed the budget.
    """
    n = len(bases)
    ranks = np.array([b.shape[1] for b in bases])
    if ranks.max() == 1 and (dim == 2 or n + math.comb(n, 2) > budget):
        # A line contains no other group, so depth one needs no containment
        # test; in the plane it is the whole search.
        mass = zero_mass + masses
        thr, critical = _critical(f, 1, dim, mass)
        for g in np.flatnonzero(critical):
            witnesses.append(ExistenceWitness(bases[g], float(mass[g]), thr))
        return dim == 2 and n <= budget

    inside = _containment(bases)
    padded = np.zeros((n, dim, ranks.max()))
    for g, b in enumerate(bases):
        padded[g, :, : b.shape[1]] = b

    # The search starts from the zero subspace, whose unions are the groups.
    queue, visited, charged = deque([np.zeros((dim, 0))]), set(), 0
    while queue:
        u = queue.popleft()
        if charged > budget:  # reached only once depth one is swept whole
            return False
        if u.shape[1] == dim - 1:  # every union with it is the whole space
            continue
        # Orthonormal bases of span(U) + span(B) for the padded basis B of
        # each group not inside U: left singular vectors and union ranks.
        blocks = padded[~inside(u)]
        stacked = np.concatenate([np.broadcast_to(u, (len(blocks),) + u.shape), blocks], axis=2)
        w, sv, _ = np.linalg.svd(stacked, full_matrices=False)
        rank = np.sum(sv > 1e-10 * sv[:, :1], axis=1)
        for v in (w[i, :, :r] for i, r in enumerate(rank) if r < dim):
            mask = inside(v)
            key = np.packbits(mask).tobytes()
            if key in visited:
                continue
            visited.add(key)
            charged += 1
            if charged > budget and u.shape[1]:  # past depth one
                return False
            mass = zero_mass + float(masses[mask].sum())
            thr, critical = _critical(f, v.shape[1], dim, mass)
            if critical:
                witnesses.append(ExistenceWitness(v, mass, thr))
            queue.append(v)
    return True


def unpadded(bases, ranks):
    """The list of group bases of the stack of ``_atom_groups``, without its zero columns."""
    return [b[:, :r] for b, r in zip(bases, ranks)]


def unpadded_enumerate(bases, ranks, *args):
    """The unscreened ``_enumerate`` above, called as the search is."""
    return _enumerate(unpadded(bases, ranks), *args)


def significant(x, digits):
    """``x`` rounded to ``digits`` significant decimal digits."""
    return np.array([[float(f"{v:.{digits - 1}e}") for v in row] for row in x])


@st.composite
def search_problems(draw):
    """Observations, the augmented location problem or order-2 and order-3
    atoms, from rows of which half or more may lie in a subspace, with duplicates,
    optionally rounded near that subspace; optionally as a dense stack; a
    loss and a budget."""
    kind = draw(st.sampled_from(["observations", "augmented", "k2", "k3"]))
    q = draw(st.integers(2, 3 if kind == "augmented" else 4))
    n = draw(st.integers(3, {"observations": 12, "augmented": 10, "k2": 8, "k3": 7}[kind]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal((n, q))
    if draw(st.booleans()):
        inside, d = draw(st.integers(n // 2, n)), draw(st.integers(1, q - 1))
        x[:inside] = rng.standard_normal((inside, d)) @ rng.standard_normal((d, q))
    dup = draw(st.integers(0, n // 3))
    x[n - dup:] = x[:dup]
    digits = draw(st.sampled_from([None, 6, 8, 10]))
    if digits:
        x = significant(x, digits)
    if kind == "augmented":
        prob = augment(x, draw(st.sampled_from([1.0, 3.0])))
        dist, f = prob.q_aug, prob.augmented_rho
    else:
        dist = from_observations(x) if kind == "observations" else build_kstat(x, int(kind[1]))
        f = LOSSES[draw(st.sampled_from(sorted(LOSSES)))](q)
    if draw(st.booleans()):
        dist = MatrixDistribution(dist.atoms, dist.weights)
    return dist, f, draw(st.sampled_from([5, 20, 50, 1000]))


def assert_same_witnesses(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.basis.shape == b.basis.shape
        assert a.mass == b.mass and a.threshold == b.threshold
        assert np.max(np.abs(a.basis @ a.basis.T - b.basis @ b.basis.T), initial=0.0) <= 1e-12


@settings(max_examples=300, deadline=None, derandomize=True)
@given(problem=search_problems())
def test_search_matches_the_unscreened_search(problem):
    q, f, budget = problem
    with mock.patch.object(distribution, "_enumerate", unpadded_enumerate):
        want = check_existence(q, f, budget)
    got = check_existence(q, f, budget)
    event(f"{want.verdict} by {want.method}")
    assert (got.verdict, got.method) == (want.verdict, want.method)
    assert_same_witnesses(got.witnesses, want.witnesses)

    # The search itself, also where check_existence would not start it, and
    # with one node per run and one basis per containment product.
    l, _, qf = _frame(q)
    bases, ranks, masses = _atom_groups(qf) if l is not None else ([], [], None)
    if len(bases):
        args, want = (bases, ranks, masses, _zero_mass(q), f, q.dim, budget), []
        done = unpadded_enumerate(*args, want)
        for small in (False, True):
            got = []
            with mock.patch.object(distribution, "_BLOCK_ENTRIES", 1 if small else distribution._BLOCK_ENTRIES), \
                    mock.patch.object(symmat, "_BLOCK_ENTRIES", 1 if small else symmat._BLOCK_ENTRIES):
                assert distribution._enumerate(*args, got) == done
            assert_same_witnesses(got, want)


def test_order3_search_decomposes_only_proper_unions(monkeypatch):
    # The 120 planes of all triples of 10 rows in R^4, as in the benchmark.
    # Two planes span R^4 unless their triples share two rows: of the
    # 120 x 119 unions of depth one the screen proves all others full, and
    # the mirror skip halves the 2,520 that share two rows.  The search
    # decomposes the 120 groups and those 1,260 unions (it took 14,400).
    svd, count, searching = np.linalg.svd, [0], [False]

    def counted_svd(a, *args, **kwargs):
        if searching[0]:
            count[0] += int(np.prod(np.shape(a)[:-2]))
        return svd(a, *args, **kwargs)

    def counted_search(*args):
        searching[0] = True
        try:
            return search(*args)
        finally:
            searching[0] = False

    search = distribution._enumerate
    monkeypatch.setattr(distribution.np.linalg, "svd", counted_svd)
    monkeypatch.setattr(distribution, "_enumerate", counted_search)
    x = np.random.default_rng(0).standard_normal((10, 4))
    rep = check_existence(build_kstat(x, 3), tyler(4))
    assert (rep.verdict, rep.method) == ("satisfied", "exact_enumeration")
    assert count[0] <= 1_400
