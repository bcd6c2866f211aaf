"""Convex obstacles, ellipsoid collision checks and buffer sizing.

An obstacle is the bounded convex region ``{z : A z <= b}`` with rows of
``A`` normalized to unit Euclidean norm, so adding a scalar ``d`` to every
entry of ``b`` moves every face outward by the metric distance ``d``.

Whether a confidence ellipsoid ``(z - r)^T Sigma^-1 (z - r) <= c^2``
intersects the region is decided by the small quadratic program

    c*^2 = min_z (z - r)^T Sigma^-1 (z - r)   s.t.  A z <= b;

the ellipsoid misses the region exactly when ``c*^2 >= c^2``.  In 3D the
minimizer is either ``r`` itself (``c*^2 = 0``) or the Sigma-metric
projection of ``r`` onto the affine hull of a linearly independent set
``S`` of one to three faces: with ``h = b - A r``,

    lam_S = (A_S Sigma A_S^T)^-1 h_S,   z_S = r + Sigma A_S^T lam_S,
    c*^2_S = h_S^T lam_S.

The sets depend on ``A`` alone and are listed once per obstacle.  The QP
is solved exactly by evaluating every set for a batch of tube samples at
once and keeping the smallest ``c*^2_S`` whose ``z_S`` is feasible.  A
cheap bounding-sphere test prunes clearly separated samples first, and
the rest are visited in order of a separating-face lower bound until it
exceeds the best value found.

``buffer_touch_distance`` inverts the test: it finds the smallest uniform
face offset ``d'`` at which some tube sample attains ``c*^2 = c^2``
against ``{A z <= b + d'}``.  For a fixed set, ``c*^2_S(d)`` is a
quadratic in ``d`` and the feasibility of ``z_S(d)`` an interval of
``d``, so ``d'`` is a minimum of closed-form roots over samples and sets.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InfeasibleRegionError, ScenarioError
from .uncertainty import ConfidenceEllipsoid, Tube

__all__ = [
    "CuboidObstacle",
    "ClearanceReport",
    "solve_qp",
    "sphere_prefilter",
    "check_tube_collision",
    "buffer_touch_distance",
    "overall_verdict",
]

_FEAS_TOL = 1e-9
_CHUNK_BYTES = 2_000_000      # largest (samples x sets x faces) temporary


# --------------------------------------------------------------------------
# polytope helpers


def _combinations(m, k):
    """All k-subsets of range(m) in lexicographic order, as an (n, k) array."""
    return np.array(list(itertools.combinations(range(m), k)),
                    dtype=np.intp).reshape(-1, k)


def _independent_triples(A):
    """Row triples of A that span R^3, in lexicographic order."""
    T = _combinations(A.shape[0], 3)
    return T[np.abs(np.linalg.det(A[T])) >= 1e-12]


def _basic_points(A, b, triples):
    """Feasible points of {A z <= b} where the faces of a triple meet."""
    V = np.linalg.solve(A[triples], b[triples][..., None])[..., 0]
    return V[np.all(V @ A.T <= b + _FEAS_TOL, axis=1)]


def _enumerate_vertices(A, b, triples):
    """Distinct vertices of {A z <= b}, first occurrence kept."""
    V = _basic_points(A, b, triples)
    close = np.linalg.norm(V[:, None] - V[None], axis=2) <= 1e-9
    return V[~np.tril(close, -1).any(axis=1)]


def _face_sets(A, triples):
    """The linearly independent face sets of size 1, 2 and 3."""
    P = _combinations(A.shape[0], 2)
    P = P[np.linalg.norm(np.cross(A[P[:, 0]], A[P[:, 1]]), axis=1) >= 1e-12]
    return np.arange(A.shape[0])[:, None], P, triples


@dataclass
class CuboidObstacle:
    """Bounded convex region {z : A z <= b}, the true obstacle.

    Rows of ``A`` are unit-normalized at construction, so ``{A z <= b + d}``
    is the region inflated by the metric distance ``d``.  The planner's
    buffers, sized by ``buffer_touch_distance``, are such inflations; the
    planner keeps them itself and never changes an obstacle, whose ``A``,
    ``b``, ``vertices`` and ``centroid`` are read-only copies.
    """

    A: np.ndarray
    b: np.ndarray
    id: str = "obstacle"
    vertices: np.ndarray = field(init=False, repr=False)
    centroid: np.ndarray = field(init=False, repr=False)
    circumradius: float = field(init=False, repr=False)
    face_sets: tuple = field(init=False, repr=False)

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        b = np.asarray(self.b, dtype=float).reshape(-1)
        if A.ndim != 2 or A.shape[1] != 3 or A.shape[0] != b.shape[0]:
            raise ScenarioError(
                f"obstacle {self.id!r}: A must be (m, 3) with matching b")
        if A.shape[0] < 4:
            raise ScenarioError(
                f"obstacle {self.id!r}: at least 4 half-spaces are needed "
                "to bound a 3D region")
        norms = np.linalg.norm(A, axis=1)
        if np.any(norms < 1e-12):
            raise ScenarioError(f"obstacle {self.id!r}: zero row in A")
        self.A = A / norms[:, None]
        self.b = b / norms

        # The region is bounded iff {A d <= 0, |d_i| <= 1} has no vertex
        # but d = 0; its row triples include those of A alone.
        m = A.shape[0]
        cone = np.vstack([self.A, np.eye(3), -np.eye(3)])
        triples = _independent_triples(cone)
        far = _basic_points(cone, np.r_[np.zeros(m), np.ones(6)], triples)
        far = far[np.linalg.norm(far, axis=1) > 0.5]
        if far.shape[0]:
            d = far[0] / np.linalg.norm(far[0])
            raise ScenarioError(
                f"obstacle {self.id!r}: region is unbounded "
                f"(recession direction {np.round(d, 6).tolist()})")
        triples = triples[triples[:, 2] < m]
        verts = _enumerate_vertices(self.A, self.b, triples)
        if verts.shape[0] == 0:
            raise ScenarioError(f"obstacle {self.id!r}: region is empty")
        self.vertices = verts
        self.centroid = verts.mean(axis=0)
        for own in (self.A, self.b, self.vertices, self.centroid):
            own.setflags(write=False)
        self.circumradius = float(
            np.max(np.linalg.norm(verts - self.centroid, axis=1)))
        self.face_sets = _face_sets(self.A, triples)

    @classmethod
    def from_box(cls, center, half_extents, yaw=0.0, id="obstacle"):
        """Axis-aligned box rotated by ``yaw`` about the vertical axis."""
        center = np.asarray(center, dtype=float).reshape(3)
        h = np.asarray(half_extents, dtype=float).reshape(3)
        if np.any(h <= 0.0):
            raise ScenarioError(f"obstacle {id!r}: half extents must be > 0")
        cy, sy = math.cos(yaw), math.sin(yaw)
        R = np.array([[cy, -sy, 0.0], [sy, cy, 0.0], [0.0, 0.0, 1.0]])
        rows = []
        rhs = []
        for i in range(3):
            axis = R[:, i]
            rows.extend([axis, -axis])
            rhs.extend([axis @ center + h[i], -(axis @ center) + h[i]])
        return cls(A=np.array(rows), b=np.array(rhs), id=id)

    def contains(self, z):
        z = np.asarray(z, dtype=float)
        return bool(np.all(self.A @ z <= self.b + _FEAS_TOL))


@dataclass
class ClearanceReport:
    """Worst-case clearance of one obstacle against a tube."""

    obstacle_id: str
    min_cstar2: float
    argmin_t: float | None
    z_star: np.ndarray | None
    c2: float
    verdict: str = field(init=False)

    def __post_init__(self):
        self.verdict = "collide" if self.min_cstar2 < self.c2 else "clear"


def overall_verdict(reports):
    """'collide' if any per-obstacle report collides, else 'clear'."""
    return "collide" if any(r.verdict == "collide" for r in reports) else "clear"


# --------------------------------------------------------------------------
# the batched face-set kernel


def _regularized(sigmas):
    """``sigmas`` (n, 3, 3), each one whose Cholesky factor fails plus
    max(1e-12 tr, 1e-30) I; the batch is split only when it fails."""
    try:
        np.linalg.cholesky(sigmas)
        return sigmas
    except np.linalg.LinAlgError:
        if len(sigmas) > 1:
            half = len(sigmas) // 2
            return np.concatenate([_regularized(sigmas[:half]),
                                   _regularized(sigmas[half:])])
        eps = max(1e-12 * float(np.trace(sigmas[0])), 1e-30)
        reg = sigmas + eps * np.eye(3)
        np.linalg.cholesky(reg)
        return reg


def _chunk_size(A, face_sets):
    """Samples per kernel call, so that no (samples x sets x faces)
    temporary exceeds _CHUNK_BYTES."""
    per_sample = 8 * A.shape[0] * sum(len(S) for S in face_sets)
    return max(1, _CHUNK_BYTES // per_sample)


def _best_first(bound, chunk):
    """Sample indices in increasing ``bound`` order, in chunks that start
    small and double up to ``chunk``."""
    order = np.argsort(bound, kind="stable")
    start, size = 0, 8
    while start < order.size:
        yield order[start:start + size]
        start, size = start + size, min(2 * size, chunk)


def _face_spread(A, sigmas):
    """sqrt(a_i^T Sigma a_i) for every sample and face, (N, m)."""
    return np.sqrt(np.sum((sigmas @ A.T) * A.T, axis=1))


def _sym_inverse(M):
    """Inverses of a stack of symmetric k x k matrices, k <= 3 (cofactors)."""
    k = M.shape[-1]
    if k == 1:
        return 1.0 / M
    if k == 2:
        a, b, d = M[..., 0, 0], M[..., 0, 1], M[..., 1, 1]
        adj = np.stack([d, -b, -b, a], axis=-1)
        det = a * d - b * b
    else:
        a, b, c = M[..., 0, 0], M[..., 0, 1], M[..., 0, 2]
        d, e, f = M[..., 1, 1], M[..., 1, 2], M[..., 2, 2]
        c00, c01, c02 = d * f - e * e, c * e - b * f, b * e - c * d
        c11, c12, c22 = a * f - c * c, b * c - a * e, a * d - b * b
        adj = np.stack([c00, c01, c02, c01, c11, c12, c02, c12, c22], axis=-1)
        det = a * c00 + b * c01 + c * c02
    return (adj / det[..., None]).reshape(M.shape)


def _projections(A, h, sigmas, face_sets):
    """Per group of face sets S (all of one size k), for every sample:
    ``(S, h_S, (A_S Sigma A_S^T)^-1, Sigma A_S^T)``, shaped (n, k),
    (N, n, k), (N, n, k, k) and (N, 3, n, k)."""
    SA = sigmas @ A.T
    M = A @ SA
    for S in face_sets:
        yield (S, h[:, S], _sym_inverse(M[:, S[:, :, None], S[:, None, :]]),
               SA[:, :, S])


def _step(Minv, SAS, g):
    """Multipliers ``lam = Minv g`` (N, n, k) and the steps
    ``Sigma A_S^T lam`` (N, 3, n)."""
    lam = np.einsum("xnij,xnj->xni", Minv, g)
    return lam, np.einsum("xink,xnk->xin", SAS, lam)


def _clearance(A, h, face_sets, sigmas):
    """Exact c*^2 and step z* - r of every sample, given h = b - A r.

    ``c*^2`` is inf for a sample with no feasible projection, which for
    a nonempty region does not happen.
    """
    n = h.shape[0]
    rows = np.arange(n)
    best = np.full(n, np.inf)
    step = np.zeros((n, 3))
    with np.errstate(divide="ignore", invalid="ignore"):
        for _, hS, Minv, SAS in _projections(A, h, sigmas, face_sets):
            lam, dz = _step(Minv, SAS, hS)
            c2 = np.einsum("xnk,xnk->xn", hS, lam)
            slack = np.max(A @ dz - h[:, :, None], axis=1)
            c2 = np.where(slack <= _FEAS_TOL, c2, np.inf)
            j = np.argmin(c2, axis=1)
            better = c2[rows, j] < best
            best[better] = c2[rows, j][better]
            step[better] = dz[rows, :, j][better]
    inside = np.all(h >= -_FEAS_TOL, axis=1)
    best[inside] = 0.0
    step[inside] = 0.0
    return best, step


def _touch(A, h, face_sets, sigmas, c2):
    """Per sample, the smallest d with c*^2 <= c2 against {A z <= b + d}.

    Inflating by d turns h = b - A r into h + d, so for a face set S the
    multipliers are lam + d mu (mu = (A_S Sigma A_S^T)^-1 1), the
    objective is q0 + 2 q1 d + q2 d^2, and the slacks of the other faces
    at z_S(d) are alpha + d beta.  The centre itself is inside from
    d = max(-h) on.
    """
    best = np.max(-h, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        for S, hS, Minv, SAS in _projections(A, h, sigmas, face_sets):
            lam, dz = _step(Minv, SAS, hS)
            mu, dmu = _step(Minv, SAS, np.ones_like(hS))
            q0 = np.einsum("xnk,xnk->xn", hS, lam)
            q1, q2 = lam.sum(axis=2), mu.sum(axis=2)
            own = np.zeros((A.shape[0], len(S)), dtype=bool)
            own[S, np.arange(len(S))[:, None]] = True
            alpha = np.where(own, 0.0, A @ dz - h[:, :, None])
            beta = np.where(own, 0.0, A @ dmu - 1.0)
            # beta = +0 gives a bound of +inf (no limit) or -inf (never)
            bound = (_FEAS_TOL - alpha) / beta
            lo = np.max(np.where(beta < 0.0, bound, -np.inf), axis=1)
            hi = np.min(np.where(beta >= 0.0, bound, np.inf), axis=1)
            root = np.sqrt(q1 * q1 - q2 * (q0 - c2))
            left = np.maximum((-q1 - root) / q2, lo)
            ok = left <= np.minimum((-q1 + root) / q2, hi)
            best = np.minimum(best, np.min(np.where(ok, left, np.inf), axis=1))
    return best


def solve_qp(sigma, center, A_O, b_O):
    """Closest point of {A_O z <= b_O} to ``center`` in the Sigma metric.

    Returns ``(z_star, cstar2)`` where ``cstar2`` is the squared
    Mahalanobis distance; ``cstar2 = 0`` exactly when the center is
    feasible.  Raises InfeasibleRegionError for an empty region.
    """
    A = np.asarray(A_O, dtype=float)
    center = np.asarray(center, dtype=float).reshape(3)
    h = np.asarray(b_O, dtype=float).reshape(1, -1) - A @ center
    sigmas = _regularized(np.asarray(sigma, dtype=float).reshape(1, 3, 3))
    cstar2, step = _clearance(A, h, _face_sets(A, _independent_triples(A)),
                              sigmas)
    if cstar2[0] == np.inf:
        raise InfeasibleRegionError("constraint region is empty")
    return center + step[0], float(cstar2[0])


def _prefilter_mask(centers, lam_max, c2, obs):
    reach = math.sqrt(c2) * np.sqrt(lam_max)
    sep = np.linalg.norm(centers - obs.centroid, axis=1)
    return sep <= reach + obs.circumradius + _FEAS_TOL


def sphere_prefilter(ell: ConfidenceEllipsoid, obs: CuboidObstacle) -> bool:
    """Necessary condition for ellipsoid-obstacle intersection.

    Compares the ellipsoid's bounding sphere (radius c * sqrt(lambda_max))
    with the obstacle's circumscribed sphere.  Returns False only when
    intersection is impossible.
    """
    lam_max = max(float(np.linalg.eigvalsh(ell.sigma)[-1]), 0.0)
    return bool(_prefilter_mask(np.reshape(ell.center, (1, 3)), lam_max,
                                ell.c2, obs)[0])


def check_tube_collision(tube: Tube, obstacles):
    """Minimum c*^2 of every obstacle over every tube section.

    The QP runs against each obstacle as given on the sections
    the sphere prefilter cannot rule out, in order of the lower bound
    max_i(a_i^T r - b_i)_+^2 / (a_i^T Sigma a_i), until that bound
    exceeds the incumbent; obstacles the prefilter always rejects report
    ``min_cstar2 = inf``.  The first section attaining the minimum is
    reported.  Returns one ClearanceReport per obstacle, in input order.
    """
    lam_max = np.maximum(np.linalg.eigvalsh(tube.sigmas)[:, -1], 0.0)
    reports = []
    for obs in obstacles:
        best, best_t, best_z = math.inf, None, None
        keep = np.flatnonzero(
            _prefilter_mask(tube.centers, lam_max, tube.c2, obs))
        if keep.size:
            sigmas = _regularized(tube.sigmas[keep])
            h = obs.b - tube.centers[keep] @ obs.A.T
            bound = np.max(np.maximum(-h, 0.0)
                           / _face_spread(obs.A, sigmas), axis=1) ** 2
            seen, values, steps = [], [], []
            for k in _best_first(bound, _chunk_size(obs.A, obs.face_sets)):
                if bound[k[0]] > best:
                    break
                cstar2, step = _clearance(obs.A, h[k], obs.face_sets,
                                          sigmas[k])
                best = min(best, float(cstar2.min()))
                seen.append(k)
                values.append(cstar2)
                steps.append(step)
            seen, values = np.concatenate(seen), np.concatenate(values)
            j = np.lexsort((seen, values))[0]
            k = keep[seen[j]]
            best_t = float(tube.times[k])
            if best == math.inf:
                raise InfeasibleRegionError(
                    f"obstacle {obs.id!r} at t={best_t:.6g}: "
                    "no feasible point")
            best_z = tube.centers[k] + np.concatenate(steps)[j]
        reports.append(ClearanceReport(
            obstacle_id=obs.id, min_cstar2=best, argmin_t=best_t,
            z_star=best_z, c2=tube.c2))
    return reports


def buffer_touch_distance(tube: Tube, obs: CuboidObstacle, c2) -> float:
    """Smallest uniform face offset d' at which the tube touches level c^2.

    d' is the least d for which some tube section has c*^2 <= c2 against
    the inflated region {A z <= b + d}; positive d' means the tube clears
    the true obstacle with that much metric room to spare, negative d'
    means the obstacle would have to shrink by |d'| to escape the tube.
    Exact over the whole tube: sections are visited in order of the lower
    bound max_i(a_i^T r - b_i - c sqrt(a_i^T Sigma a_i)) of their own d'
    until that bound reaches the incumbent.
    """
    if len(tube) == 0:
        raise ValueError("tube is empty")
    c2 = float(c2)
    sigmas = _regularized(tube.sigmas)
    h = obs.b - tube.centers @ obs.A.T
    bound = np.max(-h - math.sqrt(c2) * _face_spread(obs.A, sigmas), axis=1)
    best = math.inf
    for k in _best_first(bound, _chunk_size(obs.A, obs.face_sets)):
        if bound[k[0]] >= best:
            break
        best = min(best, float(np.min(
            _touch(obs.A, h[k], obs.face_sets, sigmas[k], c2))))
    return best
