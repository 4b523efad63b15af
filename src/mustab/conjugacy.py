"""Constructing semiconjugacies from shadowing plus expansivity.

Given f expansive below e and g uniformly close to f, every g-orbit is a
pseudo-orbit for f; shadowing hands each one a unique true f-orbit, and
sending g-iterates to the matching f-iterates defines a map h with
f(h(y)) = h(g(y)) that moves nothing far.  On a finite space each step of
that classical argument is a finite computation, and the result is checked
again from scratch by :func:`verify_semiconjugacy`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import EndoMap, FiniteMetricSpace, Measure, c0_distance
from .errors import (
    MalformedLasso,
    MismatchedSpace,
    PreconditionViolated,
    ShadowMissing,
    SoundnessError,
)
from .expansivity import default_expansivity_constant, expansivity_threshold
from .shadowing import MODE_WEAK, shadowable_start_set, shadowing_delta


@dataclass(frozen=True)
class Lasso:
    """An eventually periodic point sequence: finite tail, repeating cycle."""

    tail: tuple[int, ...]
    cycle: tuple[int, ...]

    def at(self, k: int) -> int:
        t = len(self.tail)
        if k < t:
            return self.tail[k]
        return self.cycle[(k - t) % len(self.cycle)]

    @property
    def period_start(self) -> int:
        return len(self.tail)


def validate_lasso(lasso: Lasso, space: FiniteMetricSpace) -> None:
    if not lasso.cycle:
        raise MalformedLasso("cycle must be non-empty")
    n = space.n
    for v in lasso.tail + lasso.cycle:
        if not isinstance(v, int) or not 0 <= v < n:
            raise MalformedLasso(f"{v!r} is not a point index")


def orbit_lasso(g: EndoMap, start: int) -> Lasso:
    """The orbit of ``start`` under g in tail + cycle form."""
    seen: dict[int, int] = {}
    orbit: list[int] = []
    x = start
    while x not in seen:
        seen[x] = len(orbit)
        orbit.append(x)
        x = g.table[x]
    t = seen[x]
    return Lasso(tuple(orbit[:t]), tuple(orbit[t:]))


def orbit_closure(g: EndoMap, points) -> frozenset[int]:
    """Smallest forward-invariant set containing ``points``.

    On a finite space the closure of a union of orbits is the union itself.
    """
    out: set[int] = set()
    stack = list(points)
    while stack:
        x = stack.pop()
        if x in out:
            continue
        out.add(x)
        stack.append(g.table[x])
    return frozenset(out)


def shadow_point(f: EndoMap, lasso: Lasso, eps: Fraction) -> int | None:
    """Least-index point whose whole f-orbit tracks the lasso within eps.

    The check per candidate is exact: the pair (current f-iterate, position
    inside the lasso) lives in a finite state space, so the scan stops as
    soon as that pair repeats.
    """
    space = f.space
    validate_lasso(lasso, space)
    n = space.n
    ranks = space.distance_ranks
    r = space.radius_rank(eps)
    table = f.table
    t = len(lasso.tail)
    c = len(lasso.cycle)
    seq = lasso.tail + lasso.cycle
    for cand in range(n):
        cur = cand
        pos = 0
        ok = True
        seen: set[tuple[int, int]] = set()
        while (cur, pos) not in seen:
            seen.add((cur, pos))
            if ranks[cur][seq[pos]] > r:
                ok = False
                break
            cur = table[cur]
            pos = pos + 1 if pos + 1 < t + c else t
        if ok:
            return cand
    return None


@dataclass(frozen=True)
class PartialMap:
    """A map defined on a subset of the space, stored as sorted pairs."""

    space: FiniteMetricSpace
    entries: tuple[tuple[int, int], ...]

    @property
    def domain(self) -> frozenset[int]:
        return frozenset(y for y, _ in self.entries)

    def as_dict(self) -> dict[int, int]:
        return dict(self.entries)

    @classmethod
    def from_dict(cls, space: FiniteMetricSpace, mapping: dict[int, int]) -> "PartialMap":
        return cls(space, tuple(sorted(mapping.items())))


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    witness: tuple | None = None


@dataclass(frozen=True)
class SemiconjugacyCertificate:
    """A claimed semiconjugacy h on an invariant set Y, with its evidence.

    ``epsilon`` is the closeness bound the checks certify; the builder emits
    the tightened bound eps' rather than the looser request.
    """

    f: EndoMap
    g: EndoMap
    domain: frozenset[int]
    h: PartialMap
    epsilon: Fraction
    checks: tuple[CheckResult, ...]
    eps_requested: Fraction | None = None
    expansivity_e: Fraction | None = None
    delta: Fraction | None = None
    mass_defect: Fraction | None = None

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


@dataclass(frozen=True)
class VerificationResult:
    passed: bool
    checks: tuple[CheckResult, ...]


def verify_semiconjugacy(cert: SemiconjugacyCertificate) -> VerificationResult:
    """Re-check a certificate from scratch by direct scan.

    Confirms g-invariance of the domain, closeness of h to the inclusion at
    the certificate's epsilon, and the intertwining relation f(h(y)) = h(g(y)).
    Each failed check carries its first witness.
    """
    f, g = cert.f, cert.g
    if f.space != g.space:
        raise MismatchedSpace("certificate maps live over different spaces")
    dist = f.space.dist
    h = cert.h.as_dict()
    dom = sorted(cert.domain)
    if set(h) != set(dom):
        return VerificationResult(
            False, (CheckResult("domain", False, (tuple(sorted(set(h) ^ set(dom)))[0] if set(h) ^ set(dom) else None,)),)
        )

    inv_witness = next((y for y in dom if g.table[y] not in cert.domain), None)
    invariant = CheckResult("invariant_domain", inv_witness is None,
                            None if inv_witness is None else (inv_witness, g.table[inv_witness]))

    close_witness = next((y for y in dom if dist[h[y]][y] > cert.epsilon), None)
    close = CheckResult("c0_close", close_witness is None,
                        None if close_witness is None else (close_witness, h[close_witness]))

    if inv_witness is None:
        comm_witness = next((y for y in dom if f.table[h[y]] != h[g.table[y]]), None)
    else:
        comm_witness = next(
            (y for y in dom if g.table[y] in h and f.table[h[y]] != h[g.table[y]]), None
        )
    commutes = CheckResult("intertwines", comm_witness is None,
                           None if comm_witness is None else (comm_witness,))

    checks = (invariant, close, commutes)
    return VerificationResult(all(c.passed for c in checks), checks)


def build_semiconjugacy(
    f: EndoMap,
    g: EndoMap,
    mu: Measure,
    eps: Fraction,
    e: Fraction | None = None,
) -> SemiconjugacyCertificate:
    """Construct a semiconjugacy certificate for g against f.

    Uses eps' = min(e, eps)/8, takes delta from weak-mode shadowing of mu at
    eps', and requires c0_distance(f, g) <= delta.  The start set B of that
    shadowing already satisfies mu(B) >= 1 - eps'; the domain is the forward
    g-closure of B, and h maps g-iterates of each b in B to f-iterates of
    b's unique shadowing point.  Uniqueness (hence well-definedness) comes
    from expansivity: two candidate images stay within 2*eps' < e of each
    other along all of their orbits, so they coincide.  Any clash is an
    internal soundness bug and raises, never a silently wrong certificate.
    """
    if f.space != g.space or f.space != mu.space:
        raise MismatchedSpace("f, g and mu must share one space")
    if eps <= 0:
        raise PreconditionViolated("eps", "must be > 0")
    s_star = expansivity_threshold(f)
    if e is None:
        e = default_expansivity_constant(f)
    if not 0 < e < s_star:
        raise PreconditionViolated("expansivity", f"need 0 < e < {s_star}")

    eps_prime = min(e, eps) / 8
    delta = shadowing_delta(f, eps_prime, MODE_WEAK, mu)
    gap = c0_distance(f, g)
    if gap > delta:
        raise PreconditionViolated("c0_distance", f"{gap} > certified delta {delta}")

    start_set = shadowable_start_set(f, eps_prime, delta)
    domain = orbit_closure(g, start_set)
    dist = f.space.dist

    h: dict[int, int] = {}
    for b in sorted(start_set):
        lasso = orbit_lasso(g, b)
        y = shadow_point(f, lasso, eps_prime)
        if y is None:
            raise ShadowMissing(b)
        seq = lasso.tail + lasso.cycle
        val = y
        for x in seq:
            if x in h:
                if h[x] != val:
                    raise SoundnessError(
                        f"h({x}) assigned both {h[x]} and {val}; expansivity bound broken"
                    )
            else:
                h[x] = val
            val = f.table[val]
        # closing the cycle: position t+c repeats seq[t], with value f^(t+c)(y)
        if h[lasso.cycle[0]] != val:
            raise SoundnessError(
                "cycle closure failed: f^(t+c)(y) != f^t(y); expansivity bound broken"
            )

    missing = domain - set(h)
    if missing:
        # every domain point is a g-iterate of some start point, so this
        # cannot happen unless orbit bookkeeping is broken
        raise SoundnessError(f"h undefined on {sorted(missing)}")

    mass_defect = 1 - mu.mass(start_set)
    checks = (
        CheckResult("invariant_domain", all(g.table[y] in domain for y in domain)),
        CheckResult("c0_close", all(dist[h[y]][y] <= eps_prime for y in domain)),
        CheckResult("intertwines", all(f.table[h[y]] == h[g.table[y]] for y in domain)),
        CheckResult("mass_defect", mass_defect <= eps_prime),
    )
    cert = SemiconjugacyCertificate(
        f=f,
        g=g,
        domain=domain,
        h=PartialMap.from_dict(f.space, {y: h[y] for y in domain}),
        epsilon=eps_prime,
        checks=checks,
        eps_requested=eps,
        expansivity_e=e,
        delta=delta,
        mass_defect=mass_defect,
    )
    if not cert.passed:
        failed = [c.name for c in checks if not c.passed]
        raise SoundnessError(f"constructed certificate fails its own checks: {failed}")
    return cert
