"""Decision predicates, certificates, and the dichotomy verdict.

Every predicate here is exhaustive and exact at desk scale; certificates
carry enough data to be re-checked independently of the code that produced
them (each certificate type has a ``verify`` method used by the tests).
"""

from __future__ import annotations

import math
from typing import Iterator, NamedTuple, Sequence

from . import f2
from .errors import (
    CapExceeded,
    EmptySet,
    FieldMismatch,
    ModeViolation,
    NotEO,
    ZeroSignature,
)
from .f2 import AffineSpace, f2_affine_span
from .signatures import Signature, dual
from .values import ExactValue, I, ONE, ZERO, render_value

PAIRING_ARITY_CAP = 12

Pairing = tuple[tuple[int, int], ...]


def _require_eo(f: Signature) -> None:
    if not f.is_eo():
        raise NotEO("signature has unbalanced support strings")


def _require_nonzero(f: Signature) -> None:
    if f.is_zero():
        raise ZeroSignature("operation needs a nontrivial signature")


def _sig_label(f: Signature, idx: int) -> str:
    return f.name or f"f{idx}"


# ---------------------------------------------------------------------------
# triple classification
# ---------------------------------------------------------------------------


class TripleWitness(NamedTuple):
    alpha: int
    beta: int
    gamma: int
    delta: int

    def strings(self, arity: int) -> dict[str, str]:
        return {k: f2.mask_to_string(v, arity)
                for k, v in (("alpha", self.alpha), ("beta", self.beta),
                             ("gamma", self.gamma), ("delta", self.delta))}


class TripleClass(NamedTuple):
    """Where triple-xors of support strings can land.

    gap: some xor is balanced but unsupported; heavy / light: some xor has
    strictly more ones / more zeros.  A signature with no gap and no light
    triple is "all-up"; no gap and no heavy triple is "all-down".
    """

    arity: int
    gap: TripleWitness | None
    heavy: TripleWitness | None
    light: TripleWitness | None

    @property
    def all_up(self) -> bool:
        return self.gap is None and self.light is None

    @property
    def all_down(self) -> bool:
        return self.gap is None and self.heavy is None

    def to_json(self) -> dict:
        out: dict = {"all_up": self.all_up, "all_down": self.all_down}
        for key, wit in (("gap", self.gap), ("heavy", self.heavy), ("light", self.light)):
            out[key] = wit.strings(self.arity) if wit else None
        return out


def triple_class(f: Signature) -> TripleClass:
    """Exhaustive scan of all (alpha, beta, gamma) support triples (repeats allowed)."""
    _require_eo(f)
    _require_nonzero(f)
    supp = f.support()
    supp_set = set(supp)
    n = f.arity
    gap = heavy = light = None
    # xors of pairs, deduplicated, with one witness pair each
    pair_xor: dict[int, tuple[int, int]] = {}
    for a in supp:
        for b in supp:
            pair_xor.setdefault(a ^ b, (a, b))
    for x, (a, b) in pair_xor.items():
        if gap and heavy and light:
            break
        for c in supp:
            d = x ^ c
            excess = 2 * d.bit_count() - n
            if excess > 0:
                if heavy is None:
                    heavy = TripleWitness(a, b, c, d)
            elif excess < 0:
                if light is None:
                    light = TripleWitness(a, b, c, d)
            elif d not in supp_set:
                if gap is None:
                    gap = TripleWitness(a, b, c, d)
            if gap and heavy and light:
                break
    return TripleClass(n, gap, heavy, light)


# ---------------------------------------------------------------------------
# pairings
# ---------------------------------------------------------------------------


def perfect_pairings(ports: Sequence[int]) -> Iterator[Pairing]:
    """All perfect matchings of the port list, by an iterative DFS: the
    lowest free port leads, and its partners come in increasing order."""
    stack = [((), tuple(sorted(ports)))]
    while stack:
        prefix, free = stack.pop()
        if not free:
            yield prefix
            continue
        lead, rest = free[0], free[1:]
        stack.extend(reversed([(prefix + ((lead, partner),), rest[:k] + rest[k + 1:])
                               for k, partner in enumerate(rest)]))


def pairing_count(arity: int) -> int:
    """(arity-1)!! perfect matchings of an even number of ports."""
    return math.prod(range(arity - 1, 0, -2))


def restrict_to_pairing(f: Signature, pairing: Pairing) -> Signature:
    """Zero out every string where some pair takes equal values."""
    n = f.arity
    return Signature(n, {m: v for m, v in f.entries.items()
                         if all(f2.bit_at(m, i, n) != f2.bit_at(m, j, n) for i, j in pairing)})


# ---------------------------------------------------------------------------
# affine-class membership
# ---------------------------------------------------------------------------


class AffineCertificate(NamedTuple):
    """f == lam * i^(sum lin_i t_i + 2 sum quad_ij t_i t_j) on its affine support."""

    arity: int
    lam: ExactValue
    space: AffineSpace
    lin: tuple[int, ...]
    quad: tuple[tuple[int, int, int], ...]  # (i, j, mu)

    def exponent(self, coords: tuple[int, ...]) -> int:
        e = sum(l * t for l, t in zip(self.lin, coords))
        e += 2 * sum(mu * coords[i] * coords[j] for i, j, mu in self.quad)
        return e % 4

    def verify(self, f: Signature) -> bool:
        return f.arity == self.arity and all(
            f.value(m) == (self.lam * I ** self.exponent(self.space.coordinates(m))
                           if self.space.contains(m) else ZERO)
            for m in range(1 << f.arity))


class Refutation(NamedTuple):
    stage: str
    witness: str

    def to_json(self) -> dict:
        return {"kind": "refutation", "stage": self.stage, "witness": self.witness}


def membership_affine(f: Signature) -> AffineCertificate | Refutation:
    """Certificate that f is an affine-class signature, or the failing stage."""
    _require_nonzero(f)
    supp = f.support()
    n = f.arity
    span = f2_affine_span(supp, n)
    if span.size() != len(supp):
        supp_set = set(supp)
        missing = next(el for el in span.elements() if el not in supp_set)
        return Refutation("support_not_affine", f2.mask_to_string(missing, n))
    base = span.offset
    lam = f.value(base)
    units: dict[ExactValue, int] = {}  # lam * i^e -> e, with no division
    for e in range(4):
        try:
            units[lam * I ** e] = e
        except FieldMismatch:  # i is not in the field of lam: only +-lam
            pass
    exps: dict[int, int] = {}
    for m in supp:
        e = units.get(f.value(m))
        if e is None:
            return Refutation("ratio_not_power_of_i", f2.mask_to_string(m, n))
        exps[m] = e
    d = span.dimension
    lin = [exps[base ^ span.basis[i]] for i in range(d)]
    quad: list[tuple[int, int, int]] = []
    for i in range(d):
        for j in range(i + 1, d):
            s = (exps[base ^ span.basis[i] ^ span.basis[j]] - lin[i] - lin[j]) % 4
            if s % 2:
                return Refutation(
                    "quadratic_parity",
                    f2.mask_to_string(base ^ span.basis[i] ^ span.basis[j], n))
            quad.append((i, j, s // 2))
    cert = AffineCertificate(n, lam, span, tuple(lin), tuple(quad))
    for m in supp:
        if exps[m] != cert.exponent(span.coordinates(m)):
            return Refutation("exponent_mismatch", f2.mask_to_string(m, n))
    return cert


# ---------------------------------------------------------------------------
# product-class membership
# ---------------------------------------------------------------------------


class ProductGroup(NamedTuple):
    ports: tuple[int, ...]        # leader first
    parities: tuple[int, ...]     # relative to the leader, parity 0 for the leader
    w0: ExactValue                # weight when the leader bit is 0
    w1: ExactValue


class ProductCertificate(NamedTuple):
    """f == lam * prod of per-group weights on a pins+parity product support."""

    arity: int
    lam: ExactValue
    pins: tuple[tuple[int, int], ...]
    groups: tuple[ProductGroup, ...]

    def reconstruct(self, m: int) -> ExactValue:
        n = self.arity
        for port, bit in self.pins:
            if f2.bit_at(m, port, n) != bit:
                return ZERO
        acc = self.lam
        for g in self.groups:
            lead = f2.bit_at(m, g.ports[0], n)
            for port, parity in zip(g.ports, g.parities):
                if f2.bit_at(m, port, n) != lead ^ parity:
                    return ZERO
            acc = acc * (g.w1 if lead else g.w0)
        return acc

    def verify(self, f: Signature) -> bool:
        return f.arity == self.arity and \
            all(f.value(m) == self.reconstruct(m) for m in range(1 << f.arity))


def membership_product(f: Signature) -> ProductCertificate | Refutation:
    """Certificate that f factors into unaries and binary (dis)equalities.

    A constant support column (f2.columns) pins its port; free ports with
    equal or complementary columns share a group, led by its first port, and
    a port's parity is whether its column differs from the leader's.
    """
    _require_nonzero(f)
    n = f.arity
    supp = f.support()
    full = (1 << len(supp)) - 1
    pins = []
    groups: list[tuple[list[int], list[int]]] = []  # (ports, parities)
    flips: list[int] = []  # per group, the mask of its ports
    leaders: dict[int, tuple[int, int]] = {}  # column -> (group, parity)
    first = 0  # the string of the pins and of every group's leader at 0
    for p, col in enumerate(f2.columns(supp, n)):
        bit = 1 << (n - 1 - p)
        if col == 0 or col == full:
            pins.append((p, col & 1))
            first |= bit * (col & 1)
            continue
        if col not in leaders:
            leaders[col], leaders[col ^ full] = (len(groups), 0), (len(groups), 1)
            groups.append(([], []))
            flips.append(0)
        gi, parity = leaders[col]
        groups[gi][0].append(p)
        groups[gi][1].append(parity)
        flips[gi] |= bit
        first |= bit * parity
    if len(supp) != 1 << len(groups):
        # every support string is one of the 2^g combinations, so one is missing
        supp_set = set(supp)
        for combo in range(1 << len(groups)):
            m = first
            for gi, flip in enumerate(flips):
                if combo >> gi & 1:
                    m ^= flip
            if m not in supp_set:
                return Refutation("support_not_product", f2.mask_to_string(m, n))
    base = supp[0]
    lam = f.value(base)
    cert_groups = []
    for (ports, parities), flip in zip(groups, flips):
        val_flip = f.value(base ^ flip) / lam
        w0, w1 = (val_flip, ONE) if f2.bit_at(base, ports[0], n) else (ONE, val_flip)
        cert_groups.append(ProductGroup(tuple(ports), tuple(parities), w0, w1))
    cert = ProductCertificate(n, lam, tuple(pins), tuple(cert_groups))
    for m in supp:
        if f.value(m) != cert.reconstruct(m):
            return Refutation("values_not_rank_one", f2.mask_to_string(m, n))
    return cert


def membership(f: Signature, cls: str) -> AffineCertificate | ProductCertificate | Refutation:
    if cls == "affine":
        return membership_affine(f)
    if cls == "product":
        return membership_product(f)
    raise ValueError(f"bad class {cls!r}")


# ---------------------------------------------------------------------------
# per-pairing class membership
# ---------------------------------------------------------------------------


class PairingClassReport(NamedTuple):
    cls: str
    ok: bool
    pairings_checked: int
    vacuous: int
    failing_pairing: Pairing | None = None
    failure: Refutation | None = None

    def to_json(self) -> dict:
        out = {"class": self.cls, "ok": self.ok,
               "pairings_checked": self.pairings_checked, "vacuous": self.vacuous}
        if self.failing_pairing is not None:
            out["failing_pairing"] = [list(p) for p in self.failing_pairing]
            out["failure"] = self.failure.to_json() if self.failure else None
        return out


def membership_all_pairings(f: Signature, cls: str) -> PairingClassReport:
    """Test the class on the restriction of f to every perfect port pairing;
    identically-zero restrictions pass vacuously, and arities beyond the cap
    raise instead of subsampling.  The one-class case of _pairing_walk."""
    return _pairing_walk(f, (cls,))[0]


def _pairing_walk(f: Signature, classes: Sequence[str]) -> list[PairingClassReport]:
    """membership_all_pairings for each of ``classes``, in one walk in the
    order of perfect_pairings that stops once every class has failed.  A
    subtree is fixed by its free ports and kept strings, so one already
    walked adds its stored counts; a class still open met no refutation there.

    A class whose root passes runs no leaf call, by closure: a restriction
    multiplies f by one binary disequality per pair.  Substituting xors into
    sum l*t + 2 sum mu*t*t (mod 4) keeps that form; in the product class a
    pair inside a group keeps it or zeroes it, a pair across two groups merges
    them, and a pair touching a pin fixes the group (Cai, Lu & Xia, STOC 2009)."""
    _require_eo(f)
    _require_nonzero(f)
    if f.arity > PAIRING_ARITY_CAP:
        raise CapExceeded(
            f"arity {f.arity} over pairing enumeration cap {PAIRING_ARITY_CAP}")
    supp = f.support()
    cols = f2.columns(supp, f.arity)
    full = (1 << len(supp)) - 1
    # per class whose root fails and no leaf has refuted yet: membership of
    # the restriction that keeps these strings
    undecided = {cls: {full: root} for cls in classes
                 if isinstance(root := membership(f, cls), Refutation)}
    failed: dict[str, PairingClassReport] = {}
    memo = {}  # (free ports, kept) -> (checked, vacuous) of a walked subtree
    path: list[tuple[int, int]] = []
    checked = vacuous = 0

    def walk(free: int, kept: int) -> bool:
        """Walk the pairings of the ports in bitset ``free``, with ``kept``
        nonempty, in the order of perfect_pairings, adding to the counts;
        True once every class has failed."""
        nonlocal checked, vacuous
        if not free:
            checked += 1
            for cls, results in list(undecided.items()):
                if kept not in results:
                    results[kept] = membership(Signature(f.arity, {
                        m: f.entries[m] for k, m in enumerate(supp) if kept >> k & 1}), cls)
                if isinstance(results[kept], Refutation):
                    del undecided[cls]
                    failed[cls] = PairingClassReport(cls, False, checked, vacuous,
                                                     tuple(path), results[kept])
            return len(failed) == len(classes)
        done = memo.get((free, kept))
        if done is not None:
            checked += done[0]
            vacuous += done[1]
            return False
        before = checked, vacuous
        low = free & -free
        lead, rest = low.bit_length() - 1, free ^ low
        below = pairing_count(rest.bit_count() - 1)  # the pairings under each child
        others = rest
        while others:
            bit = others & -others
            others ^= bit
            partner = bit.bit_length() - 1
            child = kept & (cols[lead] ^ cols[partner])
            if not child:
                checked += below
                vacuous += below
                continue
            path.append((lead, partner))
            if walk(rest ^ bit, child):
                return True
            path.pop()
        memo[free, kept] = checked - before[0], vacuous - before[1]
        return False

    walk((1 << f.arity) - 1, full)
    return [failed.get(cls) or PairingClassReport(cls, True, checked, vacuous)
            for cls in classes]


# ---------------------------------------------------------------------------
# rebalancing
# ---------------------------------------------------------------------------


class RebalanceResult(NamedTuple):
    ok: bool
    bit: int
    failing_port: int | None = None
    chain: dict | None = None  # per-port partner map, nested through residuals

    def to_json(self) -> dict:
        return self._asdict()


def is_rebalancing(f: Signature, b: int) -> RebalanceResult:
    """Recursive partner search: every port x needs a partner y such that no
    support string puts b on both, and pinning (x, y) to (b, 1-b) leaves a
    rebalancing residual.  Zero signatures and nonzero constants rebalance.

    The condition reads the support only, and a pin only selects strings, so
    the search recurses on (arity, support) pairs and memoizes on them.  Each
    state reads its support by columns (f2.columns), complemented when b = 0,
    so a column holds the strings that read b at its port; a port whose
    column is empty takes the first other port, with no residual to search.
    """
    _require_eo(f)
    if b not in (0, 1):
        raise ValueError("bit must be 0 or 1")
    memo: dict[tuple[int, tuple[int, ...]], dict | str | int] = {}

    def partner(n: int, supp: tuple[int, ...], cols: list[int], x: int):
        """(y, residual chain) for the first port y that no support string
        sets to b together with x and whose pin leaves a rebalancing
        residual; None if there is no such port."""
        at_x = cols[x]
        if not at_x:  # the pin keeps no string: the first other port will do
            return (0 if x else 1), "leaf"
        # with no string reading b at both, the pin x=b, y=1-b keeps at_x;
        # each kept string loses its bits lo and hi (LSB-first)
        kept = [m for k, m in enumerate(supp) if at_x >> k & 1]
        for y in range(n):
            if y == x or at_x & cols[y]:
                continue
            lo, hi = sorted((n - 1 - x, n - 1 - y))
            low, mid = (1 << lo) - 1, (1 << (hi - 1)) - (1 << lo)
            sub = rec(n - 2, tuple((m & low) | ((m >> 1) & mid) | ((m >> (hi + 1)) << (hi - 1))
                                   for m in kept))
            if not isinstance(sub, int):
                return y, sub
        return None

    def rec(n: int, supp: tuple[int, ...]) -> dict | str | int:
        """The partner chain of the state (n, supp); "leaf" when it has no
        port or no string, else the first port that has no partner."""
        key = (n, supp)
        if key in memo:
            return memo[key]
        result: dict | str | int = "leaf"
        if n and supp:
            flip = 0 if b else (1 << len(supp)) - 1
            cols = [col ^ flip for col in f2.columns(supp, n)]
            result = {}
            for x in range(n):
                found = partner(n, supp, cols, x)
                if found is None:
                    result = x
                    break
                result[x] = {"partner": found[0], "residual": found[1]}
        memo[key] = result
        return result

    result = rec(f.arity, f.support())
    if isinstance(result, int):
        return RebalanceResult(False, b, failing_port=result)
    return RebalanceResult(True, b, chain=result if result != "leaf" else {})


# ---------------------------------------------------------------------------
# dual symmetry kinds
# ---------------------------------------------------------------------------


class SymmetryReport(NamedTuple):
    kind: str  # "dual_symmetric" | "dual_antisymmetric" | "conjugate_dual" | "none"
    unit: ExactValue | None = None

    def to_json(self) -> dict:
        return {"kind": self.kind,
                "unit": render_value(self.unit) if self.unit is not None else None}


def symmetry_class(f: Signature) -> SymmetryReport:
    """Classify how f relates to its dual (bit-flipped) table.

    Priority: equal, negated, or conjugated up to one unimodular unit.
    """
    _require_eo(f)
    _require_nonzero(f)
    if dual(f) == f:
        return SymmetryReport("dual_symmetric", ONE)
    full = (1 << f.arity) - 1
    if all(f.value(m ^ full) == -v for m, v in f.entries.items()):
        return SymmetryReport("dual_antisymmetric")
    unit = conjugate_dual_unit(f)
    if unit is not None:
        return SymmetryReport("conjugate_dual", unit)
    return SymmetryReport("none")


def conjugate_dual_unit(f: Signature) -> ExactValue | None:
    """Unimodular u with f(~a) == u * conj(f(a)) on the support of a nonzero
    f, if any."""
    full = (1 << f.arity) - 1
    supp = f.support()
    m0 = supp[0]
    dual_val = f.value(m0 ^ full)
    if dual_val.is_zero():
        return None
    unit = dual_val / f.value(m0).conj()
    if unit.is_unimodular() and \
            all(f.value(m ^ full) == unit * f.value(m).conj() for m in supp):
        return unit
    return None


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------


class Verdict(NamedTuple):
    outcome: str                      # "sharp_p_hard" | "fp_np" | "fp"
    classes: tuple[str, ...] = ()
    direction: str | None = None      # "up" | "down" | "both"
    rebalancing: int | None = None
    witness: dict | None = None
    notes: Sequence[str] = ()
    per_signature: Sequence[dict] = ()
    certificates: dict | None = None  # written as {} when None

    @property
    def tractable(self) -> bool:
        return self.outcome in ("fp_np", "fp")

    def to_json(self) -> dict:
        return {
            "outcome": self.outcome,
            "classes": list(self.classes),
            "direction": self.direction,
            "rebalancing": self.rebalancing,
            "witness": self.witness,
            "notes": list(self.notes),
            "per_signature": list(self.per_signature),
            "certificates": self.certificates or {},
        }


def dichotomy_verdict(signatures: Sequence[Signature]) -> Verdict:
    """Full classification of a finite set of balanced-support signatures."""
    sigs = list(signatures)
    if not sigs:
        raise EmptySet("cannot classify an empty signature set")
    for f in sigs:
        _require_eo(f)
        _require_nonzero(f)
    labels = [_sig_label(f, i) for i, f in enumerate(sigs)]
    triples = [triple_class(f) for f in sigs]
    per_sig = [{"name": lab, "arity": f.arity, "triples": tc.to_json()}
               for lab, f, tc in zip(labels, sigs, triples)]

    for lab, f, tc in zip(labels, sigs, triples):
        if tc.gap is not None:
            return Verdict("sharp_p_hard",
                           witness={"kind": "gap_triple", "signature": lab,
                                    **tc.gap.strings(f.arity)},
                           per_signature=per_sig)
    heavy = next(((lab, f, tc) for lab, f, tc in zip(labels, sigs, triples)
                  if tc.heavy is not None), None)
    light = next(((lab, f, tc) for lab, f, tc in zip(labels, sigs, triples)
                  if tc.light is not None), None)
    if heavy and light:
        return Verdict("sharp_p_hard",
                       witness={"kind": "heavy_and_light",
                                "heavy": {"signature": heavy[0],
                                          **heavy[2].heavy.strings(heavy[1].arity)},
                                "light": {"signature": light[0],
                                          **light[2].light.strings(light[1].arity)}},
                       per_signature=per_sig)

    walks = [_pairing_walk(f, ("affine", "product")) for f in sigs]
    for entry, (aff, prod) in zip(per_sig, walks):
        entry["pairing_affine"], entry["pairing_product"] = aff.to_json(), prod.to_json()
    reports = {"affine": [w[0] for w in walks], "product": [w[1] for w in walks]}
    class_ok = {cls: all(r.ok for r in reports[cls]) for cls in reports}

    if not class_ok["affine"] and not class_ok["product"]:
        aff_fail = next((lab, r) for lab, r in zip(labels, reports["affine"]) if not r.ok)
        prod_fail = next((lab, r) for lab, r in zip(labels, reports["product"]) if not r.ok)
        return Verdict("sharp_p_hard",
                       witness={"kind": "class_failure",
                                "affine": {"signature": aff_fail[0], **aff_fail[1].to_json()},
                                "product": {"signature": prod_fail[0], **prod_fail[1].to_json()}},
                       per_signature=per_sig)

    classes = tuple(cls for cls in ("product", "affine") if class_ok[cls])
    if heavy:
        direction = "up"
    elif light:
        direction = "down"
    else:
        direction = "both"
    notes = ("all supports are pairwise-opposite; both directions apply",) \
        if direction == "both" else ()

    reb_flag = None
    reb_traces = {}
    for bit in (0, 1):
        results = [is_rebalancing(f, bit) for f in sigs]
        reb_traces[bit] = [r.to_json() for r in results]
        if all(r.ok for r in results):
            reb_flag = bit
            break
    certificates = {"rebalancing_traces": reb_traces}
    outcome = "fp" if reb_flag is not None else "fp_np"
    return Verdict(outcome, classes=classes, direction=direction,
                   rebalancing=reb_flag, notes=notes, per_signature=per_sig,
                   certificates=certificates)


def verdict_extended(signatures: Sequence[Signature], mode: str) -> Verdict:
    """Classification of weakly-heavy, weakly-light, or single-weighted sets.

    Heavy/light sets are restricted to their balanced part; mixed
    single-weighted sets are padded to balance with forced-bit ports.
    """
    from .transforms import pad_to_eo, restrict_eo, weight_profile

    sigs = list(signatures)
    if not sigs:
        raise EmptySet("cannot classify an empty signature set")
    labels = [_sig_label(f, i) for i, f in enumerate(sigs)]

    if mode in ("upside", "downside"):
        for lab, f in zip(labels, sigs):
            for m in f.support():
                excess = f2.weight_excess(m, f.arity)
                if (mode == "upside" and excess < 0) or (mode == "downside" and excess > 0):
                    raise ModeViolation(
                        f"signature {lab}: string {f2.mask_to_string(m, f.arity)} "
                        f"violates {mode} support")
        transformed = [restrict_eo(f) for f in sigs]
        note = "classified the balanced restriction of every signature"
    elif mode == "single_weighted":
        profiles = []
        for lab, f in zip(labels, sigs):
            prof = weight_profile(f)
            if prof.mixed:
                raise ModeViolation(f"signature {lab} takes values at several weights")
            profiles.append(prof)
        all_heavy = all(2 * p.weight >= p.arity for p in profiles if p.weight is not None)
        all_light = all(2 * p.weight <= p.arity for p in profiles if p.weight is not None)
        if all_heavy or all_light:
            transformed = [restrict_eo(f) for f in sigs]
            note = "single-weighted set is one-sided; classified the balanced restriction"
        else:
            transformed = [pad_to_eo(f) for f in sigs]
            note = "single-weighted set is mixed; classified the balance-padded signatures"
    else:
        raise ValueError(f"bad mode {mode!r}")

    kept = [(lab, f, g) for lab, f, g in zip(labels, sigs, transformed)
            if not g.is_zero()]
    dropped = [lab for lab, g in zip(labels, transformed) if g.is_zero()]
    if not kept:
        return Verdict("fp", classes=("product", "affine"), direction="both",
                       notes=(note, "every transformed signature is identically zero; "
                                    "all instances have partition function 0"))
    verdict = dichotomy_verdict([g.with_name(lab) for lab, _, g in kept])
    notes = [note, *verdict.notes]
    if dropped:
        notes.append("dropped identically-zero transforms of: " + ", ".join(dropped))
    for lab, f, g in kept:
        if f.arity != g.arity:
            notes.append(
                f"signature {lab}: ports {f.arity + 1}..{g.arity} are balance padding; "
                f"certificates refer to the padded signature")
    return verdict._replace(notes=notes)
