"""Decision predicates, certificates, and the dichotomy verdict.

Every predicate here is exhaustive and exact at desk scale; certificates
carry enough data to be re-checked independently of the code that produced
them (each certificate type has a ``verify`` method used by the tests).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

from . import f2
from .errors import (
    CapExceeded,
    EmptySet,
    ModeViolation,
    NotEO,
    PairingViolation,
    ZeroSignature,
)
from .f2 import AffineSpace, f2_affine_span
from .signatures import Signature, from_entries, pin_pair
from .values import ExactValue, I, ONE, ZERO, i_power_exponent, render_value

PAIRING_ARITY_CAP = 12

Pairing = tuple[tuple[int, int], ...]


def _require_eo(f: Signature) -> None:
    if not f.is_eo():
        raise NotEO("signature has unbalanced support strings")


def _require_nonzero(f: Signature) -> None:
    if f.is_zero():
        raise ZeroSignature("operation needs a nontrivial signature")


def _sig_label(f: Signature, idx: int | None = None) -> str:
    if f.name:
        return f.name
    return f"f{idx}" if idx is not None else "f"


# ---------------------------------------------------------------------------
# triple classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TripleWitness:
    alpha: int
    beta: int
    gamma: int
    delta: int

    def strings(self, arity: int) -> dict[str, str]:
        return {k: f2.mask_to_string(v, arity)
                for k, v in (("alpha", self.alpha), ("beta", self.beta),
                             ("gamma", self.gamma), ("delta", self.delta))}


@dataclass(frozen=True)
class TripleClass:
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
            excess = f2.weight_excess(d, n)
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


def is_pure(f: Signature, direction: str) -> bool:
    """Whether the affine span of the support stays weakly heavy (or light)."""
    _require_eo(f)
    _require_nonzero(f)
    if direction not in ("up", "down"):
        raise ValueError(f"bad direction {direction!r}")
    span = f2_affine_span(f.support(), f.arity)
    for el in span.elements():
        excess = f2.weight_excess(el, f.arity)
        if direction == "up" and excess < 0:
            return False
        if direction == "down" and excess > 0:
            return False
    return True


# ---------------------------------------------------------------------------
# pairings
# ---------------------------------------------------------------------------


def perfect_pairings(ports: Sequence[int]) -> Iterator[Pairing]:
    """All perfect matchings of the port list (lowest port always leads)."""
    ports = sorted(ports)
    if not ports:
        yield ()
        return
    first, rest = ports[0], ports[1:]
    for i, partner in enumerate(rest):
        head = (first, partner)
        remaining = rest[:i] + rest[i + 1:]
        for tail in perfect_pairings(remaining):
            yield (head,) + tail


def pairing_count(arity: int) -> int:
    """(arity-1)!! perfect matchings of an even number of ports."""
    out = 1
    for k in range(arity - 1, 0, -2):
        out *= k
    return out


def _always_unequal(f: Signature) -> list[list[bool]]:
    n = f.arity
    supp = f.support()
    table = [[True] * n for _ in range(n)]
    for i in range(n):
        table[i][i] = False
    for m in supp:
        for i in range(n):
            bi = f2.bit_at(m, i, n)
            for j in range(i + 1, n):
                if bi == f2.bit_at(m, j, n):
                    table[i][j] = table[j][i] = False
    return table


def find_pairing(f: Signature) -> Pairing | None:
    """A perfect port pairing whose pairs take opposite values on all of supp."""
    _require_eo(f)
    if f.arity % 2 != 0:
        return None
    compatible = _always_unequal(f)

    def search(free: list[int]) -> Pairing | None:
        if not free:
            return ()
        first, rest = free[0], free[1:]
        for i, partner in enumerate(rest):
            if compatible[first][partner]:
                tail = search(rest[:i] + rest[i + 1:])
                if tail is not None:
                    return ((first, partner),) + tail
        return None

    return search(list(range(f.arity)))


def pairing_opposite_set(pairing: Pairing, arity: int) -> Iterator[int]:
    """All strings whose paired positions take opposite values."""
    d = len(pairing)
    for combo in range(1 << d):
        m = 0
        for t, (i, j) in enumerate(pairing):
            bit = (combo >> t) & 1
            m = f2.set_bit(m, i, arity, bit)
            m = f2.set_bit(m, j, arity, 1 - bit)
        yield m


def restrict_to_pairing(f: Signature, pairing: Pairing) -> Signature:
    """Zero out every string where some pair takes equal values."""
    n = f.arity
    entries = {}
    for m in f.support():
        if all(f2.bit_at(m, i, n) != f2.bit_at(m, j, n) for i, j in pairing):
            entries[m] = f.value(m)
    return from_entries(n, entries)


# ---------------------------------------------------------------------------
# affine-class membership
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AffineCertificate:
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
        if f.arity != self.arity:
            return False
        for m in range(1 << f.arity):
            if self.space.contains(m):
                want = self.lam * I ** self.exponent(self.space.coordinates(m))
            else:
                want = ZERO
            if f.value(m) != want:
                return False
        return True

    def to_json(self) -> dict:
        return {
            "kind": "affine",
            "scale": render_value(self.lam),
            "support_offset": f2.mask_to_string(self.space.offset, self.arity),
            "support_basis": [f2.mask_to_string(b, self.arity) for b in self.space.basis],
            "linear": list(self.lin),
            "quadratic": [[i, j, mu] for i, j, mu in self.quad],
        }


@dataclass(frozen=True)
class Refutation:
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
        missing = next(el for el in span.elements() if el not in set(supp))
        return Refutation("support_not_affine", f2.mask_to_string(missing, n))
    base = span.offset
    lam = f.value(base)
    exps: dict[int, int] = {}
    for m in supp:
        e = i_power_exponent(f.value(m) / lam)
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


@dataclass(frozen=True)
class ProductGroup:
    ports: tuple[int, ...]        # leader first
    parities: tuple[int, ...]     # relative to the leader, parity 0 for the leader
    w0: ExactValue                # weight when the leader bit is 0
    w1: ExactValue


@dataclass(frozen=True)
class ProductCertificate:
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

    def to_json(self) -> dict:
        return {
            "kind": "product",
            "scale": render_value(self.lam),
            "pins": [[p, b] for p, b in self.pins],
            "groups": [{
                "ports": list(g.ports),
                "parities": list(g.parities),
                "w0": render_value(g.w0),
                "w1": render_value(g.w1),
            } for g in self.groups],
        }


def membership_product(f: Signature) -> ProductCertificate | Refutation:
    """Certificate that f factors into unaries and binary (dis)equalities."""
    _require_nonzero(f)
    n = f.arity
    supp = f.support()
    supp_set = set(supp)
    pins = []
    free = []
    for p in range(n):
        bits = {f2.bit_at(m, p, n) for m in supp}
        if len(bits) == 1:
            pins.append((p, bits.pop()))
        else:
            free.append(p)
    # group free ports by forced equal / forced opposite
    groups: list[list[int]] = []
    parities: dict[int, int] = {}
    for p in free:
        placed = False
        for g in groups:
            lead = g[0]
            rel = {f2.bit_at(m, p, n) ^ f2.bit_at(m, lead, n) for m in supp}
            if len(rel) == 1:
                g.append(p)
                parities[p] = rel.pop()
                placed = True
                break
        if not placed:
            groups.append([p])
            parities[p] = 0
    if len(supp) != 1 << len(groups):
        # find a combination that should exist but does not
        for combo in range(1 << len(groups)):
            m = 0
            for port, bit in pins:
                m = f2.set_bit(m, port, n, bit)
            for gi, g in enumerate(groups):
                rep = (combo >> gi) & 1
                for port in g:
                    m = f2.set_bit(m, port, n, rep ^ parities[port])
            if m not in supp_set:
                return Refutation("support_not_product", f2.mask_to_string(m, n))
        return Refutation("support_not_product", "inconsistent combination count")
    base = supp[0]
    lam = f.value(base)
    ws = []
    for g in groups:
        flip = 0
        for port in g:
            flip = f2.set_bit(flip, port, n, 1)
        lead_bit = f2.bit_at(base, g[0], n)
        val_base = ONE
        val_flip = f.value(base ^ flip) / lam
        w0, w1 = (val_base, val_flip) if lead_bit == 0 else (val_flip, val_base)
        ws.append((w0, w1))
    cert = ProductCertificate(
        n, lam, tuple(pins),
        tuple(ProductGroup(tuple(g), tuple(parities[p] for p in g), w0, w1)
              for g, (w0, w1) in zip(groups, ws)))
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


@dataclass(frozen=True)
class PairingClassReport:
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


def membership_all_pairings(f: Signature, cls: str,
                            arity_cap: int = PAIRING_ARITY_CAP) -> PairingClassReport:
    """Test the class on the restriction of f to every perfect port pairing.

    Identically-zero restrictions pass vacuously.  The quantifier is over all
    pairings, so arities beyond the cap raise instead of subsampling.
    """
    _require_eo(f)
    _require_nonzero(f)
    if f.arity > arity_cap:
        raise CapExceeded(f"arity {f.arity} over pairing enumeration cap {arity_cap}")
    checked = vacuous = 0
    for pairing in perfect_pairings(range(f.arity)):
        checked += 1
        restricted = restrict_to_pairing(f, pairing)
        if restricted.is_zero():
            vacuous += 1
            continue
        result = membership(restricted, cls)
        if isinstance(result, Refutation):
            return PairingClassReport(cls, False, checked, vacuous, pairing, result)
    return PairingClassReport(cls, True, checked, vacuous)


# ---------------------------------------------------------------------------
# rebalancing
# ---------------------------------------------------------------------------


@dataclass
class RebalanceResult:
    ok: bool
    bit: int
    failing_port: int | None = None
    chain: dict | None = None  # per-port partner map, nested through residuals

    def to_json(self) -> dict:
        return {"ok": self.ok, "bit": self.bit,
                "failing_port": self.failing_port, "chain": self.chain}


def is_rebalancing(f: Signature, b: int) -> RebalanceResult:
    """Recursive partner search: every port x needs a partner y such that no
    support string puts b on both, and pinning (x, y) to (b, 1-b) leaves a
    rebalancing residual.  Zero signatures and nonzero constants rebalance.
    """
    _require_eo(f)
    if b not in (0, 1):
        raise ValueError("bit must be 0 or 1")
    memo: dict[tuple, dict | None | str] = {}

    def rec(sig: Signature):
        key = (sig.arity, sig.values)
        if key in memo:
            return memo[key]
        if sig.arity == 0 or sig.is_zero():
            memo[key] = "leaf"
            return "leaf"
        memo[key] = None  # cycle guard; residuals strictly shrink, so unused
        chain: dict = {}
        n = sig.arity
        supp = sig.support()
        for x in range(n):
            found = None
            for y in range(n):
                if y == x:
                    continue
                if any(f2.bit_at(m, x, n) == b and f2.bit_at(m, y, n) == b
                       for m in supp):
                    continue
                pattern = f"{b}{1 - b}"
                residual = pin_pair(sig, x, y, pattern)
                sub = rec(residual)
                if sub is not None:
                    found = (y, sub)
                    break
            if found is None:
                memo[key] = None
                return None
            chain[x] = {"partner": found[0],
                        "residual": found[1] if found[1] != "leaf" else "leaf"}
        memo[key] = chain
        return chain

    result = rec(f)
    if result is None:
        # locate a failing port at the top level for the report
        n = f.arity
        supp = f.support()
        failing = None
        for x in range(n):
            ok_any = False
            for y in range(n):
                if y == x:
                    continue
                if any(f2.bit_at(m, x, n) == b and f2.bit_at(m, y, n) == b
                       for m in supp):
                    continue
                if rec(pin_pair(f, x, y, f"{b}{1 - b}")) is not None:
                    ok_any = True
                    break
            if not ok_any:
                failing = x
                break
        return RebalanceResult(False, b, failing_port=failing)
    chain = result if result != "leaf" else {}
    return RebalanceResult(True, b, chain=chain)


# ---------------------------------------------------------------------------
# dual symmetry kinds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SymmetryReport:
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
    n = f.arity
    full = (1 << n) - 1
    if all(f.value(m) == f.value(m ^ full) for m in range(1 << n)):
        return SymmetryReport("dual_symmetric", ONE)
    supp = f.support()
    if all(f.value(m ^ full) == -f.value(m) for m in supp):
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
# pairing sections and the disequality embedding
# ---------------------------------------------------------------------------


def pairing_sections(f: Signature, pairing: Pairing) -> list[Signature]:
    """All 2^d half-arity signatures read off a pairing-opposite signature.

    Selection bit t chooses which element of pair t becomes the free
    variable; its partner is forced opposite.
    """
    n = f.arity
    d = len(pairing)
    if sorted(p for pair in pairing for p in pair) != list(range(n)):
        raise PairingViolation("pairing must cover every port exactly once")
    for m in f.support():
        if any(f2.bit_at(m, i, n) == f2.bit_at(m, j, n) for i, j in pairing):
            raise PairingViolation("support is not opposite on the given pairing")
    out = []
    for selection in range(1 << d):
        entries = {}
        for y in range(1 << d):
            m = 0
            for t, (i, j) in enumerate(pairing):
                rep = j if (selection >> t) & 1 else i
                other = i if (selection >> t) & 1 else j
                bit = (y >> (d - 1 - t)) & 1
                m = f2.set_bit(m, rep, n, bit)
                m = f2.set_bit(m, other, n, 1 - bit)
            val = f.value(m)
            if not val.is_zero():
                entries[y] = val
        out.append(from_entries(d, entries))
    return out


def diseq_embedding(g: Signature) -> Signature:
    """Interleave each variable with a forced-opposite partner.

    The result has arity 2d over ports (x1, y1, x2, y2, ...) and support only
    where every y is the complement of its x, carrying g's value.
    """
    d = g.arity
    n = 2 * d
    entries = {}
    for x in range(1 << d):
        m = 0
        for t in range(d):
            bit = (x >> (d - 1 - t)) & 1
            m = f2.set_bit(m, 2 * t, n, bit)
            m = f2.set_bit(m, 2 * t + 1, n, 1 - bit)
        val = g.value(x)
        if not val.is_zero():
            entries[m] = val
    return from_entries(n, entries)


def natural_pairing(d: int) -> Pairing:
    return tuple((2 * t, 2 * t + 1) for t in range(d))


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------


@dataclass
class Verdict:
    outcome: str                      # "sharp_p_hard" | "fp_np" | "fp"
    classes: tuple[str, ...] = ()
    direction: str | None = None      # "up" | "down" | "both"
    rebalancing: int | None = None
    witness: dict | None = None
    notes: list[str] = field(default_factory=list)
    per_signature: list[dict] = field(default_factory=list)
    certificates: dict = field(default_factory=dict)

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
            "per_signature": self.per_signature,
            "certificates": self.certificates,
        }


def dichotomy_verdict(signatures: Sequence[Signature],
                      arity_cap: int = PAIRING_ARITY_CAP) -> Verdict:
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

    reports = {"affine": [], "product": []}
    for f in sigs:
        for cls in ("affine", "product"):
            reports[cls].append(membership_all_pairings(f, cls, arity_cap))
    class_ok = {cls: all(r.ok for r in reports[cls]) for cls in reports}
    for entry, aff, prod in zip(per_sig, reports["affine"], reports["product"]):
        entry["pairing_affine"] = aff.to_json()
        entry["pairing_product"] = prod.to_json()

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
    notes = []
    if direction == "both":
        notes.append("all supports are pairwise-opposite; both directions apply")

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


def verdict_extended(signatures: Sequence[Signature], mode: str,
                     arity_cap: int = PAIRING_ARITY_CAP) -> Verdict:
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
        v = Verdict("fp", classes=("product", "affine"), direction="both")
        v.notes.append(note)
        v.notes.append("every transformed signature is identically zero; "
                       "all instances have partition function 0")
        return v
    verdict = dichotomy_verdict([g.with_name(lab) for lab, _, g in kept], arity_cap)
    verdict.notes.insert(0, note)
    if dropped:
        verdict.notes.append(
            "dropped identically-zero transforms of: " + ", ".join(dropped))
    for lab, f, g in kept:
        if f.arity != g.arity:
            verdict.notes.append(
                f"signature {lab}: ports {f.arity + 1}..{g.arity} are balance padding; "
                f"certificates refer to the padded signature")
    return verdict
