"""Ramification profiles, validation, genus, and curve-family presets.

A profile (m; lambda_1, ..., lambda_r; n) is the full arithmetic model of
a Kummer extension y^m = f(x): the lambdas are the valuations of f at its
zeros and poles, and the first n entries mark the distinguished pairwise
totally ramified places.
"""

from __future__ import annotations

import json
from collections import namedtuple
from functools import cached_property
from math import gcd

from .arith import CompiledProfile, lambda_gcd
from .errors import BadPreset, InconsistentProfile

MAX_PLACES = 10**6
MAX_CHARACTERISTIC = 10**14  # primality by trial division takes sqrt(p) steps
MAX_POWER_BITS = 4096  # presets print q^(2 nexp): far below 4300 digits


class RamificationProfile(
    namedtuple("RamificationProfile", "m lambdas n labels field_info")
):
    # no __slots__: the compiled cached_property needs an instance __dict__

    def __new__(cls, m, lambdas, n, labels=None, field_info=None):
        # field_info is (p, q) when known
        if labels is not None:
            labels = tuple(labels)
        return super().__new__(cls, m, tuple(lambdas), n, labels, field_info)

    @property
    def r(self) -> int:
        return len(self.lambdas)

    @cached_property
    def compiled(self) -> CompiledProfile:
        """The arithmetic of the criteria, compiled on first use."""
        return CompiledProfile(self)


Violation = namedtuple("Violation", "severity message")  # "error" | "warning"


class ValidationReport(namedtuple("ValidationReport", "violations")):
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return not self.errors

    @property
    def errors(self):
        return [v for v in self.violations if v.severity == "error"]

    @property
    def warnings(self):
        return [v for v in self.violations if v.severity == "warning"]


def validate(profile: RamificationProfile) -> ValidationReport:
    """Check every structural hypothesis on the ramification data.

    Violations are returned as data, tagged error or warning; the profile
    is usable downstream iff there are no errors.
    """
    out = []

    def err(msg):
        out.append(Violation("error", msg))

    def warn(msg):
        out.append(Violation("warning", msg))

    if profile.m < 2:
        err(f"m must be >= 2, got {profile.m}")
    if profile.r < 2:
        err(f"need at least 2 ramified places, got {profile.r}")
    for k, lam in enumerate(profile.lambdas, start=1):
        if lam == 0:
            err(f"lambda_{k} must be nonzero")
    total = sum(profile.lambdas)
    if total != 0:
        err(f"sum of lambdas must be 0, got {total}")
    if not 2 <= profile.n <= profile.r:
        err(f"n must satisfy 2 <= n <= r={profile.r}, got {profile.n}")
    if profile.m >= 2:
        for k in range(1, min(profile.n, profile.r) + 1):
            g = gcd(profile.lambdas[k - 1], profile.m)
            if g != 1:
                err(
                    f"gcd(lambda_{k}, m) = {g} != 1: place {k} is not "
                    "totally ramified"
                )
        if profile.lambdas and lambda_gcd(profile) != 1:
            err(
                "all lambdas share a common divisor d > 1 dividing m: "
                "the defining function is a d-th power"
            )
    if profile.labels is not None and len(profile.labels) != profile.r:
        err(f"labels length {len(profile.labels)} != r = {profile.r}")
    if profile.field_info is not None:
        p, q = profile.field_info
        if p < 2:
            err(f"characteristic p must be >= 2, got {p}")
        elif p > MAX_CHARACTERISTIC:
            err(f"characteristic p={p} is above {MAX_CHARACTERISTIC}, too "
                "large to test for primality")
        elif not _is_prime(p):
            err(f"characteristic p={p} is not prime")
        else:
            if profile.m % p == 0:
                err(f"characteristic p={p} divides m={profile.m}")
            if not _is_power_of(q, p):
                err(f"field size q={q} is not a power of p={p}")
        if q < profile.n:
            warn(
                f"q={q} < n={profile.n}: the semigroup interpretation "
                "needs q >= n; arithmetic results are still computed"
            )
    return ValidationReport(tuple(out))


def genus(profile: RamificationProfile) -> int:
    """Genus from the tame ramification data:
    2g - 2 = -2m + sum(m - gcd(lambda_k, m))."""
    rh = -2 * profile.m + sum(
        profile.m - gcd(lam, profile.m) for lam in profile.lambdas
    )
    if rh % 2 != 0:
        raise InconsistentProfile(f"2g - 2 = {rh} is odd")
    g = rh // 2 + 1
    if g < 0:
        raise InconsistentProfile(f"negative genus {g}")
    return g


# ---------------------------------------------------------------------------
# Curve-family presets
#
# The place-count cap and the n bounds come before the primality tests:
# trial division of a large p or q would run for ages, and the cap refuses
# any q > 1000 anyway.  Each power is bounded from bit lengths before it
# is taken.


def _checked(kind: str, profile: RamificationProfile) -> RamificationProfile:
    report = validate(profile)
    if not report.ok:
        msgs = "; ".join(v.message for v in report.errors)
        raise BadPreset(f"{kind} preset produced invalid profile: {msgs}")
    return profile


def _check_r(r: int) -> None:
    if r + 1 > MAX_PLACES:
        raise BadPreset(f"preset would materialize more than {MAX_PLACES} places")


def _check_power(base: int, exp: int, what: str) -> None:
    if exp * base.bit_length() > MAX_POWER_BITS:
        raise BadPreset(f"{what} would exceed {MAX_POWER_BITS} bits")


def preset_separable(m: int, t: int, n: int) -> RamificationProfile:
    """y^m = f(x) with f separable of degree t: t simple zeros and one
    pole of order t. No coprimality between m and t is required."""
    if m < 2:
        raise BadPreset(f"m must be >= 2, got {m}")
    if t < 2:
        raise BadPreset(f"t must be >= 2, got {t}")
    if not 2 <= n <= t:
        raise BadPreset(f"n must satisfy 2 <= n <= t={t}, got {n}")
    _check_r(t)
    return _checked("separable", RamificationProfile(m, (1,) * t + (-t,), n))


def _smallest_prime_factor(q: int) -> int:
    d = 2
    while d * d <= q:
        if q % d == 0:
            return d
        d += 1
    return q


def _is_prime(p: int) -> bool:
    return p >= 2 and _smallest_prime_factor(p) == p


def _is_power_of(q: int, p: int) -> bool:
    """q = p^e for some e >= 1 (p >= 2)."""
    if q < p:
        return False
    while q % p == 0:
        q //= p
    return q == 1


def _is_prime_power(q: int) -> bool:
    return q >= 2 and _is_power_of(q, _smallest_prime_factor(q))


def _kummer_family(q: int, d: int, n_exp: int, s: int, n: int, p: int):
    """Shared construction for the X_{a,b,n,s} / Y_{n,s} families:
    q/d simple zeros, q(q-1)/d zeros of order q+1, one pole of order q^3/d.
    The caller has checked the place count q^2/d against the cap."""
    if n_exp < 3 or n_exp % 2 == 0:
        raise BadPreset(f"n_exp must be odd and >= 3, got {n_exp}")
    if s < 1:
        raise BadPreset(f"s must be >= 1, got {s}")
    _check_power(q, 2 * n_exp, "q^(2*nexp)")
    top = q**n_exp + 1
    if top % (q + 1) != 0 or (top // (q + 1)) % s != 0:
        raise BadPreset(f"s={s} must divide (q^{n_exp}+1)/(q+1)")
    lambdas = (1,) * (q // d) + (q + 1,) * (q * (q - 1) // d) + (-(q**3) // d,)
    return RamificationProfile(
        m=top // s, lambdas=lambdas, n=n, field_info=(p, q ** (2 * n_exp))
    )


def preset_xabns(
    p: int, a: int, b: int, n_exp: int, s: int, n: int
) -> RamificationProfile:
    """The maximal curves X_{a,b,n,s} over F_{q^{2n}} with q = p^a, d = p^b."""
    if not (1 <= b < a and a % b == 0):
        raise BadPreset(f"need b | a and b < a, got a={a}, b={b}")
    _check_power(p, a, "q = p^a")
    q = p**a
    d = p**b
    if not 2 <= n <= p ** (a - b):  # q/d, and no division when p = 0
        raise BadPreset(f"n must satisfy 2 <= n <= q/d={p ** (a - b)}, got {n}")
    _check_r(q * q // d)
    if not _is_prime(p):
        raise BadPreset(f"p={p} is not prime")
    return _checked("xabns", _kummer_family(q, d, n_exp, s, n, p))


def preset_yns(q: int, n_exp: int, s: int, n: int) -> RamificationProfile:
    """The maximal curves Y_{n,s} over F_{q^{2n}} (the d = 1 family)."""
    if not 2 <= n <= q:
        raise BadPreset(f"n must satisfy 2 <= n <= q={q}, got {n}")
    _check_r(q * q)
    if not _is_prime_power(q):
        raise BadPreset(f"q={q} is not a prime power")
    p = _smallest_prime_factor(q)
    return _checked("yns", _kummer_family(q, 1, n_exp, s, n, p))


def preset_beelen_montanucci(q: int, n_exp: int, n: int) -> RamificationProfile:
    """The Beelen-Montanucci curves: q+1 simple zeros, q^2-q-1 zeros of
    order q+1, one pole of order q^3 - q; exponent m = q^n + 1."""
    if n_exp < 3 or n_exp % 2 == 0:
        raise BadPreset(f"n_exp must be odd and >= 3, got {n_exp}")
    _check_power(q, 2 * n_exp, "q^(2*nexp)")
    if not 2 <= n <= q + 1:
        raise BadPreset(f"n must satisfy 2 <= n <= q+1={q + 1}, got {n}")
    n_heavy = q * q - q - 1
    _check_r(q + 1 + n_heavy)
    if not _is_prime_power(q):
        raise BadPreset(f"q={q} is not a prime power")
    profile = RamificationProfile(
        m=q**n_exp + 1,
        lambdas=(1,) * (q + 1) + (q + 1,) * n_heavy + (-(q**3 - q),),
        n=n,
        field_info=(_smallest_prime_factor(q), q ** (2 * n_exp)),
    )
    return _checked("beelen-montanucci", profile)


# ---------------------------------------------------------------------------
# JSON profile format


def profile_to_dict(profile: RamificationProfile) -> dict:
    out = {"m": profile.m, "lambdas": list(profile.lambdas), "n": profile.n}
    if profile.labels is not None:
        out["labels"] = list(profile.labels)
    if profile.field_info is not None:
        out["field"] = {"p": profile.field_info[0], "q": profile.field_info[1]}
    return out


_JSON_TYPES = {int: "an integer", str: "a string", list: "a list", dict: "an object"}


def _expect(value, kind, what):
    # exact type match: bool is an int subclass, and a float would truncate
    if type(value) is not kind:
        raise ValueError(
            f"malformed profile: {what} must be {_JSON_TYPES[kind]}, got {value!r}"
        )
    return value


def profile_from_dict(data: dict) -> RamificationProfile:
    """Read a profile from parsed JSON.  m, n, the lambdas and the field's
    p and q must be JSON integers; any other shape raises ValueError."""
    _expect(data, dict, "the profile")
    try:
        m = _expect(data["m"], int, "m")
        lambdas = _expect(data["lambdas"], list, "lambdas")
        lambdas = tuple(_expect(x, int, "lambda") for x in lambdas)
        n = _expect(data["n"], int, "n")
        labels = field_info = None
        if "labels" in data:
            labels = _expect(data["labels"], list, "labels")
            labels = tuple(_expect(x, str, "label") for x in labels)
        if "field" in data:
            field = _expect(data["field"], dict, "field")
            field_info = (_expect(field["p"], int, "p"), _expect(field["q"], int, "q"))
    except KeyError as exc:
        raise ValueError(f"malformed profile: missing key {exc}") from None
    return RamificationProfile(
        m=m, lambdas=lambdas, n=n, labels=labels, field_info=field_info
    )


def dump_profile(profile: RamificationProfile, fp) -> None:
    json.dump(profile_to_dict(profile), fp, indent=2)
    fp.write("\n")
