"""Exact arithmetic in the coefficient ring of the calculator.

Elements are integer polynomials in graded generators of two kinds:

* ``g_n`` (n >= 1), degree 2n, the designated projective-space classes;
* ``A(j;key)`` symbols, formal placeholders for augmentation values that
  the operational calculus leaves undetermined.

The ring is modeled as the free commutative graded ring on these
generators.  That is a modeling assumption: everything downstream only
needs a torsion-free graded ring with designated ``cp`` classes.
"""

from __future__ import annotations

import sys
from functools import reduce
from math import gcd
from operator import mul, or_

try:  # hashlib's sha512 without loading OpenSSL, as the random module does
    if sys.version_info >= (3, 12):
        from _sha2 import sha512 as _sha512
    else:
        from _sha512 import sha512 as _sha512
except ImportError:
    from hashlib import sha512 as _sha512

# Generator keys (the public API of gen, aug_symbols and substitute).
#   ('g', n)            -> g_n, degree 2n
#   ('A', j, base, deg) -> A(j;base), degree deg (even), j >= 1
GenKey = tuple

# The two circle characters: every flavor letter is one of these.
FLAVORS = ("r", "s")

# Each generator has a stored key, its own sort key:
#   (0, n, "", slot)            for g_n
#   (1, deg, "A(j;base)", slot) for A(j;base)
# so plain tuple order is the generator order (g's by index, then A's by
# degree and rendered name; the slot never decides).  A monomial is one
# int: the exponent of the generator in slot i sits in bits
# [64i, 64i + 63), and bit 64i + 63 is a guard that no stored monomial
# sets.  The unit monomial is 0 and a monomial product is an int sum.
# Slots are handed out in first-seen order, so every text decodes the
# slots and sorts on stored keys.  The tables are filled lazily, one
# entry per generator seen.
_STORED = {}  # public key -> stored key
_PUBLIC = {}  # stored key -> public key
_SLOTS = []  # slot -> stored key
_DEGREES = []  # slot -> generator degree
_GUARD = 0  # the guard bit of every slot
_EXP_MASK = (1 << 64) - 1  # the bits of slot 0


def _intern(key: GenKey) -> tuple:
    global _GUARD
    stored = _STORED.get(key)
    if stored is None:
        slot = len(_SLOTS)
        if key[0] == "g":
            stored = (0, key[1], "", slot)
        else:
            stored = (1, key[3], "A(%d;%s)" % (key[1], key[2]), slot)
        _STORED[key] = stored
        _PUBLIC[stored] = key
        _SLOTS.append(stored)
        _DEGREES.append(_gen_degree(stored))
        _GUARD |= 1 << (64 * slot + 63)
    return stored


def _gen_degree(stored: tuple) -> int:
    return 2 * stored[1] if stored[0] == 0 else stored[1]


def _gen_name(stored: tuple) -> str:
    return "g%d" % stored[1] if stored[0] == 0 else stored[2]


def _power(stored: tuple, exp: int) -> int:
    """The packed monomial stored^exp."""
    return exp << 64 * stored[3]


def base_key_degree(base: str) -> int:
    """Degree of the atom named by an A-symbol base key."""
    if base == "P":
        return 2
    if base.startswith("Z(") and base.endswith(")"):
        inner = base[2:-1]
        n_text, flavor = inner.split(",")
        n = int(n_text)
        if n >= 1 and flavor in FLAVORS:
            return 2 * n
    raise ValueError(
        "unknown A-symbol base %r (base keys are 'P' or 'Z(n,r)'/'Z(n,s)')" % (base,)
    )


def aug_symbol_key(j: int, base: str) -> GenKey:
    """Deterministic generator key for the augmentation symbol A(j;base).

    Degree bookkeeping: applying the degree-raising operation j times to
    an atom of degree d gives 2j + d.  The degree-2 atoms Z(1,r) and
    Z(1,s) are both the sphere class P, so A(j;Z(1,V)) is A(j;P).
    """
    if j < 1:
        raise ValueError("A-symbol star depth must be >= 1")
    d = base_key_degree(base)
    return ("A", j, "P" if d == 2 else base, 2 * j + d)


class Sparse:
    """Sparse map ``terms``: key -> nonzero coefficient, the root of the
    coefficient ring, both localized presentations and the normal forms.

    ``__init__`` builds ``terms`` from a mapping and drops its zero
    values, as the int-valued ring needs; a ring whose values are not
    ints builds its own.  Subclasses supply ``degrees`` (the set of
    degrees present), ``__str__`` and, for powers, the unit ``one``.
    Instances are treated as immutable once built.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {m: c for m, c in dict(terms).items() if c} if terms else {}

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def _of(cls, terms: dict):
        """An instance that holds `terms` itself, unchecked: every value
        must be nonzero."""
        out = cls.__new__(cls)
        out.terms = terms
        return out

    def __neg__(self):
        return self._of({k: -c for k, c in self.terms.items()})

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers are not defined here")
        result = self.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    # --- grading --------------------------------------------------------

    def degree(self):
        """The common degree, None for 0; inhomogeneous input is an error."""
        ds = self.degrees()
        if not ds:
            return None
        if len(ds) > 1:
            raise ValueError("inhomogeneous element has no degree: %s" % self)
        return ds.pop()

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, self)


class CoeffElement(Sparse):
    """Sparse polynomial: monomial -> nonzero int.

    A monomial is one packed int (layout above ``_STORED``); the
    constant term's monomial is 0.
    """

    __slots__ = ()

    # --- constructors -------------------------------------------------

    @staticmethod
    def integer(n: int) -> "CoeffElement":
        if -_SMALL_BOUND <= n <= _SMALL_BOUND:
            return _SMALL[n + _SMALL_BOUND]
        return CoeffElement._of({0: n})

    @staticmethod
    def one() -> "CoeffElement":
        return CoeffElement({0: 1})

    @staticmethod
    def gen(key: GenKey) -> "CoeffElement":
        return CoeffElement({_power(_intern(key), 1): 1})

    # --- ring operations ----------------------------------------------
    # (the per-layer tracer of the bench harness wraps these operators in
    # this class's own namespace, so the inherited ones are bound here)

    def __add__(self, other):
        return CoeffElement.total(((self, 1), (coerce(other), 1)))

    __radd__ = __add__
    __neg__ = Sparse.__neg__
    __pow__ = Sparse.__pow__

    def __sub__(self, other):
        return self + (-coerce(other))

    def __rsub__(self, other):
        return coerce(other) + (-self)

    def __mul__(self, other):
        return CoeffElement.total(((self, coerce(other)),))

    __rmul__ = __mul__

    @staticmethod
    def total(pairs) -> "CoeffElement":
        """The sum of c * v over the (v, c) pairs, c a CoeffElement or an
        int: one ``_add_product`` step per pair into one raw dict."""
        acc = {}
        formed = False
        for v, c in pairs:
            n = c if isinstance(c, int) else c.as_int()
            if n != 0:
                formed |= _add_product(acc, v.terms, c, n)
        return _wrap(acc, formed)

    def __eq__(self, other):
        if isinstance(other, int):
            other = CoeffElement.integer(other)
        if not isinstance(other, CoeffElement):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        # a constant equals its int, so it hashes as that int
        n = self.as_int()
        return Sparse.__hash__(self) if n is None else hash(n)

    # --- grading --------------------------------------------------------

    def degrees(self) -> set:
        return {_mono_degree(m) for m in self.terms}

    def homogeneous_component(self, d: int) -> "CoeffElement":
        return CoeffElement(
            {m: c for m, c in self.terms.items() if _mono_degree(m) == d}
        )

    # --- queries --------------------------------------------------------

    def as_int(self):
        """The integer value if the element is constant, else None."""
        terms = self.terms
        if len(terms) == 1:
            return terms.get(0)
        return None if terms else 0

    def aug_symbols(self) -> list:
        """Sorted list of A-symbol keys appearing anywhere."""
        present = _decode(reduce(or_, self.terms, 0))
        return [_PUBLIC[key] for key, _ in present if key[0]]

    def has_aug_symbols(self) -> bool:
        return any(key[0] for key, _ in _decode(reduce(or_, self.terms, 0)))

    def substitute(self, assignments: dict) -> "CoeffElement":
        """Replace A-symbols by elements; keys are generator key tuples.

        Every assigned value must be zero or homogeneous of the symbol's
        degree, so substitution preserves the grading.
        """
        stored = {}
        for key, value in assignments.items():
            if key[0] != "A":
                raise ValueError("only A-symbols may be substituted: %r" % (key,))
            value = coerce(value)
            vdeg = value.degree()
            if vdeg is not None and vdeg != key[3]:
                raise ValueError(
                    "degree mismatch for %s: symbol degree %d, value degree %d"
                    % (aug_symbol_name(key), key[3], vdeg)
                )
            stored[_intern(key)] = value

        def factor(key, exp):
            if key in stored:
                return stored[key] ** exp
            return CoeffElement({_power(key, exp): 1})

        return CoeffElement.total(
            (reduce(mul, (factor(*f) for f in _decode(m)), ONE), c)
            for m, c in self.terms.items()
        )

    # --- rendering ------------------------------------------------------

    def __str__(self):
        n = self.as_int()
        if n is not None:
            return str(n)
        items = sorted(
            (_mono_degree(m), _decode(m), c) for m, c in self.terms.items()
        )
        return signed_join([weighted(c, _mono_str(m)) for _, m, c in items])


def coerce(value) -> CoeffElement:
    """value in the ring: an int as a constant, any other type but
    CoeffElement a TypeError."""
    if isinstance(value, CoeffElement):
        return value
    if isinstance(value, int):
        return CoeffElement.integer(value)
    raise TypeError("cannot coerce %r into the coefficient ring" % (value,))


def check_exponents(monos):
    """Raise ValueError if a monomial that a product formed sets a guard
    bit.  Operand exponents are below 2^63, so no slot sum carries into
    the next slot, and one past 2^63 - 1 sets its slot's guard bit."""
    if reduce(or_, monos, 0) & _GUARD:
        raise ValueError("exponent of a coefficient product is too large")


def _add_product(acc: dict, vt: dict, c, n) -> bool:
    """Add c * v into the raw {packed monomial: int} dict acc, the one
    multiply-accumulate step of the ring.  vt is v's terms; n is c's int
    value, or None.  An int c scales v's values and forms no monomial;
    any other c forms the monomial of every pair of terms, a constant v's
    too.  True if the step formed monomials."""
    if n is not None:
        for m, a in vt.items():
            acc[m] = acc.get(m, 0) + n * a
        return False
    for m1, a in c.terms.items():
        for m2, b in vt.items():
            m = m1 + m2
            acc[m] = acc.get(m, 0) + a * b
    return True


def _wrap(acc: dict, formed: bool) -> "CoeffElement":
    """The CoeffElement of a raw dict that ``_add_product`` filled.  Zero
    sums stay in acc until here, so every monomial a product formed meets
    the exponent guard, cancelled or not."""
    if formed:
        check_exponents(acc)
    if 0 in acc.values():
        acc = {m: a for m, a in acc.items() if a}
    return CoeffElement._of(acc)


def _decode(mono: int) -> list:
    """The monomial as a sorted list of (stored key, exponent >= 1)."""
    out = []
    for stored in _SLOTS:
        if not mono:
            break
        exp = mono & _EXP_MASK
        if exp:
            out.append((stored, exp))
        mono >>= 64
    out.sort()
    return out


def _mono_degree(mono: int) -> int:
    degree = 0
    for d in _DEGREES:
        if not mono:
            break
        degree += d * (mono & _EXP_MASK)
        mono >>= 64
    return degree


def is_prime(n: int) -> bool:
    """Miller-Rabin to the bases 2, 7 and 61, exact below 4,759,123,141
    (Jaeschke 1993); a base that n divides is skipped."""
    if n < 3 or n % 2 == 0:
        return n == 2
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = 2^s d, d odd
    for a in (2, 7, 61):
        x = pow(a, (n - 1) >> s, n)
        if a % n and x != 1 and all(pow(x, 1 << r, n) != n - 1 for r in range(s)):
            return False
    return True


class Point:
    """The ring map from the localized images over Z[g, A] to Z/M, M the
    product of three distinct primes in [2^29, 2^30).  The primes and the
    values of g_n, A(j;base), e_r, e_s and X(n,V) are drawn by sha512 from
    `text` and a name, never from the hash seed or the slot order.
    ``euler[V]`` is (e_V, e_V^-1), units mod M.  Calling the point
    evaluates a coefficient, ``laurent`` an image."""

    _SMALL_ODD_PRIMES = 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23 * 29 * 31 * 37 * 41 * 43 * 47

    def __init__(self, text: str):
        self.seed = _sha512(text.encode()).hexdigest()[:16]
        primes, k = set(), 0
        while len(primes) < 3:
            # the first prime at or above a draw below 2^30 - 512: prime gaps
            # below 2^30 are at most 282 (Young and Potler 1989)
            n = (1 << 29) + self._draw("prime %d" % k) % ((1 << 29) - 512) | 1
            while gcd(n, self._SMALL_ODD_PRIMES) != 1 or not is_prime(n):
                n += 2
            primes.add(n)
            k += 1
        self.primes = tuple(sorted(primes))
        self.modulus = M = reduce(mul, primes)
        self._values, self._monos = {}, {0: 1}
        e_r, e_s = (self._draw("e_" + fl) % M for fl in FLAVORS)
        while gcd(e_r * e_s, M) != 1:
            e_r, e_s = e_r + 1, e_s + 1
        inv = pow(e_r * e_s, -1, M)  # e_r^-1 = e_s (e_r e_s)^-1
        self.euler = {"r": (e_r, e_s * inv % M), "s": (e_s, e_r * inv % M)}

    def _draw(self, name: str) -> int:
        return int.from_bytes(_sha512(("%s %s" % (self.seed, name)).encode()).digest(), "big")

    def _value(self, key) -> int:  # key: a generator's slot, or (n, V) for X(n,V)
        value = self._values.get(key)
        if value is None:
            name = _gen_name(_SLOTS[key]) if type(key) is int else "X(%d,%s)" % key
            value = self._values[key] = self._draw(name) % self.modulus
        return value

    def _mono(self, mono: int) -> int:
        value = self._monos.get(mono)
        if value is None:
            # the top slot's power times the rest, mostly a memo hit
            top = (mono.bit_length() - 1) // 64
            exp = mono >> 64 * top
            gen = pow(self._value(top), exp, self.modulus)
            value = self._monos[mono] = self._mono(mono - (exp << 64 * top)) * gen % self.modulus
        return value

    def __call__(self, c: CoeffElement) -> int:
        monos, total = self._monos, 0
        for m, a in c.terms.items():
            total += a * (monos.get(m) or self._mono(m))
        return total % self.modulus

    def laurent(self, p) -> int:
        """The residue of an image: monomial (a, b, xs) is e_r^a e_s^b prod(xs)."""
        M, e_r, e_s, total = self.modulus, self.euler["r"], self.euler["s"], 0
        for (a, b, xs), c in p.terms.items():
            value = pow(e_r[a < 0], abs(a), M) * pow(e_s[b < 0], abs(b), M) * self(c)
            for x in xs:
                value = value * self._value(x) % M
            total += value
        return total % M


def _mono_str(mono) -> str:
    factors = []
    for key, exp in mono:
        name = _gen_name(key)
        factors.append(name if exp == 1 else "%s^%d" % (name, exp))
    return "*".join(factors)


# one shared instance per small constant: the Laurent products make a
# constant coefficient for every term, and most of them are small
_SMALL_BOUND = 16
_SMALL = [
    CoeffElement._of({0: n}) if n else CoeffElement()
    for n in range(-_SMALL_BOUND, _SMALL_BOUND + 1)
]
ZERO = CoeffElement.zero()
ONE = CoeffElement.integer(1)


def cp(n: int) -> CoeffElement:
    """The designated degree-2n projective-space class; cp(0) = 1."""
    if n < 0:
        raise ValueError("cp index must be >= 0")
    if n == 0:
        return ONE
    return CoeffElement.gen(("g", n))


def aug_symbol(j: int, base: str) -> CoeffElement:
    return CoeffElement.gen(aug_symbol_key(j, base))


def aug_symbol_name(key: GenKey) -> str:
    return _gen_name(_intern(key))


# --- parsing and printing ----------------------------------------------


class CoeffParseError(ValueError):
    pass


def check_flavor(flavor: str) -> str:
    """flavor itself, if it names one of the two circle characters."""
    if flavor not in FLAVORS:
        raise ValueError("flavor must be 'r' or 's', got %r" % (flavor,))
    return flavor


class _Scanner:
    """Shared tokenizer and expression-grammar skeleton.

    The coefficient, term and manifold parsers all run on these rules:
    ``parse`` (whole input), ``signed`` (sums), ``joined`` (products),
    ``power`` (``^n``), ``closed`` (``... )`` after an opener) and
    ``indexed`` (``n,flavor)``).  Each language supplies only its atoms
    and what a sum, product and power build.  The rules raise
    CoeffParseError, which ``parse`` re-raises as the language's error.
    """

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def startswith(self, token: str) -> bool:
        self.skip_ws()
        return self.text.startswith(token, self.pos)

    def take(self, token: str) -> bool:
        if self.startswith(token):
            self.pos += len(token)
            return True
        return False

    def expect(self, token: str):
        if not self.take(token):
            raise CoeffParseError(
                "expected %r at position %d in %r" % (token, self.pos, self.text)
            )

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        if self.pos < len(self.text) and self.text[self.pos] in "+-":
            self.pos += 1
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start or self.text[start:self.pos] in ("+", "-"):
            raise CoeffParseError(
                "expected integer at position %d in %r" % (start, self.text)
            )
        return int(self.text[start:self.pos])

    def flavor(self) -> str:
        """One flavor letter, r or s."""
        for fl in FLAVORS:
            if self.take(fl):
                return fl
        raise CoeffParseError(
            "flavor must be r or s at position %d in %r" % (self.pos, self.text)
        )

    def done(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    # --- grammar rules ----------------------------------------------------

    def parse(self, rule, error):
        """rule over the whole text; any ValueError is re-raised as error."""
        try:
            value = rule(self)
            if not self.done():
                raise error(
                    "trailing input at position %d in %r" % (self.pos, self.text)
                )
            return value
        except error:
            raise
        except ValueError as exc:
            raise error(str(exc)) from None

    def _sign(self) -> int:
        return 1 if self.take("+") else -1 if self.take("-") else 0

    def signed(self, item) -> list:
        """['-'|'+'] item (('+'|'-') item)*, as [(sign, part)]."""
        parts = []
        sign = self._sign() or 1
        while sign:
            parts.append((sign, item(self)))
            sign = self._sign()
        return parts

    def joined(self, item, *seps) -> list:
        """item (sep item)*, as a list of parts."""
        parts = [item(self)]
        while any(self.take(sep) for sep in seps):
            parts.append(item(self))
        return parts

    def power(self, atom, raise_to):
        """atom ['^' n]; raise_to(value, n) builds the power, 0 <= n <= maxsize."""
        value = atom(self)
        if not self.take("^"):
            return value
        n = self.integer()
        if n < 0:
            raise CoeffParseError("negative exponent %d" % n)
        if n > sys.maxsize:
            raise CoeffParseError("exponent %d is too large" % n)
        return raise_to(value, n)

    def closed(self, inner):
        """inner ')', read after an opener."""
        value = inner(self)
        self.expect(")")
        return value

    def indexed(self) -> tuple:
        """n ',' flavor ')' with n >= 1, read after an opener such as 'Z('."""
        n = self.integer()
        self.expect(",")
        flavor = self.flavor()
        self.expect(")")
        if n < 1:
            raise CoeffParseError("index must be >= 1, got %d" % n)
        return n, flavor


def signed_join(texts: list) -> str:
    """Summand texts as ``_Scanner.signed`` reads them back: ['a', '-b',
    'c'] joins to 'a - b + c'; no summands join to ''."""
    if not texts:
        return ""
    return texts[0] + "".join(
        " - " + t[1:] if t.startswith("-") else " + " + t for t in texts[1:]
    )


def weighted(w: int, body: str) -> str:
    """Text of w times body: 'body', '-body', '3*body', '-3*body' (and
    '-0*body'); the integer alone when body is empty."""
    if not body:
        return str(w)
    text = body if abs(w) == 1 else "%d*%s" % (abs(w), body)
    return text if w > 0 else "-" + text


def parse_coeff(text: str) -> CoeffElement:
    """Parse the canonical text form, e.g. ``3*g1^2*g2 - A(1;P) + 2``."""
    return _Scanner(text).parse(_parse_coeff_sum, CoeffParseError)


def _parse_coeff_sum(sc: _Scanner) -> CoeffElement:
    return CoeffElement.total((p, s) for s, p in sc.signed(_parse_coeff_product))


def _parse_coeff_product(sc: _Scanner) -> CoeffElement:
    return reduce(mul, sc.joined(lambda sc: sc.power(parse_coeff_atom, pow), "*"))


def parse_coeff_atom(sc: _Scanner) -> CoeffElement:
    """One coefficient atom: integer, g<n>, A(j;base), or parenthesis."""
    if sc.take("("):
        return sc.closed(_parse_coeff_sum)
    if sc.peek().isdigit():
        return CoeffElement.integer(sc.integer())
    if sc.take("g"):
        n = sc.integer()
        if n < 1:
            raise CoeffParseError("g-generator index must be >= 1")
        return cp(n)
    if sc.take("A("):
        j = sc.integer()
        if j < 1:
            raise CoeffParseError("A-symbol star depth must be >= 1")
        sc.expect(";")
        if sc.take("P"):
            base = "P"
        elif sc.take("Z("):
            base = "Z(%d,%s)" % sc.indexed()
        else:
            raise CoeffParseError("unknown A-symbol base at position %d" % sc.pos)
        sc.expect(")")
        return aug_symbol(j, base)
    raise CoeffParseError(
        "expected coefficient atom at position %d in %r" % (sc.pos, sc.text)
    )


def is_coeff_atom_start(sc: _Scanner) -> bool:
    ch = sc.peek()
    return ch.isdigit() or sc.startswith("g") or sc.startswith("A(")
