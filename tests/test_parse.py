"""The three expression parsers: results pinned over seeded corpora, and a
token-level property that every text parses or raises the parser's own
error class.  The X-presentation text of the seeded corpora is pinned
too."""

import hashlib
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfb.coeff import CoeffParseError, parse_coeff
from sfb.engine import lambda_term, random_term
from sfb.manifold import (
    ManifoldParseError,
    lambda_manifold,
    parse_manifold,
    random_manifold,
)
from sfb.terms import TermParseError, parse_term, term_text

from oracles import manifold_text

PARSERS = {
    "coeff": (parse_coeff, CoeffParseError),
    "term": (parse_term, TermParseError),
    "manifold": (parse_manifold, ManifoldParseError),
}

HAND = {
    "coeff": [
        "0", "5", "-3", "+3", "g2", "-g1 + 2", "+g1 - g2", "g1^0", "(g1 + 1)*(g1 - 1)",
        "2*g1^2 - g2", "(2)^3", "A(1;P)", "A(2;Z(3,s))", "A( 1 ; Z( +2 , r ) )",
        "3*A(1;P)^2*g1 - (A(1;Z(1,r)) - 1)^2", "g1^-1", "g0", "A(0;P)", "A(1;Z(0,r))",
        "A(1;Q)", "2*", "(g1", "g1)", "", "g1 g2",
    ],
    "term": [
        "e_r", "-e_r", "+e_s", "e_r^0", "e_r^3", "G_r(e_s)^2", "-G_s(e_r)^0",
        "2*Z(3,s) - e_r", "sigma(g1 + 2)*e_r", "sigma(-g1)", "bar(G_r(e_s))",
        "(e_r + e_s)*(e_r - e_s)", "5", "g1*A(1;P)", "Z(+2,r)", "A(1;Z(2,s))*e_r",
        "e_r^-1", "Z(0,r)", "Z(2)", "e_q", "G_r(", "bar", "e_r e_s", "(e_r", "",
    ],
    "manifold": [
        "pt", "-pt", "+pt", "5", "-5", "2 x 3 x P(1,s)", "2*pt", "P(1,r)^0", "P(1,r)^3",
        "P(1,r) * P(1,s) x pt", "gamma(P(2,r))", "gammas(P(1,s) x P(1,s))",
        "3*P(1,r) - 2*pt", "2*(P(1,r) + pt)", "-(P(1,r) - pt)^2", "gamma(2 x pt - 3)",
        "P(+2,s)", "2^3", "P(1,r)^-1", "P(0,r)", "P(1,q)", "gamma(", "P(1,r) +", "qq", "",
    ],
}

# (atoms, one-hole wrappers, product separators) of each language
GRAMMAR = {
    "coeff": (
        ["0", "1", "2", "17", "g1", "g3", "A(1;P)", "A(2;Z(1,r))", "A(1;Z(2,s))"],
        ["(%s)"],
        ["*", " * "],
    ),
    "term": (
        ["e_r", "e_s", "Z(1,r)", "Z(2,s)", "2", "g1", "A(1;P)", "sigma(g1 - 2*A(1;P))"],
        ["(%s)", "G_r(%s)", "G_s(%s)", "bar(%s)"],
        ["*", " * "],
    ),
    "manifold": (
        ["pt", "P(1,r)", "P(2,s)", "2", "3"],
        ["(%s)", "gamma(%s)", "gammas(%s)"],
        ["*", " x ", "x"],
    ),
}


def grammar_text(rng, language, depth=2):
    """A random text over the sum/product/power/parenthesis skeleton."""
    atoms, wrappers, seps = GRAMMAR[language]

    def sum_(d):
        out = rng.choice(["", "-", "+"]) + product(d)
        for _ in range(rng.randrange(3)):
            out += rng.choice([" + ", " - ", "-"]) + product(d)
        return out

    def product(d):
        out = power(d)
        for _ in range(rng.randrange(3)):
            out += rng.choice(seps) + power(d)
        return out

    def power(d):
        if d > 0 and rng.random() < 0.4:
            body = rng.choice(wrappers) % sum_(d - 1)
        else:
            body = rng.choice(atoms)
        if body.isdigit() or rng.random() < 0.8:
            return body
        return body + "^%d" % rng.randrange(4)

    return sum_(depth)


def corpora():
    """(texts per language, X-presentation images of the seeded expressions)."""
    rng = random.Random(8)
    terms = [random_term(rng, depth=3, max_z=4) for _ in range(150)]
    manifolds = [random_manifold(rng, depth=3) for _ in range(150)]
    images = [lambda_term(t) for t in terms] + [lambda_manifold(m) for m in manifolds]
    texts = {lang: list(cases) for lang, cases in HAND.items()}
    texts["term"] += [term_text(t) for t in terms]
    texts["manifold"] += [manifold_text(m) for m in manifolds]
    texts["coeff"] += sorted({str(c) for image in images for c in image.terms.values()})
    for lang in texts:
        texts[lang] += [grammar_text(rng, lang) for _ in range(150)]
    return texts, images


def outcome(lang, text):
    parse, error = PARSERS[lang]
    try:
        return repr(parse(text))
    except error as exc:
        return "!" + type(exc).__name__


# recorded before the parsers shared one grammar skeleton; "term" was
# re-recorded when the printer began to print prod(-1, -2) as "-(-2)"
# instead of "--2", which turned one printed text from a parse error
# into a parse; "coeff" was re-recorded when A(j;Z(1,V)) began to parse
# as A(j;P), which changed the 93 outcomes whose text names A(j;Z(1,r))
PINNED = {
    "coeff": "e0883b0627caf6c64f9dda688d9c007ef72717dc76d294b90ff82dda253a668b",
    "term": "f72083a81c685973aaaff225936d2d044267b56037dc0ea06e4f9315657e6ed2",
    "manifold": "dd86c7f5e927aaa383ffe704fe9e4259dd08ac3702e8c88f9cf50c9caca6782c",
}


# str() of lambda_term over the seeded terms, then of lambda_manifold over
# the seeded manifolds; recorded before the signed-sum printers shared one
# joiner
PINNED_X_TEXT = "70752ebb4bde6b1d9eba6078f3de8402e20eb12a4de73aae97a5cbb288a559b8"


@pytest.fixture(scope="module")
def corpus():
    return corpora()


@pytest.mark.parametrize("lang", sorted(PARSERS))
def test_parse_results_are_pinned(corpus, lang):
    texts, _ = corpus
    outcomes = "\n".join("%r -> %s" % (text, outcome(lang, text)) for text in texts[lang])
    assert hashlib.sha256(outcomes.encode()).hexdigest() == PINNED[lang]


def test_x_presentation_text_is_pinned(corpus):
    _, images = corpus
    text = "\n".join(str(image) for image in images)
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_X_TEXT


# Texts are token sequences joined by spaces, so digits never run together:
# every exponent is at most 3 or past sys.maxsize, and each example stays
# cheap.  They are grown like the grammar (operators, openers, powers) from
# leaves that are atoms or stray tokens, so most of them reach a "^".
BIG = "99999999999999999999"
assert int(BIG) > sys.maxsize
STRAY = ["(", ")", ",", ";", "^", "*", "+", "-", "r", "s", "x", "g", "A(", "Z(", "P("]
ATOMS = {
    "coeff": ["0", "3", BIG, "g 2", "A( 1 ; P )", "A( 1 ; Z( 1 , s ) )"],
    "term": ["0", "3", BIG, "g 2", "A( 1 ; P )", "e_r", "e_s", "Z( 2 , r )"],
    "manifold": ["0", "3", BIG, "pt", "P( 1 , s )", "P( 2 , r )"],
}
OPENERS = {
    "coeff": ["("],
    "term": ["(", "G_r(", "G_s(", "bar(", "sigma("],
    "manifold": ["(", "gamma(", "gammas("],
}
OPERATORS = {"coeff": "+-*", "term": "+-*", "manifold": "+-*x"}
EXPONENTS = ["0", "2", "3", "-1", BIG]


def token_texts(lang):
    def grow(inner):
        return st.one_of(
            st.tuples(inner, st.sampled_from(OPERATORS[lang]), inner),
            st.tuples(st.sampled_from(["-", "+"]), inner),
            st.tuples(st.sampled_from(OPENERS[lang]), inner, st.just(")")),
            st.tuples(inner, st.just("^"), st.sampled_from(EXPONENTS)),
        ).map(" ".join)

    leaves = st.sampled_from(ATOMS[lang] + STRAY)
    return st.recursive(leaves, grow, max_leaves=8)


@pytest.mark.parametrize("lang", sorted(PARSERS))
def test_every_text_parses_or_raises_the_parse_error(lang):
    parse, error = PARSERS[lang]

    @given(token_texts(lang))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def check(text):
        try:
            parse(text)
        except error:
            pass

    check()
