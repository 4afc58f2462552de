"""Property-based parser tests: on any text, ``parse_off``, ``parse_obj``
and ``parse_atoms`` return a mesh or an atom list, or raise a
``DecimeshError`` subclass, never anything else. Header counts and face
indices are drawn up to 10**18, so a file that claims more rows than it
holds must fail with a typed error before any array of the claimed size
is allocated."""

from hypothesis import given, settings
from hypothesis import strategies as st

from decimesh import parse_atoms, parse_obj, parse_off
from decimesh.errors import DecimeshError

# fixed examples and no example database: the same cases on every run
FUZZ = settings(max_examples=150, deadline=None, derandomize=True, database=None)

COUNT = st.one_of(st.integers(-2, 12), st.integers(0, 10**18))
INT = st.one_of(st.integers(-3, 12), st.integers(-10**18, 10**18)).map(str)
FLOAT = st.floats(allow_nan=True, allow_infinity=True).map(repr)
JUNK = st.sampled_from(["", "x", "nan", "1e999", "#", "3/1/2", "-", "0x10", "1_0"])
TOKEN = st.one_of(INT, FLOAT, JUNK)


def tokens(n):
    return st.lists(TOKEN, min_size=n, max_size=n).map(" ".join)


LINE = st.one_of(
    st.integers(0, 6).flatmap(tokens),
    st.sampled_from(["", "# comment", "   "]),
    st.text(max_size=12),
)


def parses_or_raises_typed(parse, text):
    try:
        parse(text)
    except DecimeshError:
        pass


@st.composite
def off_texts(draw):
    header = draw(st.sampled_from(["OFF", "OFF", "off", "COFF"]))
    counts = " ".join(str(draw(COUNT)) for _ in range(draw(st.sampled_from([3, 3, 2]))))
    vertex = tokens(3)
    face = st.one_of(tokens(3).map(lambda s: "3 " + s), tokens(4))
    body = draw(st.lists(st.one_of(vertex, face, LINE), max_size=14))
    return "\n".join([header, counts, *body]) + draw(st.sampled_from(["", "\n"]))


@st.composite
def obj_texts(draw):
    vertex = tokens(3).map(lambda s: "v " + s)
    face = st.integers(2, 5).flatmap(tokens).map(lambda s: "f " + s)
    body = draw(st.lists(st.one_of(vertex, face, LINE), max_size=14))
    return "\n".join(body)


@FUZZ
@given(off_texts())
def test_parse_off_returns_mesh_or_typed_error(text):
    parses_or_raises_typed(parse_off, text)


@FUZZ
@given(obj_texts())
def test_parse_obj_returns_mesh_or_typed_error(text):
    parses_or_raises_typed(parse_obj, text)


@FUZZ
@given(st.lists(st.one_of(tokens(5), LINE), max_size=8).map("\n".join))
def test_parse_atoms_returns_atoms_or_typed_error(text):
    parses_or_raises_typed(parse_atoms, text)
