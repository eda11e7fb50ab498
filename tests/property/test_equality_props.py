"""Property tests: equality-class resolution against its first definition."""

from hypothesis import given, strategies as st

from repro.cq.equality import EqualityStructure
from repro.cq.syntax import Atom, ConjunctiveQuery, Constant, Variable
from repro.relational.domain import Value
from repro.utils.unionfind import UnionFind

NAMES = ["A", "B", "X", "Y", "Z", "Z2", "a", "b", "v0", "v10", "v2"]
CONSTANTS = [Constant(Value("T", 1)), Constant(Value("T", 2))]


def reference_resolve(query, term):
    """``resolve`` as first written: scan the term's class on every call."""
    uf = UnionFind()
    for body_atom in query.body:
        for t in body_atom.terms:
            uf.add(t)
    for left, right in query.equalities:
        uf.union(left, right)
    constants = {}
    for t in list(uf):
        if isinstance(t, Constant):
            constants[uf.find(t)] = t.value
    pinned = term.value if isinstance(term, Constant) else constants.get(uf.find(term))
    if pinned is not None:
        return Constant(pinned)
    cls_vars = sorted(
        (t for t in uf.class_of(term) if isinstance(t, Variable)),
        key=lambda v: v.name,
    )
    return cls_vars[0] if cls_vars else term


@st.composite
def queries(draw):
    names = draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=6, unique=True))
    variables = [Variable(name) for name in names]
    terms = variables + CONSTANTS
    body_constants = draw(st.lists(st.sampled_from(CONSTANTS), max_size=2))
    equalities = draw(
        st.lists(st.tuples(st.sampled_from(terms), st.sampled_from(terms)), max_size=8)
    )
    head = Atom("Q", (variables[0],))
    body = [Atom("R", tuple(variables) + tuple(body_constants))]
    return ConjunctiveQuery(head, body, equalities)


@given(queries())
def test_resolve_matches_the_class_scan(query):
    structure = EqualityStructure(query)
    unseen = [Variable("unseen"), Constant(Value("T", 9))]
    mentioned = {t for a in query.body for t in a.terms}
    mentioned.update(t for pair in query.equalities for t in pair)
    for term in sorted(mentioned, key=repr) + unseen:
        assert structure.resolve(term) == reference_resolve(query, term), term
