"""Unit tests for the greedy join-order heuristic."""

from repro.cq.backends.plan import order_atoms
from repro.cq.parser import parse_query


def atoms_of(text):
    return parse_query(text).body


def test_order_preserves_atom_multiset():
    body = atoms_of("Q(X) :- R(X, Y), S(Y2, Z), T0(Z2, W).")
    ordered = order_atoms(body)
    assert sorted(a.relation for a in ordered) == sorted(
        a.relation for a in body
    )


def test_connected_atoms_follow_their_binders():
    """After the first atom, atoms sharing variables are preferred over
    disconnected ones (avoiding cross products when possible)."""
    body = atoms_of("Q(X) :- R(X, Y), Disconnected(U, V), S(Y, Z).")
    ordered = order_atoms(body)
    positions = {a.relation: i for i, a in enumerate(ordered)}
    # S shares Y with R; Disconnected shares nothing — S must not be last.
    assert positions["S"] < positions["Disconnected"] or positions["R"] > positions["S"]


def test_single_atom_unchanged():
    body = atoms_of("Q(X) :- R(X, Y).")
    assert order_atoms(body) == list(body)


def test_order_is_deterministic():
    body = atoms_of("Q(X) :- R(X, Y), S(Y2, Z), T0(Z2, W), R(A, B).")
    assert order_atoms(body) == order_atoms(body)
