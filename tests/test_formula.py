import pytest

from onlyknow import k45
from onlyknow.corpus import generate_random
from onlyknow.formula import (
    And,
    Atom,
    FALSE,
    L,
    N,
    Not,
    Or,
    ParseError,
    TRUE,
    Val,
    ValPresentError,
    assign,
    atoms,
    build_independent,
    classify,
    in_onl_minus,
    is_i_objective,
    modal_depth,
    only_knows,
    parse,
    to_text,
    walk,
)

p, q = Atom("p"), Atom("q")


def test_only_knowing_expands_at_parse_time():
    assert parse("O1 p", 2) == And(L(1, p), N(1, Not(p)))


def test_double_negation_kept_verbatim():
    assert parse("~~p") == Not(Not(p))


def test_unary_binds_tighter_than_and():
    assert parse("L1 p & N2 (p | q)", 2) == And(L(1, p), N(2, Or(p, q)))


def test_constants_and_con_sugar():
    assert parse("true & false") == And(TRUE, FALSE)
    assert parse("C p") == Not(Val(Not(p)))


def test_implication_is_right_associative():
    f = parse("p -> q -> r")
    assert f.left == p and f.right == parse("q -> r")


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse("p & & q")
    assert err.value.position == 4


def test_agent_index_out_of_range():
    with pytest.raises(ParseError):
        parse("L3 p", 2)
    with pytest.raises(ParseError):
        parse("L0 p", 2)
    parse("L3 p")  # unconstrained when no count is declared


@pytest.mark.parametrize(
    "text",
    ["(L1 p) & q", "N2 ~p", "V p", "O1 p", "p | q & r", "p <-> q <-> r", "~(p -> q)"],
)
def test_print_round_trip_examples(text):
    f = parse(text, 2)
    assert parse(to_text(f), 2) == f


def test_print_round_trip_random():
    for seed in range(300):
        f = generate_random(seed, "full", max_modal_depth=3, n_atoms=3, n_agents=2)
        assert parse(to_text(f), 2) == f


def test_printer_folds_only_knowing():
    assert to_text(only_knows(2, And(p, q))) == "O2 (p & q)"


def test_nested_only_knowing_round_trips():
    f = only_knows(1, only_knows(2, p))
    assert to_text(f) == "O1 O2 p"
    assert parse(to_text(f), 2) == f
    g = And(only_knows(1, p), Not(only_knows(2, q)))
    assert parse(to_text(g), 2) == g


def test_classify_objective_examples():
    f = parse("q & N2 L1 p", 2)
    assert classify(f, 1).i_objective is True
    assert classify(parse("L1 p", 2), 1).i_objective is False
    assert classify(parse("q & L1 p", 2), 1).i_objective is False


def test_classify_subjective_and_constants():
    assert classify(parse("L1 p & ~N1 q", 2), 1).i_subjective is True
    assert classify(parse("p", 2), 1).i_subjective is False
    both = classify(TRUE, 1)
    assert both.i_objective and both.i_subjective


def test_onl_minus_membership():
    assert in_onl_minus(parse("N1 L2 N1 p", 2)) is False
    assert in_onl_minus(parse("N1 N2 p", 2)) is False
    assert in_onl_minus(parse("N1 L1 ~N1 p", 2)) is True
    assert in_onl_minus(parse("N1 (L2 p | N1 ~p)", 2)) is True
    assert in_onl_minus(parse("V p", 2)) is False


def test_classify_stable_under_double_negation():
    for seed in range(60):
        f = generate_random(seed, "full", max_modal_depth=2, n_atoms=2, n_agents=2)
        a, b = classify(f, 1), classify(Not(Not(f)), 1)
        assert (a.propositional, a.basic, a.i_objective, a.i_subjective, a.in_onl_minus) == (
            b.propositional,
            b.basic,
            b.i_objective,
            b.i_subjective,
            b.in_onl_minus,
        )
        assert a.modal_depth == b.modal_depth


def test_objective_formulas_have_no_own_modality_at_top_level():
    for seed in range(120):
        f = generate_random(seed, "full", max_modal_depth=3, n_atoms=3, n_agents=2, allow_val=False)
        if not is_i_objective(f, 1):
            continue

        def top_level_own(g):
            if isinstance(g, (L, N)):
                return [g] if g.agent == 1 else []
            out = []
            if isinstance(g, Not):
                out += top_level_own(g.sub)
            if hasattr(g, "left"):
                out += top_level_own(g.left) + top_level_own(g.right)
            return out

        assert top_level_own(f) == []


def test_modal_depth_examples():
    assert modal_depth(p) == 0
    assert modal_depth(parse("L2 L1 L2 L1 p", 2)) == 4
    assert modal_depth(parse("p & L1 q", 2)) == 1
    assert modal_depth(parse("N1 p", 2)) == 1
    with pytest.raises(ValPresentError):
        modal_depth(parse("V p"))


def test_classify_reports_no_depth_for_val_formulas():
    assert classify(parse("V p"), 1).modal_depth is None
    assert classify(parse("L1 p", 1), 1).modal_depth == 1


def test_build_independent_shape():
    assert build_independent(1, 2, 1, "p") == parse("L2 L1 L2 L1 p", 2)
    assert build_independent(2, 2, 0, "p") == parse("L1 L2 p", 2)
    with pytest.raises(Exception):
        build_independent(1, 1, 0, "p")


def _chain_room(i, j, bound):
    """The alternating j,i,j,... belief chain can stay nonempty down to
    depth 2(bound+1).  A formula forcing an empty set along that chain
    (say L2 false, or L2 L1 false) entails every deeper L2... statement,
    so nothing of that shape can be independent of it."""
    parts = []
    prefix = []
    for step in range(2 * (bound + 1)):
        prefix.append(j if step % 2 == 0 else i)
        g = FALSE
        for a in reversed(prefix):
            g = L(a, g)
        parts.append(Not(g))
    out = parts[0]
    for extra in parts[1:]:
        out = And(out, extra)
    return out


def test_build_independent_is_independent():
    # depth bound 0 and the side formula q: both conjunctions stay satisfiable
    psi = build_independent(1, 2, 0, "p")
    assert k45.independent(q, psi)
    # random shallow basic 1-objective formulas of depth <= bound, among
    # those that leave the alternating belief chain realizable
    checked = 0
    for seed in range(400):
        f = generate_random(seed, "basic", max_modal_depth=2, n_atoms=2, n_agents=2, size=5)
        if not is_i_objective(f, 1) or not k45.sat(f):
            continue
        bound = modal_depth(f)
        if not k45.sat(And(f, _chain_room(1, 2, bound))):
            continue
        psi = build_independent(1, 2, bound, "p")
        assert k45.independent(f, psi), to_text(f)
        checked += 1
    assert checked >= 100


def test_build_independent_degenerate_chain_counterexample():
    # An agent that believes false believes everything, including the
    # independence formula, so the proviso above is not vacuous.
    phi = L(2, FALSE)
    psi = build_independent(1, 2, modal_depth(phi), "p")
    assert not k45.independent(phi, psi)


def test_atoms_and_walk():
    f = parse("L1 (p & q) | V r", 2)
    assert atoms(f) == {"p", "q", "r"}
    assert any(isinstance(g, Val) for g in walk(f))


def test_assign_replaces_boolean_level_leaves_only():
    f = parse("~p & (L1 p -> q)", 1)
    assert assign(f, {p: True}) == And(FALSE, parse("L1 p -> q", 1))
    assert assign(f, {L(1, p): False}) == And(Not(p), parse("false -> q", 1))
    # a subtree with nothing decided comes back as the same object
    g = assign(f, {q: True})
    assert g.left is f.left and g.right.left is f.right.left
    assert assign(f, {Atom("r"): True}) is f
