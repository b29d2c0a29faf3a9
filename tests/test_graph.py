import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netosc import build_matrices, from_edges
from netosc.errors import (
    DuplicateEdge,
    EmptyGraph,
    GraphTooLarge,
    InputError,
    NonPositiveWeight,
    ParseError,
    SelfLoop,
)
from netosc import graph
from netosc.graph import WeightedDigraph, load_edge_list, parse_edge_list

from conftest import (
    from_edges_loops, parse_edge_list_loops, random_digraph, ring3, square_bytes, to_edge_list,
    traced_peak,
)


def test_minimal_two_node_graph():
    g = parse_edge_list("a,b,1.0\nb,a,1.0")
    assert g.n == 2
    assert len(g.edges) == 2


def test_self_loop_rejected():
    with pytest.raises(SelfLoop):
        parse_edge_list("a,a,1.0")


def test_default_weight_is_one():
    g = parse_edge_list("a,b\nb,c\nc,a")
    assert g.n == 3
    assert all(w == 1.0 for _, _, w in g.edges)


def test_tab_separated_and_comments():
    g = parse_edge_list("# header\na\tb\t2.5\n\nb\ta\t2.5  # inline\n")
    assert g.n == 2
    assert g.edges[0][2] == 2.5


def test_duplicate_edge_rejected():
    with pytest.raises(DuplicateEdge):
        parse_edge_list("a,b,1\na,b,2")


def test_zero_weight_rejected():
    with pytest.raises(NonPositiveWeight):
        parse_edge_list("a,b,0")


@pytest.mark.parametrize("weight", ["inf", "-inf", "nan"])
def test_non_finite_weight_rejected(weight):
    with pytest.raises(NonPositiveWeight):
        parse_edge_list(f"a,b,{weight}")
    with pytest.raises(NonPositiveWeight):
        from_edges([("a", "b", float(weight))])


def test_malformed_line():
    with pytest.raises(ParseError) as exc:
        parse_edge_list("a,b,1\noops")
    assert exc.value.line_no == 2


def test_non_numeric_weight():
    with pytest.raises(ParseError):
        parse_edge_list("a,b,heavy")


def test_build_matrices_symmetric_pair():
    g = parse_edge_list("a,b,1\nb,a,1")
    A, D, L = build_matrices(g)
    assert np.array_equal(L, [[1, -1], [-1, 1]])


def test_build_matrices_sink_row_zero():
    g = parse_edge_list("1,2,1")
    _, _, L = build_matrices(g)
    assert np.array_equal(L, [[1, -1], [0, 0]])


def test_build_matrices_large_finite_weights():
    g = parse_edge_list("a,b,1e6\nb,a,1\na,c,3.3\nc,a,1\nc,b,0.1\nb,c,7")
    A, D, L = build_matrices(g)
    assert np.array_equal(L, D - A)
    assert np.abs(L.sum(axis=1)).max() <= 1e-12 * np.abs(L).max()


def test_build_matrices_directed_ring():
    _, _, L = build_matrices(ring3())
    assert np.array_equal(L, [[1, -1, 0], [0, 1, -1], [-1, 0, 1]])


def test_the_dense_budget_is_checked_before_anything_is_allocated(monkeypatch):
    n = 1000  # one n x n array would be 8 MB
    g = from_edges([(str(i), str((i + 1) % n)) for i in range(n)])
    monkeypatch.setattr(graph, "DENSE_BYTES", square_bytes(n) - 1)

    def refused():
        for build in (graph.laplacian, graph.build_matrices, WeightedDigraph.adjacency):
            with pytest.raises(GraphTooLarge):
                build(g)

    # the warm-up builds g's edge arrays; the bound is 2^20 B
    assert traced_peak(refused) < 0.131072 * square_bytes(n)


def test_laplacian_row_sums_zero(rng):
    for _ in range(20):
        g = random_digraph(rng, int(rng.integers(2, 15)))
        A, D, L = build_matrices(g)
        assert np.abs(L.sum(axis=1)).max() <= 1e-12
        assert np.all(np.diag(A) == 0)
        assert np.all(A >= 0)
        assert np.allclose(L, D - A)


def test_edge_list_round_trip(tmp_path, rng):
    g = random_digraph(rng, 8)
    text = to_edge_list(g)
    p = tmp_path / "g.csv"
    p.write_text(text)
    assert to_edge_list(load_edge_list(p)) == text


def test_from_edges_empty():
    with pytest.raises(EmptyGraph):
        from_edges([])


@pytest.mark.parametrize(
    ("edges", "error", "line_no"),
    [
        ([("a", "b"), ("b",)], ParseError, 2),
        ([("a", "b", "x")], ParseError, 1),
        ([("a", "b", None)], ParseError, 1),
        ([("a", "b"), ("b", "a", 1.0, 2.0)], ParseError, 2),
        ([("a", "b"), ("b", "c"), ("c", "a", -1.0)], NonPositiveWeight, 3),
    ],
)
def test_from_edges_errors_carry_the_tuple_number(edges, error, line_no):
    with pytest.raises(error) as exc:
        from_edges(edges)
    assert exc.value.line_no == line_no


@pytest.mark.parametrize(
    ("edges", "line_no"),
    [([5], 1), (["ab"], 1), ([b"ab"], 1), ([("a", "b"), "ba"], 2), ([("a", "b"), None], 2)],
)
def test_from_edges_rejects_rows_that_are_not_field_sequences(edges, line_no):
    with pytest.raises(ParseError) as exc:
        from_edges(edges)
    assert exc.value.line_no == line_no


ROW_WEIGHTS = [0.0, -1.0, float("nan"), float("inf"), "x", 1e-320, 1e-12, 1.0, 2.5, 1e308]


@st.composite
def edge_row(draw):
    """A 1- to 4-field row: two labels, then weights, as tuple or text line."""
    labels = st.sampled_from(["a", "b", "c"])
    size = draw(st.integers(1, 4))
    fields = [draw(labels) for _ in range(min(size, 2))]
    return tuple(fields + [draw(st.sampled_from(ROW_WEIGHTS)) for _ in range(size - 2)])


@given(rows=st.lists(edge_row(), max_size=6))
def test_tuples_and_text_follow_one_rule_set(rows):
    text = "".join(",".join(str(f) for f in row) + "\n" for row in rows)
    try:
        want = parse_edge_list(text)
    except InputError as exc:
        with pytest.raises(type(exc)) as got:
            from_edges(rows)
        assert getattr(got.value, "line_no", None) == getattr(exc, "line_no", None)
    else:
        assert from_edges(rows) == want


def outcome(build, arg):
    """The graph build(arg) returns, or the class and message of its input error."""
    try:
        return build(arg)
    except InputError as exc:
        return type(exc), str(exc)


LABELS = ["a", "b", "c", "é", "节点", "x y"]
WEIGHT_TEXTS = ["1", "2.5", " 3 ", "1e-320", "1_0", "0", "-1", "nan", "inf", "-inf", "1e400", "abc"]
SEPARATORS = [",", ",", "\t", " , ", ",,", "\t,", ", \t"]
LINE_ENDS = ["\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
COMMENTS = ["", "", "", "# note", "  # a,b,1", "#\t#,"]


@st.composite
def edge_list_text(draw):
    """Edge-list text: mostly edge rows, some with a fault, and blank, comma-only and
    comment lines, under every line end."""
    lines = []
    for _ in range(draw(st.integers(0, 8))):
        fields = draw(st.lists(st.sampled_from(LABELS), min_size=2, max_size=2, unique=True))
        shape = draw(st.sampled_from(["two"] * 4 + ["three"] * 5 + ["self-loop", "one", "four"]))
        if shape == "self-loop":
            fields[1] = fields[0]
        if shape in ("three", "four"):
            # a valid weight (the first five) far more often than a faulty one
            fields.append(draw(st.sampled_from(WEIGHT_TEXTS[:5] * 8 + WEIGHT_TEXTS[5:])))
        if shape == "four":
            fields.append("1")
        if shape == "one":
            fields.pop()
        sep = draw(st.sampled_from(SEPARATORS))
        line = draw(st.sampled_from(["", " ", ",", "\t"])) + sep.join(fields)
        line = draw(st.sampled_from([line] * 12 + ["", " \t ", ",", " , "]))
        lines.append(line + draw(st.sampled_from(COMMENTS)) + draw(st.sampled_from(LINE_ENDS)))
    return "".join(lines)


@settings(max_examples=60)
@given(text=edge_list_text())
def test_parse_matches_the_line_by_line_oracle(text):
    got = outcome(parse_edge_list, text)
    assert got == outcome(parse_edge_list_loops, text)
    if isinstance(got, WeightedDigraph):
        assert all([type(x) for x in e] == [int, int, float] for e in got.edges)


@st.composite
def edge_tuples(draw):
    """from_edges rows: 1- to 4-item tuples of labels and weights, and rows of no shape."""
    items = st.sampled_from(LABELS + [0, 1, 2.5])
    weights = st.sampled_from(WEIGHT_TEXTS + [0.0, -1, 1.0, 2, float("nan"), float("inf"), None])
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        size = draw(st.integers(1, 4))
        row = [draw(items) for _ in range(min(size, 2))] + [draw(weights) for _ in range(size - 2)]
        rows.append(draw(st.sampled_from([tuple(row), list(row), tuple(row), "ab", 5, None])))
    return rows


@given(rows=edge_tuples())
def test_from_edges_matches_the_row_by_row_oracle(rows):
    assert outcome(from_edges, rows) == outcome(from_edges_loops, rows)


@pytest.mark.parametrize("end", LINE_ENDS)
def test_comments_end_at_every_line_boundary(end):
    text = f"a,b # x, y{end}# only{end}b,a,2{end}#{end}b,c,oops # z{end}"
    with pytest.raises(ParseError, match=r"^line 5: cannot parse 'b,c,oops # z'$"):
        parse_edge_list(text)
    good = text[: text.index("b,c")]
    assert parse_edge_list(good) == parse_edge_list_loops(good)
    assert parse_edge_list(good).edges == ((0, 1, 1.0), (1, 0, 2.0))


def test_weights_are_what_float_reads():
    # underscores, exponents and a full-width digit, as float() takes them
    g = parse_edge_list("a,b,1_0\nb,a, 2.5e0 \na,c,\t１")
    assert [w for _, _, w in g.edges] == [10.0, 2.5, 1.0]


def test_a_comment_between_cr_and_lf_keeps_the_line_count():
    # "\r" and "\n" are two line ends when a comment stands between them
    with pytest.raises(ParseError, match=r"^line 3: cannot parse 'oops'$"):
        parse_edge_list("a,b\r# c\noops\n")


@pytest.mark.parametrize(
    ("text", "error", "detail"),
    [
        ("a,a\nb,c,0", SelfLoop, "self-loop at node a"),
        ("a,b,0\nc,c", NonPositiveWeight, "line 1: weight 0.0 is not a positive finite number"),
        ("a,b\na,b,abc", ParseError, "line 2: cannot parse 'a,b,abc'"),
        ("a,b\na,b,-1", NonPositiveWeight, "line 2: weight -1.0 is not a positive finite number"),
        ("a,b,1e400", NonPositiveWeight, "line 1: weight inf is not a positive finite number"),
        ("a,b,1_0\na,b\nb,b", DuplicateEdge, "duplicate edge a->b"),
        ("a,b\n,\nb,b", ParseError, "line 2: cannot parse ','"),
        ("a,b,1,2\nb,b", ParseError, "line 1: cannot parse 'a,b,1,2'"),
    ],
)
def test_the_first_faulty_line_wins(text, error, detail):
    with pytest.raises(error) as exc:
        parse_edge_list(text)
    assert str(exc.value) == detail
