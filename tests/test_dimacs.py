import json
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satprop import clausal, dimacs
from satprop.clausal import (
    EMPTY,
    TAUTOLOGY,
    Instance,
    build_clausal_partition,
    canonicalize,
)
from satprop.dimacs import (
    ParseDiagnostic,
    ParseResult,
    build_report,
    build_trace,
    emit_dimacs,
    gen_random_3sat,
    mask_hex,
    parse_dimacs,
    write_report,
)
from satprop.propagate import extract_assignment, fixpoint


# --- parsing ------------------------------------------------------------------

def test_parse_basic_instance():
    result = parse_dimacs("p cnf 3 1\n-1 2 -3 0\n")
    inst = result.instance
    assert inst is not None
    assert inst.num_vars == 3
    assert len(inst.clauses) == 1
    assert inst.clauses[0] == (-1, 2, -3)
    assert result.errors == []


def test_parse_drops_tautology_with_warning():
    result = parse_dimacs("p cnf 2 1\n1 -1 0\n")
    assert result.instance is not None
    assert len(result.instance.clauses) == 0
    assert result.instance.tautologies_dropped == 1
    assert any("tautolog" in w.message for w in result.warnings)


def test_parse_rejects_wide_clause():
    result = parse_dimacs("p cnf 4 1\n1 2 3 4 0\n")
    assert result.instance is None
    (err,) = result.errors
    assert "3SAT-only" in err.message
    assert (err.line, err.column) == (2, 1)


def test_parse_comments_and_multiline_clauses():
    text = "c header comment\np cnf 4 2\n1 -2\n3 0 2 3\n-4 0\n"
    result = parse_dimacs(text)
    assert result.instance is not None
    assert list(result.instance.clauses) == [
        (1, -2, 3), (2, 3, -4)]


def test_parse_out_of_range_literal_position():
    result = parse_dimacs("p cnf 2 1\nc mid comment\n 1 5 0\n")
    assert result.instance is None
    (err,) = result.errors
    assert (err.line, err.column) == (3, 4)
    assert "out of range" in err.message


def test_parse_satlib_trailer():
    text = (Path(__file__).parent / "data" / "satlib_trailer.cnf").read_text()
    result = parse_dimacs(text)
    assert result.diagnostics == []
    assert result.instance is not None
    assert not result.instance.has_empty_clause
    assert list(result.instance.clauses) == [
        (1, -2, 3), (-1, 4, -5), (2, -3, -4), (-1, -2, 5)]


@pytest.mark.parametrize("text", [
    "p cnf 3 1\n1 -2 3 0\n",
    "c comment\np cnf 3 2\n1 -1 2 0\n",  # a tautology and a count mismatch
    "p cnf 3 1\n1 4 x 0\n",
])
def test_parse_drops_a_byte_order_mark(text):
    with_mark, plain = parse_dimacs("\ufeff" + text), parse_dimacs(text)
    assert with_mark.instance == plain.instance
    assert with_mark.diagnostics == plain.diagnostics


def test_parse_rejects_more_variables_than_max_vars():
    assert dimacs.MAX_VARS == 1 << 20
    top = parse_dimacs("p cnf 1048576 1\n1 2 1048576 0\n")
    assert top.instance.num_vars == 1048576 and top.diagnostics == []
    for count in ("1048577", "99999999999999999999"):
        result = parse_dimacs(f"p cnf {count} 1\n1 2 3 0\n")
        assert result.instance is None
        assert result.diagnostics == [
            ParseDiagnostic(1, 1, f"problem line declares {count} variables, "
                                  f"more than 1048576", "error"),
            ParseDiagnostic(2, 1, "clause data before problem line", "error"),
        ]


# int() also reads `_` between digits and non-ASCII digits; DIMACS is ASCII
# decimal, so each of these is refused at the bad token
NOT_ASCII_DECIMAL = [
    ("p cnf 10 1\n1_0 2 3 0\n", 2, 1, "not an integer literal: '1_0'"),
    ("p cnf 3 1\n1 2 3 0_0\n", 2, 7, "not an integer literal: '0_0'"),
    ("p cnf 3 1\n\uff11 2 3 0\n", 2, 1, "not an integer literal: '\uff11'"),
    ("p cnf 3 1\n\u0663 -2 1 0\n", 2, 1, "not an integer literal: '\u0663'"),
    ("p cnf 1_0 1\n1 2 3 0\n", 1, 1,
     "non-numeric counts in problem line: 'p cnf 1_0 1'"),
]


@pytest.mark.parametrize("text, line, col, message", NOT_ASCII_DECIMAL, ids=[
    "underscore-literal", "underscore-zero", "fullwidth", "arabic-indic", "underscore-count"])
def test_parse_reads_only_ascii_decimals(text, line, col, message):
    result = parse_dimacs(text)
    assert result.instance is None
    assert result.diagnostics[0] == ParseDiagnostic(line, col, message, "error")


def test_parse_reads_a_sign_and_leading_zeros():
    result = parse_dimacs("p cnf 3 2\n+1 -02 3 0\n01 +2 003 0\n")
    assert result.diagnostics == []
    assert result.instance.clauses == ((1, -2, 3), (1, 2, 3))


def test_parse_missing_header():
    result = parse_dimacs("1 2 0\n")
    assert result.instance is None
    assert any("problem line" in e.message for e in result.errors)


def test_parse_unterminated_clause():
    result = parse_dimacs("p cnf 3 1\n1 2 3\n")
    assert result.instance is None
    (err,) = result.errors
    assert "not terminated" in err.message
    assert (err.line, err.column) == (2, 1)


def test_parse_count_mismatch_warning():
    result = parse_dimacs("p cnf 3 2\n1 2 3 0\n")
    assert result.instance is not None
    assert any("declares 2 clauses" in w.message for w in result.warnings)


def test_parse_empty_clause_flags_trivially_unsat():
    result = parse_dimacs("p cnf 3 2\n1 2 3 0\n0\n")
    assert result.instance is not None
    assert result.instance.has_empty_clause
    assert any("trivially" in w.message for w in result.warnings)


def test_parse_canonicalizes_each_clause_once(monkeypatch):
    calls = []
    built = []

    def counting_canonicalize(literals, num_vars):
        calls.append(list(literals))
        return real_canonicalize(literals, num_vars)

    def counting_post_init(instance):
        built.append(instance)
        real_post_init(instance)

    real_canonicalize = clausal.canonicalize
    real_post_init = Instance.__post_init__
    monkeypatch.setattr(clausal, "canonicalize", counting_canonicalize)
    monkeypatch.setattr(dimacs, "canonicalize", counting_canonicalize)
    monkeypatch.setattr(Instance, "__post_init__", counting_post_init)
    result = parse_dimacs("p cnf 4 3\n1 -1 2 0\n0\n1 2 3 0\n")
    inst = result.instance
    assert list(inst.clauses) == [(1, 2, 3)]
    assert inst.num_vars == 4
    assert inst.has_empty_clause
    assert inst.tautologies_dropped == 1
    assert [str(d) for d in result.diagnostics] == [
        "2:1: warning: tautological clause dropped",
        "3:1: warning: empty clause: instance is trivially unsatisfiable",
    ]
    assert calls == [[1, -1, 2], [], [1, 2, 3]]
    assert built == [inst]


def _reference_parse(text):
    """The parser as it was before it split lines: every token through a
    regex with its column, and a distinct-variable set per clause, with
    counts and literals read as ASCII decimals.  Kept to check that
    `parse_dimacs` gives the same instance and diagnostics."""
    diagnostics = []
    num_vars = None
    declared_clauses = 0
    clauses = []
    empty_clauses = 0
    tautologies = 0
    pending = []
    pending_pos = None

    def error(line, col, message):
        diagnostics.append(ParseDiagnostic(line, col, message, "error"))

    def warning(line, col, message):
        diagnostics.append(ParseDiagnostic(line, col, message, "warning"))

    def ascii_int(token):
        # int() also reads `_` between digits, and non-ASCII digits
        if not re.fullmatch(r"[+-]?[0-9]+", token):
            raise ValueError(token)
        return int(token)

    def finish_clause(line, col):
        nonlocal empty_clauses, tautologies
        start = pending_pos or (line, col)
        distinct = {abs(lit) for lit in pending}
        if len(distinct) > 3:
            error(start[0], start[1],
                  f"clause has {len(distinct)} distinct variables; this tool is 3SAT-only")
            return
        result = canonicalize(pending, num_vars)
        if result is TAUTOLOGY:
            tautologies += 1
            warning(start[0], start[1], "tautological clause dropped")
        elif result is EMPTY:
            empty_clauses += 1
            warning(start[0], start[1], "empty clause: instance is trivially unsatisfiable")
        else:
            clauses.append(result)

    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.lstrip()
        if not stripped or stripped.startswith("c"):
            continue
        if stripped.startswith("%"):
            break
        if stripped.startswith("p"):
            col = line.index("p") + 1
            if num_vars is not None:
                error(lineno, col, "duplicate problem line")
                continue
            parts = stripped.split()
            if len(parts) != 4 or parts[1] != "cnf":
                error(lineno, col, f"malformed problem line: {stripped!r}")
                continue
            try:
                num_vars = ascii_int(parts[2])
                declared_clauses = ascii_int(parts[3])
            except ValueError:
                error(lineno, col, f"non-numeric counts in problem line: {stripped!r}")
                num_vars = None
            if num_vars is not None and (num_vars < 0 or declared_clauses < 0):
                error(lineno, col, "negative counts in problem line")
                num_vars = None
            if num_vars is not None and num_vars > dimacs.MAX_VARS:
                error(lineno, col, f"problem line declares {num_vars} variables, "
                                   f"more than {dimacs.MAX_VARS}")
                num_vars = None
            continue
        for match in re.finditer(r"\S+", line):
            token, col = match.group(), match.start() + 1
            if num_vars is None:
                error(lineno, col, "clause data before problem line")
                return ParseResult(None, diagnostics)
            try:
                lit = ascii_int(token)
            except ValueError:
                error(lineno, col, f"not an integer literal: {token!r}")
                continue
            if lit == 0:
                finish_clause(lineno, col)
                pending = []
                pending_pos = None
            else:
                if abs(lit) > num_vars:
                    error(lineno, col,
                          f"literal {lit} out of range for {num_vars} variables")
                    continue
                if pending_pos is None:
                    pending_pos = (lineno, col)
                pending.append(lit)

    last_line = text.count("\n") + 1
    if num_vars is None:
        error(last_line, 1, "missing problem line")
        return ParseResult(None, diagnostics)
    if pending:
        error(pending_pos[0], pending_pos[1], "clause not terminated by 0")
    parsed_count = len(clauses) + empty_clauses + tautologies
    if parsed_count != declared_clauses:
        warning(last_line, 1,
                f"header declares {declared_clauses} clauses, found {parsed_count}")
    if any(d.severity == "error" for d in diagnostics):
        return ParseResult(None, diagnostics)
    instance = Instance(num_vars, tuple(clauses), empty_clauses > 0, tautologies)
    return ParseResult(instance, diagnostics)


_TOKENS = st.one_of(
    st.integers(-6, 6).map(str),  # literals, some out of range, and 0
    st.just("0"),
    st.sampled_from(["x", "1.5", "--1", "+2", "1_0", "0_0", "0x1", "-", "9" * 12,
                     "\uff11", "\u0663"]),  # fullwidth 1 and Arabic-Indic 3
)
_BLANKS = st.sampled_from([" ", "  ", "\t", " \t ", "\x0b", "\xa0"])


def _spellings(lit):
    """Tokens that DIMACS reads as `lit`: ASCII decimals, with a sign or
    leading zeros (`+2`, `-0`, `00`)."""
    digits = str(abs(lit))
    signs = ["-"] if lit < 0 else ["", "+", "-"] if lit == 0 else ["", "+"]
    bodies = [digits, "0" + digits]
    return st.sampled_from([sign + body for sign in signs for body in bodies])


@st.composite
def _dimacs_lines(draw):
    """One line of DIMACS-like text: clause data that may span lines or
    lack its 0, plain clause lines, bad tokens, comments, problem lines and
    `%` trailers, with tabs and leading blanks."""
    kind = draw(st.sampled_from(
        ["data"] * 6 + ["clause"] * 4
        + ["wide", "comment", "problem", "bad problem", "trailer", "blank"]))
    lead = draw(st.sampled_from(["", " ", "\t", "  \t"]))
    if kind == "clause":  # three literal tokens and 0, the parser's shortcut
        literals = [draw(st.integers(-6, 6))]
        for _ in range(2):
            literals.append(draw(st.one_of(
                st.integers(-6, 6),  # in range, out of range or 0 by the header
                st.sampled_from([10, -10]),
                st.sampled_from(literals),  # repeated
                st.sampled_from(literals).map(lambda lit: -lit),  # tautological
            )))
        tokens = [draw(_spellings(lit)) for lit in literals + [0]]
        line = "".join(token + draw(_BLANKS) for token in tokens)
        return lead + line.rstrip(" ") if draw(st.booleans()) else lead + line
    if kind == "data":
        tokens = draw(st.lists(_TOKENS, max_size=7))
        line = ""
        for token in tokens:
            line += token + draw(_BLANKS)
        return lead + line.rstrip(" ") if draw(st.booleans()) else lead + line
    if kind == "wide":  # a clause over 4 or 5 distinct variables
        variables = draw(st.permutations(range(1, 6)))[:draw(st.integers(4, 5))]
        signs = draw(st.lists(st.sampled_from(["", "-"]), min_size=5, max_size=5))
        return lead + " ".join(sign + str(v) for sign, v in zip(signs, variables)) + " 0"
    if kind == "comment":
        return lead + "c " + " ".join(draw(st.lists(_TOKENS, max_size=3)))
    if kind == "problem":
        return f"{lead}p cnf {draw(st.integers(0, 5))} {draw(st.integers(0, 6))}"
    if kind == "bad problem":
        return lead + draw(st.sampled_from(
            ["p cnf 3", "p dnf 3 2", "p cnf x 2", "p cnf -1 2", "p  cnf\t4 1 0",
             "p cnf 1048577 1", "p cnf 99999999999999999999 1"]))
    if kind == "trailer":
        return lead + "%"
    return lead


@st.composite
def _messy_texts(draw):
    """Lines of `_dimacs_lines`, most often after a problem line."""
    lines = draw(st.lists(_dimacs_lines(), max_size=10))
    if draw(st.booleans()):
        lines = ["p cnf 4 3", *lines]
    return "\n".join(lines) + ("\n" if draw(st.booleans()) else "")


@st.composite
def _clean_texts(draw):
    """A DIMACS text in the layouts real files use: comment and blank lines
    before and after the problem line, clauses of one to three literals in
    any order, split across lines or several on a line, tabs, CRLF line
    ends, a header that may miscount and a SATLIB `%` trailer.  One clause
    in 32 repeats a literal and one in 32 is empty, which only the line
    loop reads.  Half the texts hold only 3-literal clauses and no comment
    after the problem line, as real 3-SAT files do, which the bulk step
    reads."""
    threes = draw(st.booleans())
    num_vars = draw(st.integers(3, 12))
    clauses = []
    for _ in range(draw(st.integers(0, 8))):
        width = 3 if threes else draw(st.integers(1, 3))
        variables = draw(st.permutations(range(1, num_vars + 1)))[:width]
        clause = [var if draw(st.booleans()) else -var for var in variables]
        rare = 2 if threes else draw(st.integers(0, 31))
        if rare == 0:
            clause.append(clause[0])
        elif rare == 1:
            clause = []
        clauses.append(clause)
    blank = st.sampled_from([" ", "  ", "\t", " \t"])
    lead = st.sampled_from(["", " ", "\t"])
    comment = lead.map(lambda lead: lead + "c comment %_\u00e9")
    lines = draw(st.lists(st.one_of(comment, lead), max_size=2))
    declared = len(clauses) + draw(st.sampled_from([0, 0, 0, -1, 1]))
    lines.append(f"{draw(lead)}p cnf {num_vars}{draw(blank)}{max(declared, 0)}{draw(lead)}")
    line = draw(lead)
    for token in [str(lit) for clause in clauses for lit in clause + [0]]:
        line += token
        if draw(st.integers(0, 4)) == 0:  # end the line here
            lines.append(line)
            if not threes and draw(st.integers(0, 3)) == 0:
                lines.append(draw(comment))
            line = draw(lead)
        else:
            line += draw(blank)
    lines.append(line)
    if draw(st.booleans()):
        lines += [draw(lead) + "%", "0", draw(st.sampled_from(["", "x y", "\u00e9"]))]
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + (newline if draw(st.booleans()) else "")


@pytest.mark.parametrize("chunk", [dimacs._CHUNK, 1, 5, 64])
def test_parse_matches_regex_reference(monkeypatch, chunk):
    # at the real chunk size, about 400 messy texts, as before the clean
    # layouts were added, and 1200 clean; at small ones, where a fault or a
    # clause falls after the first chunk or across a chunk's end and several
    # chunks may be read line by line, about 200 of each
    if chunk == dimacs._CHUNK:
        examples = 1600
        texts = st.one_of(_clean_texts(), _clean_texts(), _clean_texts(), _messy_texts())
    else:
        examples, texts = 400, st.one_of(_clean_texts(), _messy_texts())
    monkeypatch.setattr(dimacs, "_CHUNK", chunk)

    @settings(max_examples=examples, deadline=None)
    @given(texts)
    def check(text):
        got, want = parse_dimacs(text), _reference_parse(text)
        assert got.diagnostics == want.diagnostics
        assert got.instance == want.instance

    check()


# layouts of real 3-SAT files, whose clause data is 3-literal clauses with no
# comment line among them; `parse_dimacs` reads the clauses of each in bulk
CLEAN_LAYOUTS = {
    "sorted": "p cnf 5 2\n1 -2 3 0\n-3 4 5 0\n",
    "unsorted": "p cnf 5 2\n3 -2 1 0\n5 -3 4 0\n",
    # the variables of every clause out of order in one place only
    "unsorted-first-two": "p cnf 5 2\n2 1 -3 0\n-4 3 5 0\n",
    "unsorted-last-two": "p cnf 5 2\n1 -3 2 0\n-3 5 4 0\n",
    "split": "p cnf 5 2\n1\n-2 3\n0 -3\n4 5 0",
    "several-per-line": "p cnf 5 3\n1 -2 3 0 -3 4 5 0 2 4 -5 0\n",
    "tabs-and-blanks": "\n  \np\tcnf 5 2 \n\t1\t-2  3 0\t\n\n -3 4\t5 0\n",
    "crlf": "c x\r\np cnf 5 2\r\n1 -2 3 0\r\n\r\n-3 4 5 0\r\n",
    "trailer": "p cnf 5 2\n1 -2 3 0\n-3 4 5 0\n%\n0\n\n",
    "trailer-crlf": "p cnf 5 1\r\n1 -2 3 0\r\n %\r\n0\r\n",
    "undercount": "p cnf 5 1\n1 -2 3 0\n-3 4 5 0\n",
    "overcount": "p cnf 5 3\n1 -2 3 0\n-3 4 5 0\n",
    "no-clauses": "c nothing\np cnf 0 0\n",
    "byte-order-mark": "\ufeffp cnf 3 1\n1 2 3 0\n",
    "signs-and-zeros": "p cnf 3 2\n+1 -02 3 00\n01 +2 003 -0\n",
    "satlib-file": (Path(__file__).parent / "data" / "satlib_trailer.cnf").read_text(),
}


def _line_reads(monkeypatch, text):
    """`parse_dimacs(text)`, and the texts it hands `_Reader.read_lines`."""
    reads = []

    def recording_read_lines(reader, text):
        reads.append(text)
        real_read_lines(reader, text)

    real_read_lines = dimacs._Reader.read_lines
    monkeypatch.setattr(dimacs._Reader, "read_lines", recording_read_lines)
    return parse_dimacs(text), reads


def _header(text):
    """The lines of `text` up to its problem line, each with its line end."""
    lines = text.removeprefix("\ufeff").splitlines(keepends=True)
    return lines[:1 + next(k for k, line in enumerate(lines) if line.lstrip().startswith("p"))]


@pytest.mark.parametrize("name", sorted(CLEAN_LAYOUTS))
def test_parse_reads_clean_layouts_without_the_line_loop(monkeypatch, name):
    # lines are read one at a time up to the problem line, and none after it
    text = CLEAN_LAYOUTS[name]
    got, reads = _line_reads(monkeypatch, text)
    want = _reference_parse(text.removeprefix("\ufeff"))
    assert reads == _header(text)
    assert got.diagnostics == want.diagnostics
    assert got.instance == want.instance is not None


@pytest.mark.parametrize("chunk", [1, 5, 64])
def test_parse_converts_clean_data_in_chunks_at_line_ends(monkeypatch, chunk):
    # tokens are converted a chunk of lines at a time; no chunk may cut a
    # token or a clause, whatever its size
    monkeypatch.setattr(dimacs, "_CHUNK", chunk)
    rng = random.Random(chunk)
    inst = gen_random_3sat(40, 300, seed=chunk)
    lines = [" ".join(map(str, rng.sample(clause, 3))) + " 0" for clause in inst.clauses]
    texts = [*CLEAN_LAYOUTS.values(), "p cnf 40 300\n" + "\n".join(lines),
             "p cnf 40 300\r\n" + " ".join(lines)]
    for text in texts:
        got, reads = _line_reads(monkeypatch, text)
        want = _reference_parse(text.removeprefix("\ufeff"))
        assert reads == _header(text)
        assert got.diagnostics == want.diagnostics
        assert got.instance == want.instance


# inputs that need the line loop, and what it reads of each when a chunk
# holds one line that ends a clause: the lines up to the problem line, then
# only the chunk that holds the fault
LINE_LOOP_READS = {
    "p cnf 3 1\n1 1 2 0\n": ["p cnf 3 1\n", "1 1 2 0\n"],  # a repeated literal
    "p cnf 3 1\n2 -2 3 0\n": ["p cnf 3 1\n", "2 -2 3 0\n"],  # a tautology
    "p cnf 3 3\n1 2 3 0\n-1 2 3 0\n2 -2 3 0\n": ["p cnf 3 3\n", "2 -2 3 0\n"],
    "p cnf 3 3\n2 -2 3 0\n1 2 3 0\n-1 2 3 0\n": ["p cnf 3 3\n", "2 -2 3 0\n"],
    "p cnf 3 2\n1 2 3 0\n0\n": ["p cnf 3 2\n", "0\n"],  # an empty clause
    # an empty clause, then four tokens in all; the search for a chunk's
    # end starts one character in, so it passes over the line "0"
    "p cnf 3 2\n0\n1 2 0\n": ["p cnf 3 2\n", "0\n1 2 0\n"],
    "p cnf 3 3\n1 2 3 0\n0\n-1 2 0\n": ["p cnf 3 3\n", "0\n-1 2 0\n"],
    "p cnf 3 2\n1 2 3 0\n0 1 2 0\n": ["p cnf 3 2\n", "0 1 2 0\n"],
    "p cnf 3 1\n1 2 3\n": ["p cnf 3 1\n", "1 2 3\n"],  # not terminated
    "p cnf 3 1\n1 2 4 0\n": ["p cnf 3 1\n", "1 2 4 0\n"],  # out of range
    "p cnf 3 1\n-4 1 2 0\n": ["p cnf 3 1\n", "-4 1 2 0\n"],  # out of range, unsorted
    "p cnf 3 1\n1 2 3 0\np cnf 3 1\n": ["p cnf 3 1\n", "p cnf 3 1\n"],  # a second problem line
    "p cnf 3 1\n1 2 x 0\n": ["p cnf 3 1\n", "1 2 x 0\n"],  # a bad token
    # a clause split by a comment line that ends in 0, where a chunk ends
    "p cnf 3 2\n-1 -2 -3 0\n1 2\nc 0\n3 0\n": ["p cnf 3 2\n", "1 2\nc 0\n", "3 0\n"],
    # a line break that splitlines knows
    "p cnf 3 1\n1 2\x0b3 0\n": ["p cnf 3 1\n", "1 2\x0b3 0\n"],
    "p cnf 3 1\n1 2\r3 0\n": ["p cnf 3 1\n", "1 2\r3 0\n"],  # a lone carriage return
    **{f"p cnf 3 1\n1 2{brk}3 0\n": ["p cnf 3 1\n", f"1 2{brk}3 0\n"]
       for brk in "\f\x1c\x1d\x1e\x85\u2028\u2029"},  # and each of the others
    "c x\u2028p cnf 3 1\n1 2 3 0\n": ["c x\u2028p cnf 3 1\n"],  # a line break in a comment
    # so a second problem line
    "c x\x0bp cnf 3 1\np cnf 3 1\n1 2 3 0\n": ["c x\x0bp cnf 3 1\n", "p cnf 3 1\n1 2 3 0\n"],
    "p cnf 3 1\nc x\u20281 2 3 0\n": ["p cnf 3 1\n", "c x\u20281 2 3 0\n"],
    "1 2 3 0\np cnf 3 1\n": ["1 2 3 0\n"],  # data before the problem line
    # comment lines after the problem line, and clauses of 1 or 2 literals
    "c a\nc b\np cnf 5 2\nc after the header\n1 -2 3 0\n  c indented\n-3 4 5 0\nc end\n": [
        "c a\n", "c b\n", "p cnf 5 2\n", "c after the header\n1 -2 3 0\n",
        "  c indented\n-3 4 5 0\n", "c end\n"],
    "c \u00e9\np cnf 3 1\nc uf20_01 \u2603\n1 2 3 0\n": [
        "c \u00e9\n", "p cnf 3 1\n", "c uf20_01 \u2603\n1 2 3 0\n"],
    "p cnf 5 4\n1 0\n-2 4 0\n5 -1 0\n2 -3 4 0\n": [
        "p cnf 5 4\n", "1 0\n", "-2 4 0\n", "5 -1 0\n"],
}


@pytest.mark.parametrize("text", list(LINE_LOOP_READS))
def test_parse_leaves_other_inputs_to_the_line_loop(monkeypatch, text):
    monkeypatch.setattr(dimacs, "_CHUNK", 1)
    got, reads = _line_reads(monkeypatch, text)
    want = _reference_parse(text)
    assert reads == LINE_LOOP_READS[text]
    assert got.diagnostics == want.diagnostics
    assert got.instance == want.instance


def test_diagnostics_point_into_source():
    text = "p cnf 2 1\n1 -1 0\n"
    result = parse_dimacs(text)
    lines = text.splitlines()
    for diag in result.diagnostics:
        assert 1 <= diag.line <= len(lines)
        assert 1 <= diag.column <= len(lines[diag.line - 1]) + 1


# --- emission -----------------------------------------------------------------

def test_emit_empty_instance():
    result = parse_dimacs("p cnf 0 0\n")
    assert emit_dimacs(result.instance) == "p cnf 0 0\n"


def test_emit_canonical_clause():
    result = parse_dimacs("p cnf 3 1\n-1 2 -3 0\n")
    assert emit_dimacs(result.instance) == "p cnf 3 1\n-1 2 -3 0\n"


def test_emit_empty_clause_round_trip():
    inst = Instance(4, ((1, 2, 3), (-1, 4)), has_empty_clause=True)
    text = emit_dimacs(inst)
    assert text == "p cnf 4 3\n1 2 3 0\n-1 4 0\n0\n"
    assert parse_dimacs(text).instance == inst


@pytest.mark.parametrize("text", [
    "p cnf 3 2\n1 -1 2 0\n1 2 3 0\n",   # a tautology, dropped by the parse
    "p cnf 3 2\n0\n-1 2 3 0\n",         # an empty clause
])
def test_round_trip_of_a_parsed_instance(text):
    # the emission carries no dropped tautology, so only these fields return
    inst = parse_dimacs(text).instance
    again = parse_dimacs(emit_dimacs(inst)).instance
    assert (again.num_vars, again.clauses, again.has_empty_clause) == (
        inst.num_vars, inst.clauses, inst.has_empty_clause)


def test_round_trip_identity():
    inst = gen_random_3sat(10, 30, seed=5)
    assert parse_dimacs(emit_dimacs(inst)).instance == inst


@given(st.integers(3, 12), st.integers(0, 40), st.integers(0, 10_000))
def test_round_trip_property(n, m, seed):
    inst = gen_random_3sat(n, m, seed)
    assert parse_dimacs(emit_dimacs(inst)).instance == inst


# --- generator ----------------------------------------------------------------

def test_generator_determinism():
    a = gen_random_3sat(10, 42, seed=7)
    b = gen_random_3sat(10, 42, seed=7)
    assert a == b
    assert emit_dimacs(a) == emit_dimacs(b)


def test_generator_shape():
    inst = gen_random_3sat(10, 42, seed=7)
    assert len(inst.clauses) + inst.tautologies_dropped == 42
    assert inst.tautologies_dropped == 0
    for clause in inst.clauses:
        vars_ = tuple(map(abs, clause))
        assert len(set(vars_)) == 3
        assert all(1 <= v <= 10 for v in vars_)


def test_generator_empty_and_guard():
    assert gen_random_3sat(3, 0, seed=1).clauses == ()
    with pytest.raises(ValueError):
        gen_random_3sat(2, 1, seed=1)


@pytest.mark.parametrize("n", [3, 12, 400])
@pytest.mark.parametrize("seed", [0, 1, 7])
def test_generator_streams_clauses(n, seed):
    # a seed fixes one clause stream, and m takes its first m clauses, so a
    # walk along m at a fixed seed adds clauses to the instance before it
    stream = gen_random_3sat(n, 500, seed).clauses
    for m in (0, 1, 50, 499):
        assert gen_random_3sat(n, m, seed).clauses == stream[:m], m


def _sample_reference(n, m, seed):
    # the stream as the generator first drew it, through random.sample:
    # every seeded instance, golden file and benchmark reference rests on it
    rng = random.Random(seed)
    clauses = []
    for _ in range(m):
        a, b, c = sorted(rng.sample(range(1, n + 1), 3))
        clauses.append((a if rng.random() < 0.5 else -a,
                        b if rng.random() < 0.5 else -b,
                        c if rng.random() < 0.5 else -c))
    return tuple(clauses)


def test_generator_matches_sample_reference():
    # n = 21 is sample's last pool-method size and 22 its first set-method one
    for n in (*range(3, 41), 100, 400, 1 << 20):
        for m in (0, 1, 97):
            for seed in (0, 1, 7, -5, 5_001_024):
                assert (gen_random_3sat(n, m, seed).clauses
                        == _sample_reference(n, m, seed)), (n, m, seed)


@given(st.integers(3, 64), st.integers(0, 60), st.integers(-2**40, 2**40))
def test_generator_matches_sample_reference_on_random_specs(n, m, seed):
    assert gen_random_3sat(n, m, seed).clauses == _sample_reference(n, m, seed)


# --- report -------------------------------------------------------------------

def test_mask_hex_format():
    assert mask_hex(0xDF) == "0xDF"
    assert mask_hex(0) == "0x00"


def test_write_report_is_deterministic():
    report = {"b": 1, "a": [1, 2], "c": {"y": None, "x": True}}
    assert write_report(report) == write_report(dict(reversed(report.items())))
    assert write_report(report).endswith("\n")


@pytest.mark.parametrize("n, m, seed", [(20, 160, 7000), (12, 40, 3)])
def test_builders_make_self_writing_entries(n, m, seed):
    # the builders' cube entries and trace records write themselves, by one
    # f-string each; a plain dict of the same shape takes the generic walker,
    # so this pins the builders to the self-writing types and those types
    # to json's text
    inst = gen_random_3sat(n, m, seed)
    result = fixpoint(build_clausal_partition(inst).state)
    unsat = result.empty_triple is not None
    extraction = None if unsat else extract_assignment(result, inst)
    cubes = result.fixpoint.cubes.items()
    report = build_report(
        instance=inst, source="gen",
        engine_verdict="unsat_by_empty_cube" if unsat else "no_empty_cube",
        empty_triple=result.empty_triple, cubes=cubes, stats={},
        oracle_verdict=None, oracle_agrees=None,
        assignment=extraction and extraction.assignment,
        assignment_verified=extraction and extraction.verified,
        order="fifo", seeds={})
    trace = build_trace(result.trace, cubes)
    if unsat:
        assert len(trace["records"]) > 100 and len(report["cubes"]) > 100
    else:
        assert extraction is not None and report["assignment"] is not None
    assert all(type(entry) is dimacs._Cube
               for entry in (*report["cubes"], *trace["final_cubes"]))
    assert all(type(record) is dimacs._Record for record in trace["records"])
    assert type(report["instance"]["unconstrained_vars"]) is dimacs._Ints
    assert type(report["assignment"]) is (dimacs._Assignment if extraction else type(None))
    for doc in (report, trace):
        assert write_report(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("num_vars, clauses", [
    (0, ()),  # an empty assignment and no unconstrained variable
    (12, ((1, -2, 3), (-10, 11), (4,))),  # keys 1, 10, 11, 12, 2, ... in json's order
])
def test_report_writes_assignment_and_unconstrained_vars_as_json(num_vars, clauses):
    inst = Instance(num_vars, clauses)
    result = fixpoint(build_clausal_partition(inst).state)
    extraction = extract_assignment(result, inst)
    report = build_report(
        instance=inst, source="x", engine_verdict="no_empty_cube", empty_triple=None,
        cubes=result.fixpoint.cubes.items(), stats={}, oracle_verdict=None,
        oracle_agrees=None, assignment=extraction.assignment,
        assignment_verified=extraction.verified, order="fifo", seeds={})
    assert len(report["assignment"]) == num_vars
    assert report["instance"]["unconstrained_vars"] == list(inst.unconstrained_vars())
    assert write_report(report) == json.dumps(report, indent=2, sort_keys=True) + "\n"


def _reference_report(doc):
    """The writer as it was: json's own indenting encoder."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# quotes, backslashes, newlines, controls, non-ASCII and astral characters
_STRINGS = st.text(st.sampled_from('ax0 "\\\n\t\x00\x7f\u00e9\u2028\u20ac\U0001f600'))
_INTS = st.integers(-(2**70), 2**70)
_SCALARS = st.one_of(
    st.none(), st.booleans(), _INTS, _STRINGS, st.floats(),
    # floats as bench writes its ratio
    st.tuples(st.integers(0, 200), st.integers(1, 50)).map(
        lambda mn: round(mn[0] / mn[1], 4)),
)
_TRIPLES = st.lists(st.integers(1, 2000), min_size=3, max_size=3)
# entries that do not fit the writer's templates: other widths, bools,
# tuples, extra keys, and masks that are not str
_MISFIT_TRIPLES = st.one_of(
    st.lists(st.one_of(_INTS, st.booleans()), min_size=1, max_size=4),
    _TRIPLES.map(tuple),
)
_MASKS = st.one_of(st.integers(0, 255).map(mask_hex), _STRINGS)
_CUBES = st.one_of(
    st.fixed_dictionaries({"mask": _MASKS, "triple": _TRIPLES}),
    st.fixed_dictionaries({"mask": _MASKS, "triple": _MISFIT_TRIPLES}),
    st.fixed_dictionaries({"mask": _SCALARS, "triple": _TRIPLES}),
    st.fixed_dictionaries({"mask": _MASKS, "triple": _TRIPLES},
                          optional={"extra": _SCALARS, "Mask": _SCALARS}),
)
_RECORDS = st.fixed_dictionaries(
    {"after": _MASKS, "before": _MASKS, "cells_removed": st.integers(0, 8),
     "edge": st.lists(_TRIPLES, min_size=2, max_size=2)},
    optional={"extra": _SCALARS},
) | st.fixed_dictionaries(
    {"after": st.one_of(_MASKS, _SCALARS), "before": _MASKS,
     "cells_removed": st.one_of(st.booleans(), _INTS),
     "edge": st.lists(st.one_of(_TRIPLES, _MISFIT_TRIPLES), min_size=1, max_size=3)},
)
_ASSIGNMENTS = st.dictionaries(st.integers(1, 10**6).map(str), st.booleans()).map(
    dimacs._Assignment)
_INT_LISTS = st.lists(_INTS).map(dimacs._Ints)
_DOCUMENTS = st.recursive(
    _SCALARS | st.lists(_CUBES) | st.lists(_RECORDS) | _ASSIGNMENTS | _INT_LISTS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(_STRINGS, children, max_size=4),
        # json writes int, float, bool and None keys as strings
        st.dictionaries(_INTS, children, max_size=3),
        st.dictionaries(st.floats(allow_nan=False) | st.booleans(), children, max_size=3),
        st.builds(lambda value: {None: value}, children),
        st.fixed_dictionaries({"source": _STRINGS, "cubes": st.lists(_CUBES),
                               "records": st.lists(_RECORDS), "rest": children}),
        st.lists(st.one_of(_CUBES, _RECORDS, children), max_size=4),
    ),
    max_leaves=20,
)


@settings(max_examples=200, deadline=None)
@given(_DOCUMENTS)
def test_write_report_matches_json_reference(doc):
    assert write_report(doc) == _reference_report(doc)
