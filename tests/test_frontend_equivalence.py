"""The Verilog front end must reproduce its char-by-char form exactly.

The lexer is one compiled-regex scan, ``strip_comments`` one ``re.sub``
and elaboration copies replacement expressions structurally.  The forms
they replaced are kept here as the reference, the way
``tests/test_prepare.py`` keeps the scipy formula: a character-at-a-time
lexer, the ``strip_comments`` loop, the parser's clamped token helpers
and the ``copy.deepcopy`` rewrite.  The references carry the two fixes
made along with the rewrite, so they must agree with it everywhere:

- a based literal cut off after its apostrophe (``8'``) reports the
  missing base just past the apostrophe;
- ``strip_comments`` raises for a string literal still open at the end
  of the text, as it does at the end of a line.

Equality is checked stage by stage on every eval-corpus design and on
the default scenario suite at two data seeds: the cleaned text, the
tokens (kind, value, line and column), the elaborated AST (dataclass
``==``) and the ``GraphIR.edge_keys()`` of the netlist and RTL
lowerings.  A seeded mutation fuzz and a Hypothesis fuzz compare the
error type, message, line and column on malformed input.
"""

import copy
import importlib
import random
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataflow.analyzer import analyze
from repro.dataflow.elaborate import elaborate
from repro.dataflow.to_ir import dfg_to_ir
from repro.dataflow.trim import trim
from repro.designs.corpus import _netlist_variants, canonical_variant
from repro.errors import ElaborationError, LexerError, PreprocessorError, VerilogError
from repro.eval.runner import DEFAULT_EVAL_FAMILIES, EvalConfig, scenario_suite
from repro.netlist.to_ir import netlist_to_ir
from repro.netlist.verilog_io import write_netlist
from repro.synth.synthesize import synthesize
from repro.verilog import ast_nodes as ast
from repro.verilog.lexer import tokenize
from repro.verilog.parser import Parser, parse
from repro.verilog.preprocess import preprocess, strip_comments
from repro.verilog.tokens import (
    BASED_NUMBER,
    EOF,
    IDENT,
    KEYWORD,
    KEYWORDS,
    MULTI_CHAR_OPERATORS,
    NUMBER,
    PUNCT,
    SINGLE_CHAR_OPERATORS,
    STRING,
    Token,
)

# The packages re-export functions named like these modules.
elaborate_module = importlib.import_module("repro.dataflow.elaborate")
parser_module = importlib.import_module("repro.verilog.parser")
preprocess_module = importlib.import_module("repro.verilog.preprocess")

# -- reference: the char-by-char lexer --------------------------------------
_IDENT_START = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_IDENT_CONT = _IDENT_START | frozenset("0123456789$")
_DIGITS = frozenset("0123456789")
_BASE_CHARS = frozenset("bBoOdDhH")
_BASED_DIGITS = frozenset("0123456789abcdefABCDEFxXzZ?_")


class ReferenceLexer:
    """The single-pass character scanner the regex lexer replaced."""

    def __init__(self, text):
        self._text = text
        self._pos = 0
        self._line = 1
        self._line_start = 0

    def tokenize(self):
        tokens = []
        while True:
            token = self._next_token()
            tokens.append(token)
            if token.kind == EOF:
                return tokens

    def _column(self):
        return self._pos - self._line_start + 1

    def _error(self, message):
        raise LexerError(message, line=self._line, column=self._column())

    def _peek(self, offset=0):
        index = self._pos + offset
        if index < len(self._text):
            return self._text[index]
        return ""

    def _advance_line(self):
        self._line += 1
        self._line_start = self._pos

    def _skip_whitespace_and_comments(self):
        text = self._text
        while self._pos < len(text):
            char = text[self._pos]
            if char == "\n":
                self._pos += 1
                self._advance_line()
            elif char in " \t\r\f":
                self._pos += 1
            elif char == "/" and self._peek(1) == "/":
                while self._pos < len(text) and text[self._pos] != "\n":
                    self._pos += 1
            elif char == "/" and self._peek(1) == "*":
                self._skip_block_comment()
            else:
                return

    def _skip_block_comment(self):
        text = self._text
        self._pos += 2
        while self._pos < len(text):
            if text[self._pos] == "\n":
                self._pos += 1
                self._advance_line()
            elif text[self._pos] == "*" and self._peek(1) == "/":
                self._pos += 2
                return
            else:
                self._pos += 1
        self._error("unterminated block comment")

    def _next_token(self):
        self._skip_whitespace_and_comments()
        if self._pos >= len(self._text):
            return Token(EOF, "", self._line, self._column())
        char = self._text[self._pos]
        if char in _IDENT_START or char == "$":
            return self._lex_identifier()
        if char in _DIGITS:
            return self._lex_number()
        if char == "'":
            return self._lex_based_number(size_text="")
        if char == '"':
            return self._lex_string()
        if char == "\\":
            return self._lex_escaped_identifier()
        if char == "`":
            self._error("stray compiler directive (run the preprocessor first)")
        return self._lex_operator()

    def _lex_identifier(self):
        line, column = self._line, self._column()
        start = self._pos
        text = self._text
        while self._pos < len(text) and text[self._pos] in _IDENT_CONT:
            self._pos += 1
        word = text[start : self._pos]
        kind = KEYWORD if word in KEYWORDS else IDENT
        return Token(kind, word, line, column)

    def _lex_escaped_identifier(self):
        line, column = self._line, self._column()
        self._pos += 1
        start = self._pos
        text = self._text
        while self._pos < len(text) and not text[self._pos].isspace():
            self._pos += 1
        word = text[start : self._pos]
        if not word:
            self._error("empty escaped identifier")
        return Token(IDENT, word, line, column)

    def _lex_number(self):
        line, column = self._line, self._column()
        start = self._pos
        text = self._text
        while self._pos < len(text) and text[self._pos] in _DIGITS | {"_"}:
            self._pos += 1
        size_text = text[start : self._pos]
        if self._peek() == "'":
            return self._lex_based_number(size_text, line, column)
        return Token(NUMBER, size_text.replace("_", ""), line, column)

    def _lex_based_number(self, size_text, line=None, column=None):
        if line is None:
            line, column = self._line, self._column()
        text = self._text
        start = self._pos
        self._pos += 1  # consume the apostrophe
        if self._peek() in ("s", "S"):  # fixed: was ``in "sS"``, true at EOF
            self._pos += 1
        if self._peek() not in _BASE_CHARS:
            self._error(f"invalid base character {self._peek()!r} in literal")
        self._pos += 1
        digit_start = self._pos
        while self._pos < len(text) and text[self._pos] in _BASED_DIGITS:
            self._pos += 1
        if self._pos == digit_start:
            self._error("based literal has no digits")
        value = size_text + text[start : self._pos]
        return Token(BASED_NUMBER, value, line, column)

    def _lex_string(self):
        line, column = self._line, self._column()
        text = self._text
        self._pos += 1
        start = self._pos
        while self._pos < len(text) and text[self._pos] != '"':
            if text[self._pos] == "\n":
                self._error("unterminated string literal")
            self._pos += 1
        if self._pos >= len(text):
            self._error("unterminated string literal")
        value = text[start : self._pos]
        self._pos += 1
        return Token(STRING, value, line, column)

    def _lex_operator(self):
        line, column = self._line, self._column()
        for op in MULTI_CHAR_OPERATORS:
            if self._text.startswith(op, self._pos):
                self._pos += len(op)
                return Token(PUNCT, op, line, column)
        char = self._text[self._pos]
        if char in SINGLE_CHAR_OPERATORS:
            self._pos += 1
            return Token(PUNCT, char, line, column)
        self._error(f"unexpected character {char!r}")


def reference_tokenize(text):
    return ReferenceLexer(text).tokenize()


# -- reference: the strip_comments loop -------------------------------------
def reference_strip_comments(text):
    out = []
    i = 0
    n = len(text)
    while i < n:
        char = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if char == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                i += 1
        elif char == "/" and nxt == "*":
            end = text.find("*/", i + 2)
            if end < 0:
                raise PreprocessorError("unterminated block comment")
            out.append("\n" * text.count("\n", i, end))
            i = end + 2
        elif char == '"':
            end = i + 1
            while end < n and text[end] != '"':
                if text[end] == "\n":
                    raise PreprocessorError("unterminated string literal")
                end += 1
            if end >= n:  # fixed: an open string at the end used to pass
                raise PreprocessorError("unterminated string literal")
            out.append(text[i : end + 1])
            i = end + 1
        else:
            out.append(char)
            i += 1
    return "".join(out)


# -- reference: the clamped parser token helpers ----------------------------
class ReferenceParser(Parser):
    def _peek(self, offset=0):
        index = min(self._pos + offset, len(self._tokens) - 1)
        return self._tokens[index]

    def _advance(self):
        token = self._tokens[self._pos]
        if token.kind != EOF:
            self._pos += 1
        return token

    def _check(self, kind, value=None):
        token = self._peek()
        if token.kind != kind:
            return False
        return value is None or token.value == value

    def _accept(self, kind, value=None):
        if self._check(kind, value):
            return self._advance()
        return None

    def _expect(self, kind, value=None):
        token = self._peek()
        if not self._check(kind, value):
            wanted = value if value is not None else kind
            raise parser_module.ParseError(
                f"expected {wanted!r}, found {token.value!r}", line=token.line
            )
        return self._advance()


# -- reference: the deepcopy rewrite ----------------------------------------
def reference_rewrite_expr(expr, mapping):
    if expr is None:
        return None
    if isinstance(expr, ast.Identifier):
        replacement = mapping.get(expr.name)
        if replacement is None:
            return ast.Identifier(expr.name)
        return copy.deepcopy(replacement)
    if isinstance(expr, (ast.IntConst, ast.BasedConst, ast.StringConst)):
        return copy.deepcopy(expr)
    rewrite = reference_rewrite_expr
    if isinstance(expr, ast.UnaryOp):
        return ast.UnaryOp(expr.op, rewrite(expr.operand, mapping))
    if isinstance(expr, ast.BinaryOp):
        return ast.BinaryOp(
            expr.op, rewrite(expr.left, mapping), rewrite(expr.right, mapping)
        )
    if isinstance(expr, ast.Ternary):
        return ast.Ternary(
            rewrite(expr.cond, mapping),
            rewrite(expr.true_value, mapping),
            rewrite(expr.false_value, mapping),
        )
    if isinstance(expr, ast.Concat):
        return ast.Concat([rewrite(p, mapping) for p in expr.parts])
    if isinstance(expr, ast.Repeat):
        return ast.Repeat(rewrite(expr.count, mapping), rewrite(expr.value, mapping))
    if isinstance(expr, ast.BitSelect):
        return ast.BitSelect(rewrite(expr.base, mapping), rewrite(expr.index, mapping))
    if isinstance(expr, ast.PartSelect):
        return ast.PartSelect(
            rewrite(expr.base, mapping),
            rewrite(expr.left, mapping),
            rewrite(expr.right, mapping),
            expr.mode,
        )
    if isinstance(expr, ast.FunctionCall):
        return ast.FunctionCall(expr.name, [rewrite(a, mapping) for a in expr.args])
    raise ElaborationError(f"cannot rewrite expression of type {type(expr).__name__}")


@contextmanager
def reference_front_end():
    """Run ``preprocess``, ``parse`` and ``elaborate`` on the references."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(preprocess_module, "strip_comments", reference_strip_comments)
        patch.setattr(parser_module, "tokenize", reference_tokenize)
        patch.setattr(parser_module, "Parser", ReferenceParser)
        patch.setattr(elaborate_module, "rewrite_expr", reference_rewrite_expr)
        yield


# -- whole-design equivalence -----------------------------------------------
def front_end(source):
    """Cleaned text, tokens, elaborated module and both levels' edge keys."""
    cleaned = preprocess(source)
    tokens = parser_module.tokenize(cleaned)
    flat = elaborate(parser_module.Parser(tokens).parse())
    # Neither lowering modifies the module, so both may start from it.
    netlist = netlist_to_ir(synthesize(flat))
    rtl = dfg_to_ir(trim(analyze(flat)))
    return cleaned, tokens, flat, netlist.edge_keys(), rtl.edge_keys()


def assert_front_end_matches_reference(source):
    cleaned, tokens, flat, netlist_keys, rtl_keys = front_end(source)
    with reference_front_end():
        expected = front_end(source)
    assert cleaned == expected[0]
    assert [tuple(token) for token in tokens] == [tuple(t) for t in expected[1]]
    assert flat == expected[2]
    for got, want in ((netlist_keys, expected[3]), (rtl_keys, expected[4])):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


def eval_corpus_sources():
    """The eval corpus netlists and the RTL designs they are synthesized from."""
    config = EvalConfig()
    families = list(config.families)
    rtl = [
        canonical_variant(name, offset=offset, seed=config.seed).verilog
        for offset, name in enumerate(families)
    ]
    variants = _netlist_variants(families, config.corpus_instances, config.seed)
    netlists = [write_netlist(net) for _, _, net in variants]
    return rtl + netlists


def suite_sources(data_seed):
    return [suspect.source for suspect in scenario_suite(EvalConfig(seed=data_seed))]


SUITE_SEEDS = (EvalConfig().seed, EvalConfig().seed + 1)


class TestDesignEquivalence:
    def test_eval_corpus_matches_reference(self):
        sources = eval_corpus_sources()
        assert len(sources) == len(DEFAULT_EVAL_FAMILIES) * 5
        for source in sources:
            assert_front_end_matches_reference(source)

    @pytest.mark.parametrize("data_seed", SUITE_SEEDS)
    def test_scenario_suite_matches_reference(self, data_seed):
        sources = suite_sources(data_seed)
        assert len(sources) == 308
        for source in sources:
            assert_front_end_matches_reference(source)


# -- malformed input --------------------------------------------------------
def outcome(function, text):
    """``("ok", result)`` or the error's type, message, line and column."""
    try:
        result = function(text)
    except VerilogError as error:
        location = (getattr(error, "line", None), getattr(error, "column", None))
        return type(error).__name__, str(error), location
    if isinstance(result, list):
        result = [tuple(token) for token in result]
    return "ok", result


def assert_same_outcomes(text):
    assert outcome(tokenize, text) == outcome(reference_tokenize, text), text
    assert outcome(strip_comments, text) == outcome(reference_strip_comments, text)
    got = outcome(parse, text)
    with reference_front_end():
        assert got == outcome(parse, text), text


#: Fragments that open, close or break every token kind.
FRAGMENTS = (
    "module",
    "endmodule",
    "wire",
    "assign",
    "a_1",
    "$x",
    "\\esc",
    "\\",
    "8'hFF",
    "'b01",
    "4'sb1x",
    "'",
    "8'",
    "8's",
    "16'd",
    "4'q",
    "1_000",
    '"s"',
    '"',
    "//",
    "/*",
    "*/",
    "/",
    "*",
    "`define",
    "<<<",
    "===",
    "+:",
    "~^",
    "(",
    ")",
    "[",
    ";",
    ",",
    "=",
    " ",
    "\t",
    "\n",
    "\r",
    "\f",
    "\v",
    "\x01",
    "\u00a0",
    "\u2003",
)

SEED_TEXTS = (
    "module m(input [7:0] a, output y);\n  assign y = ^a; // parity\nendmodule\n",
    "module t(input clk, output reg [3:0] q);\n"
    "  /* counter\n  body */ always @(posedge clk) q <= q + 4'b1;\nendmodule",
    'module s; parameter P = "x//y";'
    " wire \\w$[0] ; assign w = 8'shA_f; endmodule",
    "module g(a, b, y); input a, b; output y; xor x1 (y, a, b); endmodule",
)


def mutate(rng, text):
    """Insert, delete, replace or truncate at a few random offsets."""
    for _ in range(rng.randint(1, 4)):
        pos = rng.randint(0, len(text))
        action = rng.random()
        if action < 0.45:
            text = text[:pos] + rng.choice(FRAGMENTS) + text[pos:]
        elif action < 0.7:
            text = text[:pos] + text[pos + rng.randint(1, 3) :]
        elif action < 0.9:
            text = text[:pos] + rng.choice(FRAGMENTS) + text[pos + 1 :]
        else:
            text = text[:pos]
    return text


class TestMalformedInput:
    def test_mutation_fuzz_matches_reference(self):
        rng = random.Random(14)
        kinds = set()
        for _ in range(2500):
            text = mutate(rng, rng.choice(SEED_TEXTS))
            assert_same_outcomes(text)
            kinds.add(outcome(tokenize, text)[0])
        assert kinds == {"ok", "LexerError"}

    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.sampled_from(FRAGMENTS), max_size=24).map("".join))
    def test_fragment_fuzz_matches_reference(self, text):
        assert_same_outcomes(text)

    @pytest.mark.parametrize(
        "text", ["8'", "'", "8's", "8'S", "\n  'S", "a = 4'", '"', 'wire a = "ab']
    )
    def test_fixed_cases_match_reference(self, text):
        assert_same_outcomes(text)
