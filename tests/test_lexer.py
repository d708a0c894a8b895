"""Unit tests for the Verilog lexer."""

import pytest

from repro.errors import LexerError
from repro.verilog.lexer import Lexer, tokenize
from repro.verilog.tokens import (
    BASED_NUMBER,
    EOF,
    IDENT,
    KEYWORD,
    NUMBER,
    PUNCT,
    STRING,
    Token,
)


def kinds(text):
    return [t.kind for t in tokenize(text)]


def values(text):
    return [t.value for t in tokenize(text)[:-1]]


class TestBasicTokens:
    def test_empty_input_gives_only_eof(self):
        tokens = tokenize("")
        assert len(tokens) == 1
        assert tokens[0].kind == EOF

    def test_identifier(self):
        tokens = tokenize("foo_bar9$x")
        assert tokens[0].kind == IDENT
        assert tokens[0].value == "foo_bar9$x"

    def test_keyword_recognized(self):
        tokens = tokenize("module wire assign")
        assert [t.kind for t in tokens[:-1]] == [KEYWORD] * 3

    def test_identifier_prefixed_by_keyword_is_ident(self):
        tokens = tokenize("wiremesh moduleX")
        assert [t.kind for t in tokens[:-1]] == [IDENT, IDENT]

    def test_decimal_number(self):
        tokens = tokenize("42")
        assert tokens[0].kind == NUMBER
        assert tokens[0].value == "42"

    def test_number_with_underscores(self):
        tokens = tokenize("1_000_000")
        assert tokens[0].value == "1000000"

    def test_based_number_hex(self):
        tokens = tokenize("8'hFF")
        assert tokens[0].kind == BASED_NUMBER
        assert tokens[0].value == "8'hFF"

    def test_based_number_unsized(self):
        tokens = tokenize("'b0101")
        assert tokens[0].kind == BASED_NUMBER

    def test_based_number_signed_marker(self):
        tokens = tokenize("4'sb1010")
        assert tokens[0].kind == BASED_NUMBER

    def test_based_number_with_x_z(self):
        tokens = tokenize("4'b1xz0")
        assert tokens[0].kind == BASED_NUMBER

    def test_string_literal(self):
        tokens = tokenize('"hello world"')
        assert tokens[0].kind == STRING
        assert tokens[0].value == "hello world"

    def test_escaped_identifier(self):
        tokens = tokenize("\\weird!name rest")
        assert tokens[0].kind == IDENT
        assert tokens[0].value == "weird!name"
        assert tokens[1].value == "rest"


class TestOperators:
    @pytest.mark.parametrize("op", ["<<<", ">>>", "===", "!==", "<<", ">>",
                                    "<=", ">=", "==", "!=", "&&", "||", "~&",
                                    "~|", "~^", "**", "+:", "-:"])
    def test_multichar_operator_is_single_token(self, op):
        tokens = tokenize(op)
        assert tokens[0].kind == PUNCT
        assert tokens[0].value == op

    def test_greedy_matching_of_shift(self):
        # "<<<" must lex as one token, not "<<" then "<".
        assert values("a <<< b") == ["a", "<<<", "b"]

    def test_single_char_operators(self):
        assert values("a+b-c") == ["a", "+", "b", "-", "c"]

    def test_brackets_and_braces(self):
        assert values("{a[1], b}") == ["{", "a", "[", "1", "]", ",", "b", "}"]


class TestCommentsAndWhitespace:
    def test_line_comment_skipped(self):
        assert values("a // comment\n b") == ["a", "b"]

    def test_block_comment_skipped(self):
        assert values("a /* x\ny */ b") == ["a", "b"]

    def test_unterminated_block_comment_raises(self):
        with pytest.raises(LexerError):
            tokenize("a /* never closed")

    def test_unterminated_block_comment_is_not_operators(self):
        # "/" and "*" are operators on their own; an open "/*" is not.
        assert values("a / * b") == ["a", "/", "*", "b"]
        with pytest.raises(LexerError) as excinfo:
            tokenize("a = b /* open\n  c;")
        assert str(excinfo.value) == \
            "unterminated block comment at line 2, column 5"

    def test_block_comment_opener_is_not_its_closer(self):
        with pytest.raises(LexerError, match="unterminated block comment"):
            tokenize("/*/ a")

    def test_line_numbers_tracked(self):
        tokens = tokenize("a\nb\n  c")
        assert tokens[0].line == 1
        assert tokens[1].line == 2
        assert tokens[2].line == 3
        assert tokens[2].column == 3


class TestErrors:
    def test_unexpected_character(self):
        with pytest.raises(LexerError):
            tokenize("a \x01 b")

    def test_stray_directive_rejected(self):
        with pytest.raises(LexerError):
            tokenize("`define X 1")

    def test_based_literal_without_digits(self):
        with pytest.raises(LexerError):
            tokenize("4'h")

    def test_bad_base_character(self):
        with pytest.raises(LexerError):
            tokenize("4'q1010")

    def test_unterminated_string(self):
        with pytest.raises(LexerError):
            tokenize('"no closing quote')

    def test_error_carries_location(self):
        with pytest.raises(LexerError) as excinfo:
            tokenize("ab\ncd \x02")
        assert excinfo.value.line == 2

    @pytest.mark.parametrize("text, column", [("8'", 3), ("'", 2),
                                               ("a = 16'", 8), ("8's", 4)])
    def test_based_literal_cut_after_apostrophe(self, text, column):
        # The missing base is reported just past the apostrophe (or the
        # sign), not one column further as if a sign had been read.
        with pytest.raises(LexerError) as excinfo:
            tokenize(text)
        assert "invalid base character '' in literal" in str(excinfo.value)
        assert (excinfo.value.line, excinfo.value.column) == (1, column)

    @pytest.mark.parametrize("text, message, line, column", [
        ('x = "open\ny', "unterminated string literal", 1, 10),
        ("\\ x", "empty escaped identifier", 1, 2),
        ("a\n `define", "stray compiler directive (run the preprocessor "
         "first)", 2, 2),
        ("4'q1", "invalid base character 'q' in literal", 1, 3),
        ("4'sh", "based literal has no digits", 1, 5),
        ("a \v b", "unexpected character '\\x0b'", 1, 3),
    ])
    def test_error_message_and_location(self, text, message, line, column):
        with pytest.raises(LexerError) as excinfo:
            tokenize(text)
        assert str(excinfo.value) == \
            f"{message} at line {line}, column {column}"
        assert (excinfo.value.line, excinfo.value.column) == (line, column)

    def test_eof_token_after_trailing_comment(self):
        eof = tokenize("a // tail\n/* x\n*/ ")[-1]
        assert (eof.kind, eof.line, eof.column) == (EOF, 3, 4)


class TestTokenContract:
    def test_immutable(self):
        token = tokenize("wire")[0]
        with pytest.raises(AttributeError):
            token.value = "reg"

    def test_compares_by_field(self):
        assert tokenize("wire")[0] == Token(KEYWORD, "wire", 1, 1)
        assert tokenize(" wire")[0] != Token(KEYWORD, "wire", 1, 1)
        assert hash(Token(IDENT, "a", 2, 3)) == hash(Token(IDENT, "a", 2, 3))

    def test_repr(self):
        assert repr(Token(IDENT, "a", 2, 3)) == "Token(IDENT, 'a', L2)"

    def test_lexer_class_wraps_tokenize(self):
        text = "module m; endmodule"
        assert Lexer(text).tokenize() == tokenize(text)


class TestRealisticSnippets:
    def test_module_header(self):
        text = "module top(input clk, output reg [7:0] q);"
        token_values = values(text)
        assert token_values[0] == "module"
        assert "input" in token_values
        assert token_values[-1] == ";"

    def test_gate_instance(self):
        assert values("xor g1 (s, a, b);") == \
            ["xor", "g1", "(", "s", ",", "a", ",", "b", ")", ";"]

    def test_nonblocking_assign_lexes_le(self):
        # '<=' is one token; the parser disambiguates assign vs compare.
        assert "<=" in values("q <= d;")
