"""Lexer for the synthesizable Verilog subset.

One compiled master regular expression scans the text left to right with
:meth:`re.Pattern.finditer`.  It skips whitespace and comments and matches
identifiers and keywords, based and plain numbers, strings, escaped
identifiers and operators (longest first).  Lines and columns come from a
binary search over the line start offsets.  Where no token can start, a
small diagnosis step raises the :class:`~repro.errors.LexerError` that fits:
an unterminated comment or string, a stray directive, a malformed based
literal, an empty escaped identifier or an unexpected character.

Comments and compiler directives are normally removed first by
:mod:`repro.verilog.preprocess`; the lexer still skips comments so it can
also be used standalone on clean snippets.
"""

import re
from bisect import bisect_right

from repro.errors import LexerError
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

_BASE_CHARS = frozenset("bBoOdDhH")

_SINGLE_CHARS = "".join(sorted(SINGLE_CHAR_OPERATORS - {"/"}))
#: Longest operators first; a "/" that opens an unterminated block comment
#: is an error, not an operator.
_OPERATOR = "|".join(
    [re.escape(op) for op in sorted(MULTI_CHAR_OPERATORS, key=len, reverse=True)]
    + [r"/(?!\*)", f"[{re.escape(_SINGLE_CHARS)}]"]
)

#: One match per token: whitespace and comments, then the first token
#: alternative that fits.  ``eof`` matches once only the skippable rest is
#: left, ``bad`` at the first character no token can start with.
_SCAN = re.compile(
    r"(?:[ \t\r\f\n]+|//[^\n]*|/\*[\s\S]*?\*/)*"
    r"(?:(?P<word>[A-Za-z_$][A-Za-z0-9_$]*)"
    rf"|(?P<punct>{_OPERATOR})"
    r"|(?P<based>(?:[0-9][0-9_]*)?'[sS]?[bBoOdDhH][0-9a-fA-FxXzZ?_]+)"
    r"|(?P<number>[0-9][0-9_]*)"
    r'|(?P<string>"[^"\n]*")'
    r"|(?P<escaped>\\\S+)"
    r"|(?P<eof>\Z)"
    r"|(?P<bad>[\s\S]))"
)
_NEWLINE = re.compile("\n")
#: Builds a :class:`Token` without the Python-level ``NamedTuple.__new__``.
_new_token = tuple.__new__


class Lexer:
    """Tokenizes Verilog source text.

    Usage::

        tokens = Lexer(source).tokenize()
    """

    def __init__(self, text):
        self._text = text

    def tokenize(self):
        """Return the full token list, terminated by a single EOF token."""
        return tokenize(self._text)


def tokenize(text):
    """Lex ``text`` and return the token list, terminated by one EOF token."""
    line_starts = [0]
    line_starts.extend(match.end() for match in _NEWLINE.finditer(text))
    line_starts.append(len(text) + 1)  # sentinel: the line after the last
    line, line_start, next_start = 1, 0, line_starts[1]
    tokens = []
    append = tokens.append
    for match in _SCAN.finditer(text):
        group = match.lastgroup
        start = match.start(group)
        if start >= next_start:
            line = bisect_right(line_starts, start)
            line_start, next_start = line_starts[line - 1], line_starts[line]
        column = start - line_start + 1
        if group == "word":
            value = match.group(group)
            kind = KEYWORD if value in KEYWORDS else IDENT
            append(_new_token(Token, (kind, value, line, column)))
        elif group == "punct":
            append(_new_token(Token, (PUNCT, match.group(group), line, column)))
        elif group == "number":
            value = match.group(group).replace("_", "")
            append(_new_token(Token, (NUMBER, value, line, column)))
        elif group == "based":
            append(_new_token(Token, (BASED_NUMBER, match.group(group), line, column)))
        elif group == "string":
            value = match.group(group)[1:-1]
            append(_new_token(Token, (STRING, value, line, column)))
        elif group == "escaped":
            append(_new_token(Token, (IDENT, match.group(group)[1:], line, column)))
        elif group == "eof":
            append(_new_token(Token, (EOF, "", line, column)))
            return tokens
        else:
            _diagnose(text, start, line_starts)


def _diagnose(text, pos, line_starts):
    """Raise the :class:`LexerError` for ``text[pos]``, where no token starts."""
    char = text[pos]
    if text.startswith("/*", pos):
        message, pos = "unterminated block comment", len(text)
    elif char == '"':
        end = text.find("\n", pos)
        message, pos = "unterminated string literal", end if end >= 0 else len(text)
    elif char == "'":
        pos += 1
        if text[pos : pos + 1] in ("s", "S"):
            pos += 1
        base = text[pos : pos + 1]
        if base in _BASE_CHARS:
            message, pos = "based literal has no digits", pos + 1
        else:
            message = f"invalid base character {base!r} in literal"
    elif char == "\\":
        message, pos = "empty escaped identifier", pos + 1
    elif char == "`":
        message = "stray compiler directive (run the preprocessor first)"
    else:
        message = f"unexpected character {char!r}"
    line = bisect_right(line_starts, pos)
    raise LexerError(message, line=line, column=pos - line_starts[line - 1] + 1)
