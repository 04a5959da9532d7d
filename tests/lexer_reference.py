"""Reference lexer: the hand-written scanner, the oracle for the regex one.

:func:`repro.storage.parser.lexer.tokenize` scans SQL with one compiled
pattern.  This is the character-by-character loop it replaced: each branch
tests one token class at the current position, and operators are tried
in list order with ``str.startswith``.  The property suite in
``test_storage_parser.py`` requires both to return the same token types,
values and positions on every input, or to raise the same
:class:`~repro.errors.SQLSyntaxError` text at the same position.
"""

from __future__ import annotations

from repro.errors import SQLSyntaxError
from repro.storage.parser.lexer import KEYWORDS, Token, TokenType

# Multi-character operators first so maximal munch works.
OPERATORS = [
    "<@", "@>", "&&", "||", "<=", ">=", "<>", "!=",
    "=", "<", ">", "+", "-", "*", "/", "%", "(", ")", ",", ".", ";",
    "[", "]", "?",
]


def tokenize(sql: str) -> list[Token]:
    """Tokenize SQL text, raising :class:`SQLSyntaxError` on garbage."""
    tokens: list[Token] = []
    i = 0
    length = len(sql)
    while i < length:
        char = sql[i]
        if char.isspace():
            i += 1
            continue
        if sql.startswith("--", i):
            newline = sql.find("\n", i)
            i = length if newline == -1 else newline + 1
            continue
        if char == "'":
            j = i + 1
            parts = []
            while True:
                if j >= length:
                    raise SQLSyntaxError("unterminated string literal", i)
                if sql[j] == "'":
                    if j + 1 < length and sql[j + 1] == "'":
                        parts.append("'")
                        j += 2
                        continue
                    break
                parts.append(sql[j])
                j += 1
            tokens.append(Token(TokenType.STRING, "".join(parts), i))
            i = j + 1
            continue
        if char == '"':
            j = sql.find('"', i + 1)
            if j == -1:
                raise SQLSyntaxError("unterminated quoted identifier", i)
            tokens.append(Token(TokenType.IDENT, sql[i + 1 : j], i))
            i = j + 1
            continue
        # isdecimal, not isdigit: '²' and '①' are digits that int() rejects.
        if char.isdecimal() or (char == "." and sql[i + 1 : i + 2].isdecimal()):
            j = i
            seen_dot = False
            while j < length and (
                sql[j].isdecimal() or (sql[j] == "." and not seen_dot)
            ):
                if sql[j] == ".":
                    # Don't swallow "1." followed by an identifier (alias.col
                    # never follows a bare number in this dialect, but guard).
                    if j + 1 >= length or not sql[j + 1].isdecimal():
                        break
                    seen_dot = True
                j += 1
            tokens.append(Token(TokenType.NUMBER, sql[i:j], i))
            i = j
            continue
        if char == "%" and sql.startswith("%s", i):
            tokens.append(Token(TokenType.PARAM, "%s", i))
            i += 2
            continue
        if char.isalpha() or char == "_":
            j = i
            while j < length and (sql[j].isalnum() or sql[j] == "_"):
                j += 1
            word = sql[i:j]
            lowered = word.lower()
            if lowered in KEYWORDS:
                tokens.append(Token(TokenType.KEYWORD, lowered, i))
            else:
                tokens.append(Token(TokenType.IDENT, lowered, i))
            i = j
            continue
        matched = False
        for op in OPERATORS:
            if sql.startswith(op, i):
                if op == "?":
                    tokens.append(Token(TokenType.PARAM, "?", i))
                else:
                    tokens.append(Token(TokenType.OPERATOR, op, i))
                i += len(op)
                matched = True
                break
        if not matched:
            raise SQLSyntaxError(f"unexpected character {char!r}", i)
    tokens.append(Token(TokenType.EOF, "", length))
    return tokens
