"""Tokenizer for the engine's SQL dialect."""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import SQLSyntaxError

KEYWORDS = frozenset(
    """
    select from where group by having order limit offset distinct as into
    insert values update set delete create drop table index unique primary
    key not null and or in is between like exists union all join inner left
    on array true false if asc desc alter add column default cluster using
    over partition
    """.split()
)

# Multi-character operators first so maximal munch works.
OPERATORS = [
    "<@", "@>", "&&", "||", "<=", ">=", "<>", "!=",
    "=", "<", ">", "+", "-", "*", "/", "%", "(", ")", ",", ".", ";",
    "[", "]", "?",
]


class TokenType(enum.Enum):
    KEYWORD = "keyword"
    IDENT = "ident"
    NUMBER = "number"
    STRING = "string"
    OPERATOR = "operator"
    PARAM = "param"
    EOF = "eof"


@dataclass(frozen=True)
class Token:
    type: TokenType
    value: str
    position: int

    def is_keyword(self, *names: str) -> bool:
        return self.type is TokenType.KEYWORD and self.value in names

    def is_op(self, *ops: str) -> bool:
        return self.type is TokenType.OPERATOR and self.value in ops


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
