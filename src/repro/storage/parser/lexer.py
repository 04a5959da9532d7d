"""Tokenizer for the engine's SQL dialect: one compiled pattern, matched in a loop.

The group that matched is the token's class.  In order: whitespace and
``--`` comments; a string, ``''`` being a quote (``(?!')`` stops it closing
on the first quote of a ``''``); a quoted identifier; a lone quote; a
number (``\\d`` is ``str.isdecimal``); a parameter; a word; an operator,
longest first.  A word starts with a letter (``str.isalpha``) or ``_``:
``[^\\W\\d]`` also admits ``²`` and ``①``, refused there as unexpected.
"""

from __future__ import annotations

import enum
import re

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


class TokenType(enum.Enum):
    KEYWORD = "keyword"
    IDENT = "ident"
    NUMBER = "number"
    STRING = "string"
    OPERATOR = "operator"
    PARAM = "param"
    EOF = "eof"


class Token:
    __slots__ = ("type", "value", "position")

    def __init__(self, type: TokenType, value: str, position: int):
        self.type, self.value, self.position = type, value, position

    def is_keyword(self, *names: str) -> bool:
        return self.type is TokenType.KEYWORD and self.value in names

    def is_op(self, *ops: str) -> bool:
        return self.type is TokenType.OPERATOR and self.value in ops


_PATTERN = re.compile(
    r"(?P<skip>(?:\s+|--[^\n]*)+)"
    r"|(?P<string>'[^']*(?:''[^']*)*'(?!'))"
    r'|(?P<quoted>"[^"]*")'
    r"""|(?P<open>['"])"""
    r"|(?P<number>\d+(?:\.\d+)?|\.\d+)"
    r"|(?P<param>%s|\?)"
    r"|(?P<word>[^\W\d]\w*)"
    # Two-character operators before the one-character class: maximal munch.
    r"|(?P<operator><@|@>|&&|\|\||<=|>=|<>|!=|[=<>+\-*/%(),.;\[\]])"
)
_TYPES = {token_type.value: token_type for token_type in TokenType}


def tokenize(sql: str) -> list[Token]:
    """Tokenize SQL text, raising :class:`SQLSyntaxError` on garbage."""
    tokens: list[Token] = []
    pos, length = 0, len(sql)
    while pos < length:
        found = _PATTERN.match(sql, pos)
        kind, text = (found.lastgroup, found.group()) if found else ("", "")
        if kind == "word" and (text[0].isalpha() or text[0] == "_"):
            text = text.lower()
            word = TokenType.KEYWORD if text in KEYWORDS else TokenType.IDENT
            tokens.append(Token(word, text, pos))
        elif kind == "string":
            tokens.append(Token(TokenType.STRING, text[1:-1].replace("''", "'"), pos))
        elif kind == "quoted":
            tokens.append(Token(TokenType.IDENT, text[1:-1], pos))
        elif kind in _TYPES:
            tokens.append(Token(_TYPES[kind], text, pos))
        elif kind == "open":
            what = "string literal" if text == "'" else "quoted identifier"
            raise SQLSyntaxError(f"unterminated {what}", pos)
        elif kind != "skip":
            raise SQLSyntaxError(f"unexpected character {sql[pos]!r}", pos)
        pos = found.end()
    tokens.append(Token(TokenType.EOF, "", length))
    return tokens
