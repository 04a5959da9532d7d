"""Query translator: versioned SQL -> plain SQL (paper Sections 2.2/2.3).

Supports the demo paper's constructs on top of standard SQL:

* ``VERSION <v> OF CVD <name>`` — one version as a relation of the CVD's
  data attributes.  Several vids may be listed (``VERSION 2, 5 OF CVD x``);
  they are concatenated with UNION ALL.
* ``ALL VERSIONS OF CVD <name>`` — a relation of ``(vid, <data attrs>)``
  with one row per (version, record) membership pair, enabling aggregates
  grouped by version and version-predicate queries.
* ``VERSIONS ANCESTOR OF <vid> OF CVD <name>`` and
  ``VERSIONS DESCENDANT OF <vid> OF CVD <name>`` — lineage predicates: a
  relation of ``(vid, num_records, commit_t, msg)`` rows for every
  version on the requested axis, answered by the version graph's
  interval index (O(log n) probes, see :mod:`repro.core.lineage`) rather
  than a graph walk.  Like ``OVER`` in window functions, the words are
  non-reserved: ``versions``/``ancestor``/``descendant`` only open the
  construct when the full ``VERSIONS ANCESTOR OF <number>`` prefix is
  present, so they remain usable as ordinary identifiers.

Translation is purely textual-at-the-token-level: the construct's source
span is replaced with a derived-table subquery produced by the CVD's data
model, then the ordinary SQL engine runs the result.  An alias is appended
automatically when the query does not provide one (subqueries need one).

Data models that cannot express version retrieval in SQL (delta) make the
translator materialize the version into a temporary table and reference
that instead — the "extensive computation outside the database" cost the
paper attributes to delta storage.  :attr:`QueryTranslator.temps` names
the tables the last translation created; the caller drops them once the
statement has run.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.errors import SQLSyntaxError
from repro.storage.parser.lexer import Token, TokenType, tokenize

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.cvd import CVD


class QueryTranslator:
    """Rewrites versioned constructs in SQL text."""

    def __init__(self, cvd_lookup: Callable[[str], "CVD"]):
        self._cvd_lookup = cvd_lookup
        self._alias_counter = 0
        self._temp_counter = 0
        #: Temporary tables materialized by the last :meth:`translate`.
        self.temps: list[str] = []

    def translate(self, sql: str) -> str:
        """Rewrite every versioned construct in ``sql``; other text is kept."""
        self.temps = []
        tokens = tokenize(sql)
        spans = self._find_spans(tokens, sql)
        for start, end, replacement in reversed(spans):
            sql = sql[:start] + replacement + sql[end:]
        return sql

    # -------------------------------------------------------------- parsing

    def _find_spans(
        self, tokens: list[Token], sql: str
    ) -> list[tuple[int, int, str]]:
        spans: list[tuple[int, int, str]] = []
        i = 0
        while i < len(tokens):
            token = tokens[i]
            if token.type is TokenType.IDENT and token.value == "version":
                span = self._version_span(tokens, i, sql)
                if span is not None:
                    spans.append(span[0])
                    i = span[1]
                    continue
            if (
                token.type is TokenType.IDENT
                and token.value == "versions"
                and i + 3 < len(tokens)
                and tokens[i + 1].type is TokenType.IDENT
                and tokens[i + 1].value in ("ancestor", "descendant")
                and tokens[i + 2].type is TokenType.IDENT
                and tokens[i + 2].value == "of"
                and tokens[i + 3].type is TokenType.NUMBER
            ):
                span = self._lineage_span(tokens, i, sql)
                spans.append(span[0])
                i = span[1]
                continue
            if (
                token.is_keyword("all")
                and tokens[i + 1].type is TokenType.IDENT
                and tokens[i + 1].value == "versions"
            ):
                span = self._all_versions_span(tokens, i, sql)
                if span is not None:
                    spans.append(span[0])
                    i = span[1]
                    continue
            i += 1
        return spans

    def _version_span(self, tokens: list[Token], i: int, sql: str):
        j = i + 1
        vids: list[int] = []
        while tokens[j].type is TokenType.NUMBER:
            vids.append(int(tokens[j].value))
            j += 1
            if tokens[j].is_op(","):
                j += 1
            else:
                break
        if not vids:
            return None
        if not (tokens[j].type is TokenType.IDENT and tokens[j].value == "of"):
            return None
        j += 1
        if not (tokens[j].type is TokenType.IDENT and tokens[j].value == "cvd"):
            raise SQLSyntaxError("expected CVD after VERSION ... OF")
        j += 1
        if tokens[j].type is not TokenType.IDENT:
            raise SQLSyntaxError("expected a CVD name after CVD")
        cvd_name = tokens[j].value
        end = tokens[j].position + len(cvd_name)
        replacement = self._version_subquery(cvd_name, vids)
        replacement += self._maybe_alias(tokens, j + 1)
        return (tokens[i].position, end, replacement), j + 1

    def _all_versions_span(self, tokens: list[Token], i: int, sql: str):
        j = i + 2
        if not (tokens[j].type is TokenType.IDENT and tokens[j].value == "of"):
            return None
        j += 1
        if not (tokens[j].type is TokenType.IDENT and tokens[j].value == "cvd"):
            raise SQLSyntaxError("expected CVD after ALL VERSIONS OF")
        j += 1
        if tokens[j].type is not TokenType.IDENT:
            raise SQLSyntaxError("expected a CVD name after CVD")
        cvd_name = tokens[j].value
        end = tokens[j].position + len(cvd_name)
        cvd = self._cvd_lookup(cvd_name)
        replacement = cvd.model.all_versions_subquery_sql()
        replacement += self._maybe_alias(tokens, j + 1)
        return (tokens[i].position, end, replacement), j + 1

    def _lineage_span(self, tokens: list[Token], i: int, sql: str):
        """``VERSIONS ANCESTOR|DESCENDANT OF <vid> OF CVD <name>``.

        The caller only dispatches here on the full
        ``versions ancestor|descendant of <number>`` prefix — beyond that
        point the construct is committed and malformed tails are syntax
        errors (identical in both parse modes: rewriting happens before
        the parser ever runs).
        """
        axis = tokens[i + 1].value
        vid = int(tokens[i + 3].value)
        construct = f"VERSIONS {axis.upper()} OF {vid}"
        j = i + 4
        if not (tokens[j].type is TokenType.IDENT and tokens[j].value == "of"):
            raise SQLSyntaxError(f"expected OF CVD after {construct}")
        j += 1
        if not (tokens[j].type is TokenType.IDENT and tokens[j].value == "cvd"):
            raise SQLSyntaxError(f"expected CVD after {construct} OF")
        j += 1
        if tokens[j].type is not TokenType.IDENT:
            raise SQLSyntaxError("expected a CVD name after CVD")
        cvd_name = tokens[j].value
        end = tokens[j].position + len(cvd_name)
        cvd = self._cvd_lookup(cvd_name)
        cvd.graph.version(vid)  # raises VersionNotFoundError
        if axis == "ancestor":
            vids = sorted(cvd.graph.ancestors(vid))
        else:
            vids = sorted(cvd.graph.descendants(vid))
        # An empty axis keeps the same IN-list plan: vid 0 never exists.
        in_list = ", ".join(str(v) for v in vids) if vids else "0"
        replacement = (
            f"(SELECT vid, num_records, commit_t, msg FROM "
            f"{cvd.metadata_table} WHERE vid IN ({in_list}))"
        )
        replacement += self._maybe_alias(tokens, j + 1)
        return (tokens[i].position, end, replacement), j + 1

    def _maybe_alias(self, tokens: list[Token], j: int) -> str:
        """Append a generated alias unless the query supplies one."""
        follower = tokens[j]
        if follower.is_keyword("as") or follower.type is TokenType.IDENT:
            return ""
        self._alias_counter += 1
        return f" AS __cvd_rel_{self._alias_counter}"

    # ----------------------------------------------------------- generation

    def _version_subquery(self, cvd_name: str, vids: list[int]) -> str:
        cvd = self._cvd_lookup(cvd_name)
        if cvd.model.supports_sql_rewriting:
            parts = [cvd.model.version_subquery_sql(vid).strip() for vid in vids]
            if len(parts) == 1:
                return parts[0]
            body = " UNION ALL ".join(part[1:-1] for part in parts)
            return f"({body})"
        # Delta-style models: materialize first, then query the temp table.
        self._temp_counter += 1
        temp = f"__{cvd_name}_materialized_{self._temp_counter}"
        cvd.db.drop_table(temp, if_exists=True)
        self.temps.append(temp)
        cvd.checkout_into(list(vids), temp)
        columns = ", ".join(cvd.data_schema.column_names)
        return f"(SELECT {columns} FROM {temp})"
