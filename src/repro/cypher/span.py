"""Source spans: where a token or AST node sits in the query text.

Every token records its offset plus the 1-based line/column the lexer
computed while scanning; the parser threads those spans onto the AST
nodes it builds.  Diagnostics (``repro.analysis``) and semantic errors
use them to point at the offending query text instead of describing it.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    """A position (and optional extent) in the original query string."""

    offset: int
    line: int
    column: int
    length: int = 0

    def __str__(self):
        return "line %d, column %d" % (self.line, self.column)

    def excerpt(self, query_text):
        """A rustc-style excerpt: line-number gutter plus caret underline.

        ::

              --> line 1, column 16
               |
             1 | MATCH (a) WHERE ghost.x = 1 RETURN a
               |                 ^^^^^
        """
        lines = query_text.splitlines() or [""]
        index = min(self.line, len(lines)) - 1
        source_line = lines[index]
        number = str(index + 1)
        gutter = " " * len(number)
        caret = " " * (self.column - 1) + "^" * max(self.length, 1)
        return "\n".join([
            "%s --> %s" % (gutter, self),
            "%s |" % gutter,
            "%s | %s" % (number, source_line),
            "%s | %s" % (gutter, caret),
        ])


def span_at(query_text, offset, length=0):
    """Compute the :class:`Span` of ``offset`` within ``query_text``."""
    prefix = query_text[:offset]
    line = prefix.count("\n") + 1
    last_newline = prefix.rfind("\n")
    column = offset - last_newline  # works for -1 too: offset + 1
    return Span(offset=offset, line=line, column=column, length=length)
