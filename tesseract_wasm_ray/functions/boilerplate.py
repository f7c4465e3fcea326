"""DOM-heuristic main-content extraction (HTML boilerplate stripper).

Required by the north rule (BASELINE.json ``north_rule``); the reference
has no equivalent (its closest analogues are the hOCR *emitter*,
/root/reference/src/lib.cpp:216-240, and the demo's empty-box filter,
/root/reference/examples/web/ocr-app.js:173) — SURVEY.md §2.9.

From-scratch, deterministic, dependency-free:

1. a regex/stack tokenizer walks tags; content inside
   ``<script> <style> <nav> <footer> <header> <aside> <form>`` subtrees
   and comments is dropped entirely;
2. remaining text is segmented into blocks at block-level tags;
3. each block is scored: text length, link density (chars inside ``<a>``
   / total chars), and class/id hints (``content|main|article|body|post``
   boost, ``sidebar|menu|banner|ad|promo|comment|related`` drop);
4. kept blocks are entity-decoded, whitespace-normalized, and joined
   with ``\\n``.

Pure function of the input string -> usable in stateless ``map_batches``;
the pipeline stage (stages/strip.py) runs it as plain map tasks; the
compiled regexes are built once per worker process at import.
"""

from __future__ import annotations

import re

DROP_SUBTREE = {"script", "style", "nav", "footer", "header", "aside", "form", "noscript"}
BLOCK_TAGS = {
    "p", "div", "section", "article", "main", "br", "li", "ul", "ol",
    "h1", "h2", "h3", "h4", "h5", "h6", "td", "tr", "table", "blockquote",
    "pre", "body", "html", "title", "head",
} | DROP_SUBTREE

POSITIVE_HINT = re.compile(r"(?:^|[\s_-])(content|main|article|body|post|text|entry)(?:$|[\s_-])", re.I)
NEGATIVE_HINT = re.compile(r"(?:^|[\s_-])(sidebar|menu|banner|ad|ads|promo|comment|related|share|social|widget|breadcrumb)(?:$|[\s_-])", re.I)

# Attribute body: plain chars, quoted values (which may contain '>'),
# or — HTML5-tokenizer-style error recovery — an UNTERMINATED quote that
# runs to the tag's '>' (e.g. ``<a ;;;">``), so malformed tags never
# leak through as text.
TAG_RE = re.compile(
    r"<(/?)([a-zA-Z][a-zA-Z0-9]*)((?:[^>\"']|\"[^\"]*\"|'[^']*'|[\"'][^>]*)*)>|<!--.*?-->",
    re.S,
)
ATTR_RE = re.compile(r"(class|id)\s*=\s*(\"([^\"]*)\"|'([^']*)'|(\S+))", re.I)
WS_RE = re.compile(r"\s+")

ENTITIES = {
    "&amp;": "&", "&lt;": "<", "&gt;": ">", "&quot;": '"',
    "&#39;": "'", "&apos;": "'", "&nbsp;": " ",
}
ENTITY_RE = re.compile("|".join(ENTITIES))

MIN_BLOCK_CHARS = 12
MAX_LINK_DENSITY = 0.33

# Void elements never close — they must not push scope onto the hint
# stack (an unpopped <br> entry would leak its parent's hint onto
# unrelated later blocks).
VOID_TAGS = {"br", "hr", "img", "input", "meta", "link", "col", "area", "wbr"}


def _decode(text: str) -> str:
    return ENTITY_RE.sub(lambda m: ENTITIES[m.group(0)], text)


def _hints(attrs: str) -> int:
    """+1 positive, -1 negative, 0 neutral for a tag's class/id attrs."""
    score = 0
    for m in ATTR_RE.finditer(attrs):
        val = m.group(3) or m.group(4) or m.group(5) or ""
        if NEGATIVE_HINT.search(val):
            score -= 1
        elif POSITIVE_HINT.search(val):
            score += 1
    return score


def strip_boilerplate(html: str) -> str:
    """HTML-ish markup -> main-content plain text (blocks joined by \\n).

    Plain text (no tags) passes through with whitespace normalization.
    """
    if "<" not in html:
        return WS_RE.sub(" ", _decode(html)).strip()

    # Block under construction: [chars], link_chars, hint
    blocks: list[tuple[str, int, int]] = []
    cur: list[str] = []
    cur_link = 0
    drop_depth = 0          # inside a DROP_SUBTREE element
    link_depth = 0          # inside <a>
    # (tag, cumulative hint) scopes; closes pop to the nearest matching
    # open tag (tolerant of unclosed block tags in HTML-ish input).
    hint_stack: list[tuple[str, int]] = [("", 0)]

    def flush() -> None:
        nonlocal cur, cur_link
        text = WS_RE.sub(" ", "".join(cur)).strip()
        if text:
            blocks.append((text, cur_link, hint_stack[-1][1]))
        cur = []
        cur_link = 0

    pos = 0
    for m in TAG_RE.finditer(html):
        if m.start() > pos and drop_depth == 0:
            seg = _decode(html[pos : m.start()])
            cur.append(seg)
            if link_depth:
                cur_link += len(WS_RE.sub(" ", seg).strip())
        pos = m.end()
        if m.group(2) is None:
            continue  # comment
        closing, tag = m.group(1) == "/", m.group(2).lower()
        attrs = m.group(3) or ""
        self_closing = attrs.rstrip().endswith("/")
        if tag in DROP_SUBTREE and not self_closing:
            if closing:
                drop_depth = max(0, drop_depth - 1)
            else:
                if drop_depth == 0:
                    flush()
                drop_depth += 1
            continue
        if drop_depth:
            continue
        if tag == "a":
            link_depth = max(0, link_depth - 1) if closing else link_depth + 1
            continue
        if tag in BLOCK_TAGS:
            flush()
            if not closing and not self_closing and tag not in VOID_TAGS:
                hint_stack.append((tag, hint_stack[-1][1] + _hints(attrs)))
            elif closing:
                for i in range(len(hint_stack) - 1, 0, -1):
                    if hint_stack[i][0] == tag:
                        del hint_stack[i:]
                        break
    if pos < len(html) and drop_depth == 0:
        seg = _decode(html[pos:])
        cur.append(seg)
        if link_depth:
            cur_link += len(WS_RE.sub(" ", seg).strip())
    flush()

    kept = []
    for text, link_chars, hint in blocks:
        if hint < 0:
            continue
        if hint > 0:
            kept.append(text)
            continue
        if len(text) < MIN_BLOCK_CHARS:
            continue
        if link_chars / max(1, len(text)) > MAX_LINK_DENSITY:
            continue
        kept.append(text)
    return "\n".join(kept)
