"""Prepared paths: a text is parsed, checked and compiled once per shape.

``parse_xpath`` lifts a text's ``=`` constants out with one regex,
parses the remaining shape once and binds the constants back in; the
schema check and the compiled program are keyed on the shape too.  The
differential here holds every path text the grammar below generates —
quoted constants with doubled quotes, ``label()=A``, ``.=v``, numbers,
constants that read like keywords, nested filters and ``//`` — and
every text one edit away from one, to the unlifted parse:

- ``parse_xpath(t)`` equals ``_parse(t)``, and so does its ``str``, and
  its ``params`` are the text's distinct constants in order (so the
  parse went through the shape); a text the parser refuses raises the
  same ``XPathSyntaxError``, whose message quotes the caller's text,
  not the shape;
- the bound program's plans equal a direct compile of the path;
- ``reachable_types`` equals an uncached schema evaluation.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core import dag_eval
from repro.dtd.parser import parse_dtd
from repro.dtd.validate import StaticValidator
from repro.errors import XPathSyntaxError
from repro.xpath.ast import (
    ExistsPath,
    FAnd,
    FilterStep,
    FNot,
    FOr,
    ValueEq,
    XPath,
)
from repro.xpath.parser import _parse, parse_xpath

_VALIDATOR = StaticValidator(parse_dtd(
    "<!ELEMENT r (a*, b*)> <!ELEMENT a (b*, c*, k*)> "
    "<!ELEMENT b (a*, k*)> <!ELEMENT c (k)>"
))

_labels = st.sampled_from(["a", "b", "c", "k"])
_spaces = st.sampled_from(["", " ", "  "])


def _quoted(value: str, quote: str) -> str:
    return quote + value.replace(quote, quote * 2) + quote


_constants = st.one_of(
    st.builds(
        _quoted,
        st.text(alphabet="ab\"' =[]()/.1", max_size=5),
        st.sampled_from(["'", '"']),
    ),
    st.integers(0, 999).map(str),
    st.tuples(st.integers(0, 99), st.integers(0, 99)).map(
        lambda pair: f"{pair[0]}.{pair[1]}"
    ),
    st.sampled_from(["x", "CS650", "and", "or", "not", "label", "a-b", "_v"]),
)


def _compare(left: str):
    return st.builds(
        lambda sp1, constant, sp2: f"{left}{sp1}={sp2}{constant}",
        _spaces, _constants, _spaces,
    )


def _steps(filters):
    step = st.builds(
        lambda name, qs: name + "".join(f"[{q}]" for q in qs),
        st.one_of(_labels, st.just("*")),
        st.lists(filters, max_size=2),
    )
    return st.builds(
        lambda lead, first, rest: lead + first + "".join(
            sep + s for sep, s in rest
        ),
        st.sampled_from(["", "//"]),
        step,
        st.lists(st.tuples(st.sampled_from(["/", "//"]), step), max_size=2),
    )


def _filters(inner):
    relative = _steps(inner)
    atom = st.one_of(
        relative,
        relative.flatmap(_compare),
        _compare("."),
        _labels.map(lambda label: f"label()={label}"),
        _labels.map(lambda label: f"label() = {label}"),
    )
    return st.one_of(
        atom,
        st.builds(lambda q: f"not({q})", inner),
        st.builds(lambda q: f"({q})", inner),
        st.builds(lambda p, q: f"{p} and {q}", atom, inner),
        st.builds(lambda p, q: f"{p} or {q}", atom, inner),
    )


_filter = st.recursive(_compare("k"), _filters, max_leaves=6)

_texts = st.builds(
    lambda lead, body, tail: lead + body + tail,
    st.sampled_from(["", "/", "//"]),
    _steps(_filter),
    st.sampled_from(["", "", "//"]),
)


@st.composite
def _edited(draw) -> str:
    """A generated text with one character deleted, doubled or replaced."""
    text = draw(_texts)
    at = draw(st.integers(0, len(text) - 1))
    kind = draw(st.sampled_from(["delete", "double", "replace"]))
    if kind == "delete":
        return text[:at] + text[at + 1:]
    if kind == "double":
        return text[:at] + text[at] + text[at:]
    return text[:at] + draw(st.sampled_from("=[]()'\" ./1x")) + text[at + 1:]


def _outcome(parse, text):
    try:
        return parse(text)
    except XPathSyntaxError as exc:
        return exc


def _compared(node, out: dict) -> dict:
    """The distinct constants ``node`` compares to, in text order."""
    if isinstance(node, XPath):
        for step in node.steps:
            if isinstance(step, FilterStep):
                _compared(step.filter, out)
    elif isinstance(node, (ExistsPath, ValueEq)):
        _compared(node.path, out)
        if isinstance(node, ValueEq):
            out.setdefault(node.value, len(out))
    elif isinstance(node, (FAnd, FOr)):
        for part in node.parts:
            _compared(part, out)
    elif isinstance(node, FNot):
        _compared(node.part, out)
    return out


def _plans(program) -> tuple:
    return (
        program.steps, program.path_plans, program.filter_plans,
        program.seeds,
    )


@given(text=st.one_of(_texts, _edited()))
@settings(max_examples=400, deadline=None)
@example(text="a[k=1 and b/k=\"x\"\"y\" or .='1' and label()=a]")
@example(text="a[k=1.5.5]")
@example(text="a[k=x\"y\"]")
@example(text="a[(k)=1]")
@example(text="a[k='it''s' and k=it]/b")
def test_a_prepared_path_is_the_parse_of_its_text(text):
    prepared, direct = _outcome(parse_xpath, text), _outcome(_parse, text)
    if isinstance(direct, XPathSyntaxError):
        assert isinstance(prepared, XPathSyntaxError), text
        assert str(prepared) == str(direct)
        assert repr(text) in str(prepared)
        return
    assert prepared == direct and str(prepared) == str(direct), text
    assert parse_xpath(text) is prepared
    # Every constant was lifted: the text went through its shape.
    assert prepared.params == tuple(_compared(direct, {})), text
    assert (prepared.shape is None) == (not prepared.params), text
    plain = XPath(direct.steps)
    want = _plans(dag_eval._compile.__wrapped__(plain))
    if prepared.shape is not None:
        assert prepared.shape.bind(prepared.params) == prepared
        assert _plans(dag_eval._compile(prepared.shape).bind(prepared.params)) == want
    assert _plans(dag_eval._compile(prepared)) == want
    assert _VALIDATOR.reachable_types(prepared) == _VALIDATOR._evaluate(plain)


@pytest.mark.parametrize("text", [
    "a[k=]", "a[k='x]", "a[b=1 and c=", "a[k=1]]", "a[k=\"q\"\"]",
])
def test_a_refused_text_is_quoted_as_written(text):
    with pytest.raises(XPathSyntaxError) as exc:
        parse_xpath(text)
    assert repr(text) in str(exc.value)
