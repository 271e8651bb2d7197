"""Config fuzz: every shipped scenario, and the sweep's template, with one
key dropped, one unknown key added to an object, or one value replaced, is
either parsed or refused as a ``ConfigError`` at a key path; any other
exception fails, and so does a parse that accepts the added key.

The replacement values are fixed: a large magnitude such as a grid size
would make the parse evaluate the oracle on that many nodes.
"""

import copy
import json
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from harnacklab.scenarios import ConfigError, parse_scenario

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
VALUES = (None, "abc", [], {}, True, -1)


def _places(node, path=()):
    """The path of every value below ``node``: object keys and list indices."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield path + (key,)
        yield from _places(value, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


DOCS = {}
for _path in sorted(CONFIGS.glob("*.json")):
    _doc = json.loads(_path.read_text())
    DOCS[_path.stem] = _doc.get("template", _doc)
PLACES = {name: list(_places(doc)) for name, doc in DOCS.items()}


@st.composite
def mutated(draw):
    name = draw(st.sampled_from(sorted(DOCS)))
    doc, places = copy.deepcopy(DOCS[name]), PLACES[name]
    how = draw(st.sampled_from(("drop", "add", "replace")))
    if how == "add":
        objects = [p for p in [(), *places] if isinstance(_at(doc, p), dict)]
        _at(doc, draw(st.sampled_from(objects)))["fuzz_key"] = 1
        return how, doc
    *parent, key = draw(st.sampled_from(
        [p for p in places if isinstance(p[-1], str)] if how == "drop" else places))
    if how == "drop":
        del _at(doc, parent)[key]
    else:
        _at(doc, parent)[key] = draw(st.sampled_from(VALUES))
    return how, doc


@settings(max_examples=250, derandomize=True, database=None, deadline=None)
@given(mutated())
def test_mutated_config_is_parsed_or_refused_at_a_key_path(mutation):
    how, doc = mutation
    try:
        parse_scenario(doc)
    except ConfigError as exc:
        assert exc.path and not exc.path.startswith("."), str(exc)
    else:
        assert how != "add", "an unknown key was accepted"
