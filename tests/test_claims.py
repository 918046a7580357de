"""Every bundled claim is falsifiable: changing an expected value of any
bundled check entry makes that entry print a FAIL line or exit 2.

A check whose verdict does not depend on its expected value is silently
vacuous; this sweep finds one as soon as it is added.  Each `expect*` field
of every entry of every bundled file is mutated: numbers
by +-1, booleans negated, "p/q" strings by +1, names renamed, list elements
dropped, duplicated or changed, and class-map keys deleted or changed.

The other fields are swept too, for a refusal by a built-in exception: a
value the code cannot handle must be an input error that names its field,
or a refusal that names its cause, never a `SKIP` showing a `ValueError`.
"""

import builtins
import functools
import json
import pathlib
from fractions import Fraction

import pytest

from scw.checks import FIELDS, run_check
from scw.report import FAIL, UNSUPPORTED
from scw.workbench import SpecError, Workbench, bundled_fixture_names, parse_data

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "src" / "scw" / "fixtures"
# optional keys of an expected map: like an optional field, absent is no claim
OPTIONAL_KEYS = {"k2_cover"}


@functools.cache
def _file(name: str) -> dict:
    return json.loads((FIXTURES / name).read_text())


@functools.cache
def _workbench(name: str) -> Workbench:
    return Workbench(parse_data(_file(name), where=name))


ENTRIES = [(name, i) for name in bundled_fixture_names()
           for i, entry in enumerate(_file(name)["checks"])
           if any(key.startswith("expect") for key in entry)]


def mutations(value):
    """Values near `value` that a claim must tell apart from it."""
    if isinstance(value, bool):
        yield not value
    elif isinstance(value, int):
        yield from (value + 1, value - 1)
    elif isinstance(value, str):
        try:
            yield str(Fraction(value) + 1)
        except ValueError:
            yield value + "x"
    elif value is None:
        yield [0, 0]
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield value[:i] + value[i + 1:]
            yield value[:i + 1] + value[i:]
            for changed in mutations(item):
                yield value[:i] + [changed] + value[i + 1:]
    elif isinstance(value, dict):
        for key, item in value.items():
            if key not in OPTIONAL_KEYS:
                yield {k: v for k, v in value.items() if k != key}
            for changed in mutations(item):
                yield {**value, key: changed}


def verdict(name: str, entry: dict) -> str:
    """"exit 2" when the entry is an input error, "FAIL" when one of its
    report lines fails, else the statuses of its report lines."""
    try:
        wf = parse_data({**_file(name), "checks": [entry]}, where=name)
        statuses = {c.status for c in run_check(_workbench(name), wf.checks[0])}
    except SpecError:
        return "exit 2"
    return "FAIL" if FAIL in statuses else ",".join(sorted(statuses))


@pytest.mark.parametrize("name, index", ENTRIES,
                         ids=[_file(name)["checks"][i]["name"] for name, i in ENTRIES])
def test_every_expected_value_is_a_claim(name, index):
    entry = _file(name)["checks"][index]
    assert verdict(name, entry) == "pass"
    survivors = []
    for key, value in entry.items():
        if key.startswith("expect"):
            for changed in mutations(value):
                got = verdict(name, {**entry, key: changed})
                if got not in ("FAIL", "exit 2"):
                    survivors.append((key, changed, got))
    assert not survivors


def test_entries_left_out_of_the_sweep_have_no_expected_field():
    for name in bundled_fixture_names():
        for i, entry in enumerate(_file(name)["checks"]):
            if (name, i) not in ENTRIES:
                required, optional = FIELDS[entry["kind"]]
                assert not any(f.startswith("expect") for f in (*required, *optional))


def field_mutations(value):
    """Values of a field that is not a claim, in its type but maybe outside
    its domain: integers to 0, -1, -v, 2v and v+1, rationals to "0", "-1"
    and "1/2", lists emptied and extended by their first element, and the
    elements and map values changed the same way."""
    if isinstance(value, bool):
        return
    if isinstance(value, int):
        yield from (0, -1, -value, 2 * value, value + 1)
    elif isinstance(value, str):
        try:
            Fraction(value)
        except ValueError:
            return
        yield from ("0", "-1", "1/2")
    elif isinstance(value, list):
        yield []
        yield value + value[:1]
        for i, item in enumerate(value):
            for changed in field_mutations(item):
                yield value[:i] + [changed] + value[i + 1:]
    elif isinstance(value, dict):
        for key, item in value.items():
            for changed in field_mutations(item):
                yield {**value, key: changed}


ALL_ENTRIES = [(name, i) for name in bundled_fixture_names()
               for i in range(len(_file(name)["checks"]))]


@pytest.mark.parametrize("name, index", ALL_ENTRIES,
                         ids=[_file(name)["checks"][i]["name"] for name, i in ALL_ENTRIES])
def test_no_field_value_is_refused_by_a_builtin_exception(name, index):
    entry = _file(name)["checks"][index]
    faults = []
    for key, value in entry.items():
        if key.startswith("expect"):
            continue
        for changed in field_mutations(value):
            try:
                wf = parse_data({**_file(name), "checks": [{**entry, key: changed}]}, where=name)
            except SpecError:
                continue
            for check in run_check(_workbench(name), wf.checks[0]):
                cause = check.computed.partition(":")[0]
                if check.status == UNSUPPORTED and isinstance(getattr(builtins, cause, None), type):
                    faults.append((key, changed, check.computed))
    assert not faults
