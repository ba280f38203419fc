"""The public input contract: every row of ``reference.CONTRACT`` reads its
values as the table says, every public parameter is a row or an exemption,
README shows the table as ``reference.render_contract`` renders it, and
README's code runs."""

import inspect
import re
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import proxcycle
import proxcycle.cli as cli
from proxcycle import CapabilityError, gallery
from proxcycle.spaces import _Record
from reference import CONTRACT, EXEMPT, HUGE_COUNTS, Gives, render_contract

README = Path(__file__).resolve().parent.parent / "README.md"
# The input records, the public records whose constructor is their own (one
# that reads, checks or derives): their constructors and public methods are
# entry points.
RECORDS = [
    record for record in map(proxcycle.__dict__.get, proxcycle.__all__)
    if isinstance(record, type) and issubclass(record, _Record) and "__init__" in vars(record)
]


VALUES = [(row, label) for row in CONTRACT for label in row.outcomes()]


@pytest.mark.parametrize("row, label", VALUES, ids=[f"{row}-{label}" for row, label in VALUES])
def test_each_row_reads_or_refuses_each_value_as_the_table_says(row, label):
    value, outcome = row.outcomes()[label]
    if outcome is None and label in HUGE_COUNTS:
        # A count that large is read, never run.
        assert row.domain.check(row.name or row.param, value) == value
    elif outcome is None:
        row.call(value)
    else:
        error, template = outcome
        with pytest.raises(Exception) as caught:
            row.call(value)
        assert type(caught.value) is (row.error or error)
        got, want = str(caught.value), row.message(template, label)
        prefix = want.removesuffix("...")
        assert got.startswith(prefix) if prefix != want else got == want, (got, want)


def typed(v):
    """(type, value) of ``v``, of each item too in a tuple or a list."""
    return type(v), tuple(map(typed, v)) if isinstance(v, (tuple, list)) else v


@pytest.mark.parametrize("row", [row for row in CONTRACT if row.accepts], ids=str)
def test_each_row_reads_its_boundary_values(row):
    for value in row.accepts:
        if isinstance(value, Gives):
            assert typed(row.call(value.value)) == typed(value.result), value
        else:
            row.call(value)


# Values beyond the awkward ones of the kinds: a negative zero, a float near
# the top of the range, an int past 64 bits, a complex, an empty tuple,
# floats, small ints and nested lists of them, and number strings.
DRAWN = st.one_of(
    st.sampled_from([-0.0, 1e308, 2**64, 1j, ()]),
    st.recursive(st.floats() | st.integers(-3, 3), partial(st.lists, max_size=3), max_leaves=4),
    (st.floats() | st.integers()).map(str),
)


@settings(max_examples=200, deadline=None)
@given(DRAWN)
def test_each_scalar_row_reads_a_drawn_value_or_refuses_it_with_a_documented_type(value):
    # The rows with a kind read a scalar, a point coordinate or a region; the
    # rest take a structure and are held by their cases alone.
    for row in (row for row in CONTRACT if row.kind):
        call = row.call
        if row.kind in ("count", "steps") and isinstance(value, int) and value >= 2**20:
            call = partial(row.domain.check, row.name or row.param)  # read, never run
        documented = (row.error or ValueError, CapabilityError)
        documented += (TypeError,) if row.kind == "region" else ()
        try:
            call(value)
        except documented:
            pass
        except Exception as exc:
            raise AssertionError(f"{row} raised {type(exc).__name__} for {value!r}") from exc


def public_parameters():
    """"entry.param" for every parameter of the public functions, of the
    CLI's three readers, and of the input records' constructors and public
    methods (``self`` left out)."""
    entries = {
        f.__name__: f for f in map(proxcycle.__dict__.get, proxcycle.__all__)
        if inspect.isfunction(f)
    }
    entries |= {f.__name__: f for f in (cli.parse_config, cli.load_config, cli.run_experiment)}
    for record in RECORDS:
        entries[record.__name__] = record
        for name in dir(record):
            method = inspect.getattr_static(record, name)
            if inspect.isfunction(method) and (not name.startswith("_") or name == "__call__"):
                entries[method.__qualname__] = method
    return [
        f"{entry}.{param}"
        for entry, f in entries.items()
        for param in inspect.signature(f).parameters
        if param != "self"
    ]


def test_every_public_parameter_is_a_row_or_an_exemption():
    rows = {f"{row.entry}.{row.param.split('[')[0]}" for row in CONTRACT}
    params = public_parameters()
    assert len(params) == len(set(params)) > 100
    assert [p for p in params if p not in rows and p not in EXEMPT] == []
    assert sorted(rows & set(EXEMPT)) == []
    assert sorted((rows | set(EXEMPT)) - set(params)) == []


def _readme_block(start, end):
    text = README.read_text()
    return text[text.index(start) + len(start) : text.index(end)]


def test_readme_shows_the_rendered_contract_table():
    shown = _readme_block("<!-- contract: begin -->\n", "<!-- contract: end -->")
    assert shown.splitlines() == render_contract()


@pytest.mark.parametrize(
    "block", re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
)
def test_readme_python_blocks_run(block):
    exec(compile(block, str(README), "exec"), {})


def removed_rows():
    """(removed name, replacement) for each "Removed names" row whose
    replacement is one expression."""
    table = _readme_block("## Removed names\n", "## Library example")
    return re.findall(r"^\| `([^`]*)` \| `([^`]*)` \|$", table, re.M)


@pytest.mark.parametrize("removed, replacement", removed_rows())
def test_readme_removed_names_are_gone_and_their_replacements_run(removed, replacement):
    # The removed name is gone from proxcycle (a removed attribute from its
    # class), and the replacement runs on a gallery system.
    owner, *attribute = re.match(r"[\w.]+", removed).group().split(".")
    if attribute:
        assert not hasattr(getattr(proxcycle, owner), *attribute)
    else:
        assert not hasattr(proxcycle, owner)
    gs = gallery.build("affine_strip")
    names = {
        **vars(proxcycle), "system": gs.system, "x0": gs.default_start, "p": 2, "q": 2,
        "trace": proxcycle.picard_orbit(gs.system, gs.default_start, 8), "v": (3.0, 4.0),
        "alpha": 0.5, "m": 2, "k": 3, "gap": 1.0, "generator": lambda n: (float(n),),
        "index_range": range(3),
    }
    eval(replacement, names)


def test_readme_removed_names_include_the_expression_rows():
    # An empty list would make the test above pass with no case.
    assert removed_rows()
