"""Property tests of the command line against hostile inputs: generated
config documents, option values and ``--rho0`` files, driven through
``cli.main``.

The documents start from a small valid config and replace fields with
wrong JSON types, huge integers (some past the float range, some past the
4300 digits ``int()`` parses), subnormals, +-0, extreme and non-finite
floats and nested junk.  Every run must end in a documented exit code
(0-4) without a traceback or a Python warning; a nonzero exit must say why
on stderr; and a second run of the same command must write the same
data-file bytes.  Valid sweeps are kept at 11 points or fewer.
"""

import contextlib
import io
import json
import re
import tempfile
import warnings
from pathlib import Path

import pytest

from eit3.cli import main
from eit3.optics import ANGULAR_CONVENTIONS, MAX_POINTS

pytest.importorskip("hypothesis")
from hypothesis import given, note, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

CLI_SETTINGS = settings(derandomize=True, max_examples=120, deadline=None,
                        database=None)

# a line that says why a run failed: eit3's own, or argparse's usage error
REASON = re.compile(r"^(config error|error|warning): |^eit3( \w+)?: error: ",
                    re.MULTILINE)
# a Python warning as the interpreter prints it, e.g. numpy's
# "RuntimeWarning: overflow encountered in multiply"
WARNING = re.compile(r"\w+Warning: ")


class Token(str):
    """A JSON text written verbatim, for numbers json.dumps cannot write."""


def dump(doc) -> str:
    if isinstance(doc, Token):
        return str(doc)
    if isinstance(doc, dict):
        return "{%s}" % ",".join(f"{json.dumps(key)}:{dump(value)}"
                                 for key, value in doc.items())
    if isinstance(doc, list):
        return "[%s]" % ",".join(map(dump, doc))
    return json.dumps(doc)


TOKENS = st.sampled_from([Token(text) for text in (
    "9" * 5000, "-" + "1" * 4301, "1" + "0" * 400, "1e400", "-1e400",
    "1e-400", "-0", "0e0", "5e-324", "[" * 3000 + "]" * 3000)])
NUMBERS = st.one_of(
    st.floats(),
    st.integers(),
    st.integers(min_value=2**1024) | st.integers(max_value=-2**1024),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     1e-300, 1e300, 1.7976931348623157e308,
                     -1.7976931348623157e308]),
    TOKENS)
JUNK = st.recursive(
    st.none() | st.booleans() | st.text(max_size=3) | NUMBERS,
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=6)
# relative to the output directory; never a generated string, which could
# name a file anywhere
PATHS = st.sampled_from(["out.csv", "out.json", "sub/out.csv", "", ".", "..",
                         "a/../b.csv", "nul\x00.csv"])
OPTION_VALUES = st.one_of(
    st.sampled_from(["0", "-0.0", "2.5", "1e-3", "nan", "inf", "-inf",
                     "1e400", "5e-324", "1e-300", "1e300", "abc", ""]),
    st.floats().map(repr))

BASE = {
    "config": "lambda",
    "g_probe": 0.5, "g_pump": 105.0, "gamma_a": 0.1, "gamma_b": 6.0,
    "delta_pump": 0.0,
    "sweep": {"min": -30.0, "max": 30.0, "points": 5},
    "optics": {"n0": 1e21, "mu": 9.2740100657e-24, "omega_probe": 2.37e9},
    "backend": "both",
    "output": {"path": "out.csv", "format": "csv"},
}


def small(points):
    """A valid point count above 11 becomes 11: the sweep stays small."""
    if type(points) is int and 11 < points <= MAX_POINTS:
        return 11
    return points


REMOVE = object()  # a change that deletes the key


class Section(dict):
    """Changes to the keys of a config section, not a junk object."""


@st.composite
def changes(draw, spec: dict, most: int = 2):
    """Up to ``most`` keys of ``spec``, each with a value drawn from its
    strategy or REMOVE: the rest of a document stays valid, so the checks
    after the first bad field are reached too."""
    keys = draw(st.lists(st.sampled_from(sorted(spec)), max_size=most,
                         unique=True))
    return {key: draw(spec[key] | st.just(REMOVE)) for key in keys}


def section(spec: dict):
    return JUNK | changes(spec).map(Section)


CONFIGS = changes({
    "config": st.sampled_from(["lambda", "cascade", "vee"]) | JUNK,
    **{name: st.floats(0.0, 1e3) | NUMBERS | JUNK
       for name in ("g_probe", "g_pump", "gamma_a", "gamma_b", "delta_pump")},
    "sweep": section({
        "min": NUMBERS | JUNK, "max": NUMBERS | JUNK,
        "points": (st.integers(-3, 11)
                   | st.integers(min_value=MAX_POINTS + 1) | JUNK).map(small)}),
    "optics": section({
        "n0": NUMBERS | JUNK, "mu": NUMBERS | JUNK,
        "omega_probe": NUMBERS | JUNK,
        "angular_convention": st.sampled_from([*ANGULAR_CONVENTIONS, None])
                              | JUNK}),
    "backend": st.sampled_from(["numeric", "analytic", "both"]) | JUNK,
    "output": section({
        "path": PATHS | JUNK.filter(lambda value: not isinstance(value, str)),
        "format": st.sampled_from(["csv", "json"]) | JUNK}),
    "extra": JUNK,
})
MATRICES = st.one_of(
    st.just([[0, 0, 0], [0, 0, 0], [0, 0, 1]]),
    st.lists(st.lists(NUMBERS, min_size=3, max_size=3), min_size=3,
             max_size=3),
    JUNK)
# a --rho0 value, or the document of a --rho0 file
RHO0 = st.sampled_from(["ground", "mixed", "missing.json"]) | st.one_of(
    changes({"rho_real": MATRICES, "rho_imag": MATRICES, "extra": JUNK},
            most=3).map(lambda doc: {key: value for key, value in doc.items()
                                     if value is not REMOVE}),
    JUNK).map(lambda doc: [doc])


def config_document(edits: dict) -> dict:
    """BASE with ``edits`` made."""
    doc = dict(BASE)
    for key, value in edits.items():
        if isinstance(value, Section):
            value = {name: item for name, item in {**BASE[key], **value}.items()
                     if item is not REMOVE}
        if value is REMOVE:
            doc.pop(key, None)
        else:
            doc[key] = value
    return doc


@st.composite
def commands(draw, inputs: Path):
    """argv for one eit3 command; its config and --rho0 files in ``inputs``."""
    config = inputs / "config.json"
    config.write_text(dump(config_document(draw(CONFIGS))), encoding="utf-8")
    note(f"config: {config.read_text(encoding='utf-8')}")
    command = draw(st.sampled_from(["sweep", "steady", "darkstate", "evolve"]))
    argv = [command, str(config)]
    option = st.one_of(st.none(), OPTION_VALUES)
    if command in ("steady", "evolve") and (delta := draw(option)) is not None:
        argv.append(f"--delta={delta}")
    if command == "evolve":
        t_end = st.sampled_from(["1e-3", "0.5", "20"]) | OPTION_VALUES
        argv.append(f"--t-end={draw(t_end)}")
        if (dt := draw(option)) is not None:
            argv.append(f"--dt={dt}")
        rho0 = draw(RHO0)
        if isinstance(rho0, list):  # [document]
            note(f"--rho0 file: {dump(rho0[0])}")
            (inputs / "rho0.json").write_text(dump(rho0[0]), encoding="utf-8")
            rho0 = str(inputs / "rho0.json")
        argv.append(f"--rho0={rho0}")
    if command in ("sweep", "evolve") and draw(st.booleans()):
        argv.append(f"--out={draw(PATHS)}")
    return argv


def run(argv, output_dir: Path, monkeypatch):
    """main(argv) writing into ``output_dir``: (exit code, stderr, the data
    files by path).  Every warning raised is on stderr, as the interpreter
    would print it outside the test run."""
    monkeypatch.setenv("EIT3_OUTPUT_DIR", str(output_dir))
    stdout, stderr = io.StringIO(), io.StringIO()
    with (contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr),
          warnings.catch_warnings(record=True) as caught):
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects an option value
            code = exc.code
    for w in caught:
        stderr.write(warnings.formatwarning(w.message, w.category, w.filename,
                                            w.lineno, w.line))
    files = {path.relative_to(output_dir): path.read_bytes()
             for path in sorted(output_dir.rglob("*")) if path.is_file()}
    return code, stderr.getvalue(), files


def test_cli_survives_hostile_inputs(tmp_path, monkeypatch):
    @CLI_SETTINGS
    @given(st.data())
    def check(data):
        with tempfile.TemporaryDirectory(dir=tmp_path) as work:
            work = Path(work)
            for name in ("inputs", "first", "second"):
                (work / name).mkdir()
            argv = data.draw(commands(work / "inputs"))
            code, stderr, files = run(argv, work / "first", monkeypatch)
            assert code in range(5), (argv, code, stderr)
            assert "Traceback" not in stderr, (argv, stderr)
            assert not WARNING.search(stderr), (argv, stderr)
            if code:
                assert REASON.search(stderr), (argv, code, stderr)
            again = run(argv, work / "second", monkeypatch)
            assert again[0] == code and again[2] == files, argv

    check()


@pytest.mark.parametrize("command,code,reason", [
    (["steady"], 2, "error: SingularSolveError: SingularSolve: Liouvillian "
                    "has non-finite entries"),
    (["darkstate"], 2, "error: SingularSolveError: SingularSolve: "
                       "Liouvillian has non-finite entries"),
    (["evolve", "--t-end=1"], 1, "config error: dt_max=5.88235e-310 us gives "
                                 "a non-finite step count over t_end=1 us"),
    (["sweep"], 2, "error: delta=-30 MHz: SingularSolveError: SingularSolve: "
                   "Liouvillian has non-finite entries"),
    # a step count within the cap: evolve returns NaN states without
    # integrating them, then the steady solve names the non-finite Liouvillian
    (["evolve", "--t-end=1e-300"], 2, "error: SingularSolveError: "
                                      "SingularSolve: Liouvillian has "
                                      "non-finite entries"),
], ids=["steady", "darkstate", "evolve", "sweep", "evolve-integrated"])
def test_decay_rates_near_the_float_limit_give_the_named_error_alone(
        tmp_path, monkeypatch, command, code, reason):
    # decays of 1e308 and 1.7e308 overflow the Liouvillian build; the run
    # reports the named error and nothing else on stderr
    doc = {**BASE, "gamma_a": 1e308, "gamma_b": 1.7e308, "backend": "numeric"}
    config = tmp_path / "config.json"
    config.write_text(dump(doc), encoding="utf-8")
    (tmp_path / "out").mkdir()
    got, stderr, _ = run([command[0], str(config), *command[1:]],
                         tmp_path / "out", monkeypatch)
    assert got == code, stderr
    assert stderr.splitlines()[0] == reason
    assert not WARNING.search(stderr), stderr
    assert all(REASON.search(line) or line.startswith("partial output")
               for line in stderr.splitlines()), stderr
