"""Fuzz of the two user grammars the command line reads: catalog file
lines (`id | form | expr | yes/no`) and `--centers` specs (`ID[:r]`).
Whatever the input, `screen` either runs (exit 0) or refuses it with a
one-line error (exit 2); it never dies with a traceback.  The examples are
derandomized, so every run tries the same inputs."""

import contextlib
import io

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from tetrascreen.cli import main

_IDS = ["X2", "X7", "POW", "Z3", "CEV1", "U1", "U2", "X999", "", " "]

_atoms = st.sampled_from(["a", "b", "c", "r", "K", "1", "2", "0", "1/2", "s", "a^2",
                          "a^r", "b^-1", "a^64", "a^65", "(b+c)"])
_exprs = st.recursive(
    _atoms,
    lambda sub: st.tuples(sub, st.sampled_from(["+", "-", "*", "/", "^", ""]), sub).map(
        "".join) | sub.map(lambda s: f"({s})") | sub.map(lambda s: f"-{s}"),
    max_leaves=5) | st.text(alphabet="abcrK0123+-*/^() .", max_size=12)

_entry_lines = st.tuples(
    st.sampled_from(["U1", "U2", "X2", "", "U 1"]),
    st.sampled_from(["trilinear", "areal", "cartesian"]),
    _exprs,
    st.sampled_from(["yes", "no", "maybe"])).map(" | ".join)
# mostly four fields, so that many catalogs load and their centers are run
_catalog_lines = st.one_of(_entry_lines, _entry_lines, _entry_lines,
                           st.text(alphabet="U1|# abr\t", max_size=16))

# no r, a well-formed r (taken or not by the center) and a malformed one
_r_texts = st.one_of(
    st.just(""),
    st.sampled_from([":2", ":-1", ":0", ":1/2", ":-3/2", ":2/4", ":+1", ":64"]),
    st.sampled_from([":", ":1/0", ":abc", ":65", ":1/65", ": 2", ":2:3", ":1.5"]))
_center_specs = st.lists(st.tuples(st.sampled_from(_IDS), _r_texts).map("".join),
                         min_size=1, max_size=2).map(",".join)


@settings(derandomize=True, max_examples=120, deadline=3000,
          suppress_health_check=[HealthCheck.too_slow])
@given(lines=st.lists(_catalog_lines, max_size=2), centers=_center_specs)
@example(lines=[], centers="X2:1/2")
@example(lines=["U1 | trilinear | 1/a | no"], centers="U1:2")
@example(lines=["U1 | areal | a^r | yes"], centers="U1:1/2,U1")
def test_screen_input_is_run_or_refused(tmp_path_factory, lines, centers):
    path = tmp_path_factory.mktemp("fuzz") / "catalog.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(["screen", "--family", "general", "--catalog", str(path),
                         "--centers", centers, "--properties", "1", "-n", "1",
                         "--seed", "1"])
        except SystemExit as exc:  # argparse refuses a malformed argument
            code = exc.code
    assert code in (0, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert "error:" in err.getvalue() and out.getvalue() == ""
