"""A seeded fuzz of the CLI's flag space: every run ends in a verdict (exit 0
or 1) or in a refusal that abplab itself raises by name (exit 2), never in a
traceback, and never in a refusal that numpy raised on abplab's behalf.

Hypothesis runs derandomized, so the calls are the same on every run.  A
call of a subcommand draws its modes (_MODES), then gives each flag that
those modes read no value (the default) or one of the flag's choices; its
float flags share at most two values of FLOATS, since an overflow often
takes two large flags together (a radius and a coefficient).  The grid and
the sample count are always drawn, and small, so each call stays cheap.
--N may also take 1000, 1050 or 1100, where the doubling constant 2^N and
the bound D (r1/r2)^(N eta) leave float64, and for `doubling` and
`constants` --R may also take 1e200, where squared lengths and ball
measures leave it.  Flags that a mode does not read are refused by
test_cli's own tests.

Every passing `doubling` report must have a finite bound: an inf bound
makes ratio / bound read 0, and the check then passes on its two-ball term
alone.  No `doubling` or `constants` report may have a NaN side: a value
that left float64 is refused by name, not turned into a FAIL at NaN.
"""

from __future__ import annotations

import contextlib
import io
import linecache
import math
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import abplab
from abplab import cli
from abplab.cli import _FLAGS, _MODES, _SUBCOMMANDS, main

# hypothesis draws the first entries most often: the positive finite values
# come first, since they get past the sign and finiteness checks
FLOATS = ["1e150", "1e-300", "1e308", "0", "-0.0", "-1", "nan", "inf"]
SIZES = {"resolution": [17, 33, 16, 8, 0], "samples": [8, 2, 1, 0]}
LARGE_N = st.sampled_from(["1000", "1050", "1100"])
HUGE_R = st.just("1e200")
SIDES_CHECKED = ("doubling", "constants")   # no report of theirs has a NaN side
EXAMPLES = 100   # calls per subcommand
ABPLAB_DIR = Path(abplab.__file__).resolve().parent


@st.composite
def calls(draw, sub):
    """argv of one call of sub: its modes first, then values for some of
    the flags that those modes read."""
    modes = _MODES.get(sub, ())
    chosen = {flag: draw(st.sampled_from(list(reads))) for flag, reads in modes
              if draw(st.booleans())}
    read = set(_SUBCOMMANDS[sub][1].split()) - {flag for flag, _ in modes}
    for flag, reads in modes:
        mode = chosen.get(flag, _FLAGS[flag].get("default", False))
        read -= {f for r in reads.values() for f in r.split()} - set(reads[mode].split())
    pool = draw(st.lists(st.sampled_from(FLOATS), min_size=1, max_size=2))
    for flag in sorted(read):
        if flag in SIZES:
            chosen[flag] = draw(st.sampled_from(SIZES[flag]))
        elif draw(st.booleans()):
            values = st.sampled_from(_FLAGS[flag].get("choices", pool))
            if flag == "N":
                values = st.one_of(values, LARGE_N)
            elif flag == "R" and sub in SIDES_CHECKED:
                values = st.one_of(values, HUGE_R)
            chosen[flag] = draw(values)
    argv = [sub]
    for flag, value in chosen.items():
        if value is not False:
            argv += [f"--{flag}"] if value is True else [f"--{flag}", str(value)]
    return argv


def _raised_by_abplab(exc: BaseException) -> bool:
    """Whether the innermost frame of exc's traceback is a raise statement
    in abplab's own sources."""
    tb = exc.__traceback__
    while tb.tb_next is not None:
        tb = tb.tb_next
    path = Path(tb.tb_frame.f_code.co_filename).resolve()
    line = linecache.getline(str(path), tb.tb_lineno).strip()
    return path.parent == ABPLAB_DIR and line.startswith("raise")


def run(argv) -> tuple[int, BaseException | None, list]:
    """main(argv)'s exit code, the exception its handler raised if any, and
    the reports it returned; an exception that escapes main propagates."""
    raised, reports = [], []

    def recorded(handler):
        def wrapper(args):
            try:
                out = handler(args)
            except BaseException as e:
                raised.append(e)
                raise
            reports.extend(out[0])
            return out
        return wrapper

    handlers = {name: (recorded(h), flags) for name, (h, flags) in _SUBCOMMANDS.items()}
    sink = io.StringIO()
    with mock.patch.dict(cli._SUBCOMMANDS, handlers), \
            contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = main(argv)
    return code, (raised[-1] if raised else None), reports


@pytest.fixture(autouse=True)
def _no_report_files(monkeypatch):
    monkeypatch.delenv("ABPLAB_OUT", raising=False)   # would send reports to disk


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("sub", sorted(_SUBCOMMANDS))
def test_every_call_ends_in_a_verdict_or_a_named_refusal(sub):
    @settings(derandomize=True, max_examples=EXAMPLES, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(calls(sub))
    def check(argv):
        code, exc, reports = run(argv)
        assert code in (0, 1, 2), argv
        if code == 2 and exc is not None:
            assert _raised_by_abplab(exc), (argv, repr(exc))
        if sub == "doubling":
            assert all(math.isfinite(r.diagnostics["bound"]) for r in reports if r.passed), argv
        if sub in SIDES_CHECKED:
            assert not any(math.isnan(r.lhs) or math.isnan(r.rhs) for r in reports), argv

    check()


def test_the_origin_check_flags_numpy_and_accepts_abplab():
    import numpy as np

    with pytest.raises(ValueError) as numpy_error:
        np.zeros(0).max()
    assert not _raised_by_abplab(numpy_error.value)
    with pytest.raises(ValueError) as own:
        abplab.geometry.ModelSpace("torus")
    assert _raised_by_abplab(own.value)
