"""The CLI contract under seeded fuzzing, a property test in the manner of
QuickCheck (Claessen and Hughes, ICFP 2000) with a fixed random.Random seed,
so every run draws the same argv.

Each argv runs in process through cli.main.  It must exit 0, 1 or 2; on 0
and 1 print one JSON line with no NaN or infinity, and on a failure a
documented kind of cli._ERROR_KINDS, never "internal"; on 2 print nothing.
A value that starts with "-" reads the same bare and as --opt=VALUE.

Sizes are bounded so the draw stays fast (stern m <= 100, closure max-n <=
5 and depth <= 2, delta >= 1/50, verify <= 50 samples and mult:N <= 6,
complex-trace |Im z| <= 16): no cap refuses their cost up front yet.
"""

import contextlib
import io
import json
import random

import pytest

from gammalab import cli

SEED = 20260
COUNT = 300

# the edge values of the contract: the ends of the float range, a subnormal,
# the non-finite words, the two sides of gamma's overflow point, an integer
# past 2**52, far out on the axes, and two words that are no number
EDGES = ["1e308", "-1e308", "5e-324", "nan", "inf", "-inf", "171.62", "171.7",
         str(2**52 + 1), "1e20", "-1e20", "1/0", "abc"]


def _number(rng, lo=-10.0, hi=10.0):
    if rng.random() < 0.15:
        return rng.choice(EDGES)
    return repr(round(rng.uniform(lo, hi), rng.randint(0, 3)))


def _rational(rng, lo=-3, hi=3):
    if rng.random() < 0.5:
        return _number(rng, lo, hi)
    return f"{rng.randint(lo * 8, hi * 8)}/{rng.randint(1, 8)}"


def _complex(rng, im=10.0):
    if rng.random() < 0.5:
        return _number(rng)
    return f"{_number(rng)},{_number(rng, -im, im)}"


def _small_int(rng, lo, hi):
    return rng.choice([str(rng.randint(lo, hi))] * 4 + ["-3", "0", "abc"])


def _delta(rng):
    # at least 1/50: a smaller delta costs up to the round cap
    return rng.choice(["1/2", "1/3", "2/5", "1/7", "1/50", "1", "0", "-1/2", "3/2",
                       "nan", "inf", "1/0", "abc", "5e-1"])


def _tol(rng):
    if rng.random() < 0.2:
        return ["--tol", rng.choice(["1e-10", "1e-3", "0", "-1e-3", "nan", "inf", "abc"])]
    return []


def _eval(rng):
    return ["eval", "--z", _complex(rng, 200.0)]


def _verify(rng):
    identity = rng.choice(["functional", "reflection", "duplication", "comb",
                           f"mult:{rng.randint(-1, 6)}", f"sine:{rng.randint(-1, 6)}",
                           f"cosine:{rng.randint(-1, 6)}", "mult", "nope"])
    argv = ["verify", "--identity", identity, "--seed", _small_int(rng, 0, 9)]
    if rng.random() < 0.5:
        argv += ["--samples", _small_int(rng, 1, 50)]
    else:
        bounds = ":".join(_number(rng, -4.0, 4.0) for _ in range(4))
        argv += ["--grid", f"{rng.randint(-1, 50)}:{bounds}"]
    return argv + _tol(rng)


def _finite(rng):
    return ["schlomilch", "finite", "--m", _small_int(rng, 0, 30), "--z", _complex(rng)] + _tol(rng)


def _general(rng):
    return ["schlomilch", "general", "--w", _complex(rng), "--z", _complex(rng),
            "--max-terms", _small_int(rng, 1, 500)] + _tol(rng)


def _binom(rng):
    return ["schlomilch", "binom", "--m", _small_int(rng, 0, 60), "--l", _small_int(rng, 0, 60)]


def _construct(rng):
    return ["landau", "construct", "--delta", _delta(rng)]


def _trace(rng):
    return ["landau", "trace", "--delta", _delta(rng), "--x", _rational(rng)] + _tol(rng)


def _quarter(rng):
    return ["landau", "quarter", "--x", _number(rng, -2.0, 2.0)] + _tol(rng)


def _stern(rng):
    return ["stern", "--m", _small_int(rng, 1, 100)]


def _closure(rng):
    points = ",".join(_rational(rng, -2, 2) for _ in range(rng.randint(1, 3)))
    argv = ["closure", "--points", points, "--depth", _small_int(rng, 0, 2),
            "--max-n", _small_int(rng, 1, 5)]
    return argv + (["--budget", _small_int(rng, 1, 200)] if rng.random() < 0.3 else [])


def _mellin(rng):
    phi = rng.choice(["one", "exp", "log1p", f"geom:{_number(rng, -3.0, 3.0)}", "nope"])
    return ["mellin", "--phi", phi, "--s", _number(rng, -1.0, 2.0)] + _tol(rng)


def _complex_trace(rng):
    return ["complex-trace", "--delta", _delta(rng), "--z", _complex(rng, 16.0)] + _tol(rng)


FORMS = [_eval, _verify, _finite, _general, _binom, _construct, _trace, _quarter,
         _stern, _closure, _mellin, _complex_trace]


def _draw(count=COUNT, seed=SEED):
    rng = random.Random(seed)
    return [FORMS[i % len(FORMS)](rng) for i in range(count)]


def _run(argv):
    """(exit code, stdout) of cli.main(argv), usage errors included."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def _equals_form(argv):
    """argv with each value that starts with "-" joined to its option by "="."""
    joined = []
    for word in argv:
        if word.startswith("-") and not word.startswith("--"):
            joined[-1] += "=" + word
        else:
            joined.append(word)
    return joined


def _refuse_constant(word):
    raise AssertionError(f"non-finite {word} in a report")


def test_every_argv_keeps_the_contract():
    kinds = {kind for _, kind in cli._ERROR_KINDS}
    for argv in _draw():
        code, out = _run(argv)
        assert code in (0, 1, 2), argv
        if code == 2:
            assert out == "", argv
        else:
            assert out.endswith("}\n") and out.count("\n") == 1, argv
            report = json.loads(out, parse_constant=_refuse_constant)
            if "error" in report:
                assert code == 1 and report["error"] in kinds, (argv, report)
        if _equals_form(argv) != argv:
            assert _run(_equals_form(argv)) == (code, out), argv


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--z", "-2.5,0.7"],
        ["eval", "--z", "-1/3"],
        ["schlomilch", "general", "--w", "-1.5,0.2", "--z", "0.7"],
        ["mellin", "--phi", "one", "--s", "-1e-3"],
        ["eval", "--z", "-200.5"],
        ["complex-trace", "--delta", "1/2", "--z", "-0.5,0.5"],
    ],
)
def test_a_leading_minus_reads_as_written(argv):
    # a word that starts with "-" and a digit is a value on every Python
    code, out = _run(argv)
    assert code in (0, 1) and out.startswith("{")
    assert _run(_equals_form(argv)) == (code, out)


def test_the_draw_covers_every_form_and_edge():
    argvs = _draw()
    words = {w for argv in argvs for part in argv for w in part.split(",")}
    assert set(EDGES) <= words
    assert len({tuple(argv[:2]) if argv[0] in ("schlomilch", "landau") else argv[0]
                for argv in argvs}) == 12
    assert sum(_equals_form(argv) != argv for argv in argvs) > 50
