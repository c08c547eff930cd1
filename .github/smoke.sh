#!/usr/bin/env bash
# Console-script smoke: run each gammalab subcommand once through the
# installed `gammalab` entry point, from the root of a checkout, and check
# the exit codes and error kinds of a few failing argv.  Output files are
# written to the working directory (and listed in .gitignore).
set -euo pipefail

gammalab landau construct --delta 1/200 > /dev/null
# the generated recursion loop, bit for bit on every interpreter: the summary
# reports at delta = 1/64 (no threshold) and 7/200 (ten thresholds)
test "$(gammalab landau construct --delta 1/64 | sha256sum | cut -d' ' -f1)" = 5b0f84936efebd2d44b1aa3aaa56b636aaf193888e00cb7e4f06eace2f1ca812
test "$(gammalab landau construct --delta 7/200 | sha256sum | cut -d' ' -f1)" = 5b68756a99696f6075c136776b57d1e2434402fc0d44aa0a1877bc66a04aa7c5
# a delta past the round cap (t = 4,882,423 > 12,000) is refused before any round
code=0; timeout 10 gammalab landau construct --delta 1/100000 > roundcap.json || code=$?
test "$code" -eq 1; grep -q '"error":"resource"' roundcap.json
python -X int_max_str_digits=640 -c "import sys; from gammalab.cli import main; assert main(['schlomilch', 'binom', '--m', '1100', '--l', '1100']) == 0; assert main(['landau', 'construct', '--delta', '1/200']) == 0; assert sys.get_int_max_str_digits() == 640" > /dev/null
code=0; gammalab eval --z 1 --tol 1e-3 2> /dev/null || code=$?
test "$code" -eq 2
python -c "import json, subprocess; e, s = (json.loads(subprocess.run(['gammalab', 'landau', 'construct', '--delta', '4/9', *b], capture_output=True, check=True).stdout) for b in ([], ['--node-budget', '1'])); assert e['explicit'] and not s['explicit']; assert [e[k] for k in ('residual_mass', 'final_piece_count')] == [s[k] for k in ('residual_mass', 'final_piece_count')]"
python -c "import json, subprocess; e, s = (json.loads(subprocess.run(['gammalab', 'landau', 'construct', '--delta', '3/7', *b], capture_output=True, check=True).stdout) for b in (['--node-budget', '10000000'], ['--node-budget', '1'])); assert e['explicit'] and not s['explicit']; assert [e[k] for k in ('residual_mass', 'final_piece_count')] == [s[k] for k in ('residual_mass', 'final_piece_count')]"
gammalab stern --m 120 > stern.json
grep -q '"independent":16' stern.json
gammalab stern --m 480 > stern.json
grep -q '"independent":64' stern.json
gammalab stern --m 1000 > stern.json
grep -q '"independent":200' stern.json
python -O -c "import gammalab.stern as s; s.totient = lambda m: 0
try: s.independent_count(7)
except AssertionError: pass
else: raise SystemExit('the phi(m)/2 check is gone under -O')"
# the kernel's bits: gamma, log_gamma, sinpi and cospi on 2,000 points over
# every branch, against the digest tests/test_core.py pins
test "$(python tests/kernel_pin.py 250)" = 927b7dcaaa946c6b92c0509fb501d2ce7bb2f2c2969c6b8d292a9e694b8bbd4d
python -c "import cmath, math; from gammalab.core import gamma, log_gamma; assert all(abs(log_gamma(x) - math.lgamma(x)) <= 2e-15 * max(1.0, abs(math.lgamma(x))) for x in (1e-3, 0.3, 0.5, 1.5, 7.25, 170.5, 1e6)); z = 2.5 + 3j; assert abs(cmath.exp(log_gamma(z)) - gamma(z)) <= 1e-15 * abs(gamma(z))"
python -c "import math; from gammalab.core import gamma, sinpi; from gammalab.quadrature import QuadratureSpec, beta_integral, gamma_integral; q = QuadratureSpec(relative_tolerance=1e-10); z = 2.5 + 1j; assert abs(gamma_integral(z, q) - gamma(z)) <= 1e-9 * abs(gamma(z)); z = 0.3 + 0.8j; r = math.pi / sinpi(z); assert abs(beta_integral(z, 0.7 - 0.8j, q) - r) <= 1e-9 * abs(r)"
python -c "from gammalab.core import gamma; from gammalab.quadrature import QuadratureSpec, gamma_integral; q = QuadratureSpec(); assert all(abs(gamma_integral(z, q) - gamma(z)) <= 1e-10 * gamma(z) for z in (171.0, 171.3))"
python -c "import sys, gammalab.cli; assert 'numpy' not in sys.modules"
python -c "import sys; from gammalab.cli import main; assert main(['eval', '--z', '0.5']) == 0; assert not {'gammalab.landau', 'gammalab.identities', 'gammalab.schlomilch'} & set(sys.modules)" > /dev/null
gammalab verify --identity reflection --samples 50 > /dev/null
# an emitted report is the json module's bytes for what it holds (the trace
# text is written by hand from the record), its tree reads back with
# from_json_dict to the report's node and direct-leaf counts and its value,
# bit for bit, and validate_trace replays every node against the
# subcommand's set
emitted_trace() {
    gammalab "$@" --emit-trace > trace.json
    python -c "import json, sys
from fractions import Fraction
from gammalab.landau import DerivationTrace, landau_construct, quarter_set_membership, strip_membership, validate_trace
text = open('trace.json', encoding='utf-8').read()
r = json.loads(text)
assert text == json.dumps(r, sort_keys=True, separators=(',', ':'), ensure_ascii=False) + '\\n'
trace = DerivationTrace.from_json_dict(r['trace'])
counts = (trace.node_count, trace.direct_count)
assert counts == (r['nodes'], r['direct_leaves']) and r['validated_nodes'] == r['nodes'], counts
value = complex(trace.values[-1])
assert [value.real, value.imag] == r['value'], (value, r['value'])
if sys.argv[1] == 'complex-trace':
    member = strip_membership(landau_construct(Fraction(r['delta'])))
elif sys.argv[2] == 'trace':
    member = landau_construct(Fraction(r['delta'])).leaf_union.__contains__
else:
    member = quarter_set_membership
assert validate_trace(trace, member) == r['nodes']" "$@"
}
emitted_trace landau trace --delta 1/2 --x 3/5
emitted_trace complex-trace --delta 1/2 --z=-3.25,6.5
emitted_trace landau quarter --x 0.3
# a set that lost its leaves: each walker stops at its K t halvings
python -c "import dataclasses; from fractions import Fraction; from gammalab.errors import TraceDepthError; from gammalab.intervals import IntervalSet; from gammalab.landau import complex_reduce_trace, landau_construct, trace_evaluate
fs = dataclasses.replace(landau_construct(Fraction(1, 2)), leaf_union=IntervalSet([]))
for walk, a in ((trace_evaluate, Fraction(3, 5)), (complex_reduce_trace, 0.6 + 0.2j)):
    try: walk(a, fs)
    except TraceDepthError: pass
    else: raise SystemExit(f'{walk.__name__} ran past an empty set')"
if gammalab eval --z=171.65,0.001 > overflow.json; then exit 1; fi
grep -q '"error":"overflow"' overflow.json
gammalab verify --identity comb --samples 50 > /dev/null
if gammalab verify --identity comb --grid 200:-5:5:150:300 > offaxis.json; then exit 1; fi; grep -q '"error":"domain"' offaxis.json
gammalab schlomilch general --w 1.2 --z 0.7 > /dev/null
gammalab schlomilch general --w 1 --z 0.7 > /dev/null
gammalab schlomilch general --w=0.8,0.3 --z=1.1,-0.2 > /dev/null
gammalab verify --identity cosine:8 --grid 120:-3:3:0:0 --seed 0 > /dev/null
gammalab verify --identity duplication --grid 60:-170:-160:-1:1 > /dev/null
gammalab mellin --phi geom:2 --s 0.35 > /dev/null
code=0; gammalab complex-trace --delta 1/2 --z=nan,0 > nonfinite.json || code=$?
test "$code" -eq 1
grep -q '"error":"domain"' nonfinite.json
if gammalab complex-trace --delta 1/2 --z=-0.5,226.5 > sinpi.json; then exit 1; fi; grep -q '"error":"domain"' sinpi.json
# a reflection whose sin(pi z) overflows is refused before any node is
# built, even where the node budget would run out first
code=0; gammalab complex-trace --delta 1/2 --z=-1.3,300.5 > reflect.json || code=$?
test "$code" -eq 1; grep -q '"error":"domain"' reflect.json
# the default 500,000-node budget runs out (about 1.5 s)
code=0; gammalab complex-trace --delta 1/2 --z=0.5,300 > budget.json || code=$?
test "$code" -eq 1; grep -q '"error":"resource"' budget.json
# the deepest quarter-set escape: 14 comb steps from the edge of the 1e-9 band
gammalab landau quarter --x 0.33333333233333323 > quarter.json
gammalab verify --identity mult:4 --samples 50 > /dev/null
gammalab closure --points 1/7 --depth 2 --max-n 4 > closure.json
grep -q '"K":34' closure.json
code=0; gammalab closure --points 1/2,1/3,1/5 --depth 0 --max-n 2 --budget 2 > closure_budget.json || code=$?
test "$code" -eq 1
grep -q '"error":"resource"' closure_budget.json
code=0; gammalab verify --identity functional --grid 10:0:inf:0:0 > infgrid.json || code=$?
test "$code" -eq 1
grep -q '"error":"domain"' infgrid.json
