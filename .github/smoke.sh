#!/usr/bin/env bash
# Console-script smoke: what only the installed `gammalab` entry point and
# a process of its own can show.  Each of the 12 subcommand forms runs once
# through the entry point, a usage error exits 2 and a structured error
# exits 1, the digit-limit check runs under the process flag that sets the
# limit, and the report schema is read from the installed package.  Every
# other check is in tier-1 (tests/), which CI runs on each supported
# Python.  The script works in a temporary directory and writes nothing
# into the checkout.
set -euo pipefail
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"

gammalab eval --z 0.5 > /dev/null
gammalab verify --identity reflection --samples 50 > /dev/null
gammalab schlomilch finite --m 3 --z 7.5 > /dev/null
gammalab schlomilch general --w 1.2 --z 0.7 > /dev/null
gammalab schlomilch binom --m 4 --l 6 > /dev/null
gammalab landau construct --delta 1/200 > /dev/null
gammalab landau trace --delta 1/2 --x 3/5 --emit-trace > /dev/null
gammalab landau quarter --x 0.33333333233333323 --emit-trace > /dev/null
gammalab stern --m 120 > /dev/null
gammalab closure --points 1/7 --depth 2 --max-n 4 > /dev/null
gammalab mellin --phi geom:2 --s 0.35 > /dev/null
gammalab complex-trace --delta 1/2 --z=-3.25,6.5 --emit-trace > /dev/null

# exit 2 on a usage error (eval takes no --tol); exit 1 with a structured
# kind (a delta past the round cap, refused before any round)
code=0; gammalab eval --z 1 --tol 1e-3 2> /dev/null || code=$?
test "$code" -eq 2
code=0; timeout 10 gammalab landau construct --delta 1/100000 > roundcap.json || code=$?
test "$code" -eq 1; grep -q '"error":"resource"' roundcap.json

# reports need no lift of a digit limit set at interpreter start, and main
# leaves the limit as it finds it
python -X int_max_str_digits=640 -c "import sys; from gammalab.cli import main; assert main(['schlomilch', 'binom', '--m', '1100', '--l', '1100']) == 0; assert main(['landau', 'construct', '--delta', '1/200']) == 0; assert sys.get_int_max_str_digits() == 640" > /dev/null

# the report schema ships with the package (README); tier-1 reads it from
# src/, so only an installed copy shows that it is packaged
python -c "import importlib.resources as r, json; json.loads(r.files('gammalab').joinpath('schemas/report.schema.json').read_text())"
