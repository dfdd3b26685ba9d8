"""Computed CLI outputs pinned by digest.

Each argv maps to its exit code, its stderr and the sha256 of its stdout in
golden/output_matrix.json, so a change to the engine that alters any printed
value, and not only a verdict, fails here.  The calls cover `star` on every
path of `moyal_star` (Laurent kernel on flat and chart pairs, the Darboux
frame with one form, a pairing and a commuting pair, derivatives for parallel
forms and non-affine denominators, the cover route) and the product star at
d = 2 and 3, plus `poisson` and `transport` on like operands.

Regenerate the golden file, after checking that a change of output is meant:
    PYTHONPATH=src python tests/test_output_matrix.py
"""

import hashlib
import json
import shlex
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

from moyalquot import cli

GOLDEN = Path(__file__).parent / "golden" / "output_matrix.json"

CASES = [
    # Laurent kernel, flat pairs
    "star --space flat2 --order 4 x y",
    "star --space flat2 --order 6 -- 'x^2*y + 1/x' 'y^3/x^2 - i*x'",
    "star --space flatN --d 3 --order 4 -- 'x1*y2/x3' 'y1^2 + 1/y3'",
    "star --space flat2 --order 3 --output structured -- 'x/y^2' '(1/2)*y + x^3'",
    # Laurent kernel, chart pair
    "star --space kchart --order 4 z^2 p",
    "star --space kchart --order 5 -- 'z^3/p + p^2' '1/z - (1/2)*p'",
    # Darboux frame: one form, a pairing, a commuting pair
    "star --space flat2 --order 4 -- '1/(x+y)^2' 'x*y^2'",
    "star --space flat2 --order 5 -- '(x^2 - y)/(2*x + y + 1)^3' 'y + i*x'",
    "star --space flat2 --order 4 -- '(x+2*y)/(x-y)' '1/(2*x+y+1)'",
    "star --space flat2 --order 6 -- '1/(x+y)' '1/(x-y)'",
    "star --space flatN --d 2 --order 3 -- 'x2/(x1+1)' 'y1/(x2-i)'",
    "star --space flatN --d 3 --order 4 -- 'x1*y1 + 1/(x1+y2)' '1/x2 + y1'",
    "star --space flatN --d 16 --order 8 -- 'x1*y1 + 1/(x1+y2)' '1/x2 + y1'",
    "star --space flatN --d 2 --order 3 --output structured -- '1/(x1+x2)^2' 'y1/(x1-x2+1)'",
    # the frame on inner pairs, which keep their variables: a pairing, a commuting pair
    "star --space flatN --d 4 --order 4 -- '1/(x2+y3)' 'x3/(x3-2*y2+1)'",
    "star --space flatN --d 4 --order 4 -- 'y2/(x2+x3)^2' 'y3*y4/(x2-x3+i)'",
    # derivatives: parallel forms, then non-affine denominators
    "star --space flat2 --order 4 -- '1/(x+1)' '1/(x-1)'",
    "star --space flat2 --order 4 -- 'y/(y+1-i)' 'x/(y+3*i)'",
    "star --space flat2 --order 4 -- '1/(x^2+y^2)' '(x+2*y)/(x-y)'",
    "star --space flat2 --order 3 -- 'x/(x*y+1)' 'y^2/(x-y^2)'",
    # the cover route of a space with chart pairs
    "star --space kchart --order 4 -- '1/(z+1)' 'p^2'",
    "star --space kchart --order 3 -- 'z^2*p + 1/(z-2)' 'p/(z+i)'",
    "star --space kchart --order 3 --output structured -- '(z+p)/(z^2+1)' 'z*p'",
    # the product star at d = 2 and 3
    "star --space product --d 2 --r 1 --order 4 -- 'z1+z2' 'p1+p2'",
    "star --space product --d 2 --r 1 --order 3 -- '1/(z1+1) + 1/(z2+1)' 'p1^2 + p2^2'",
    "star --space product --d 2 --r 2 --order 3 -- 'z1 + z2 + u1*v2' 'p1*p2 + 1/(v1 + 1)'",
    "star --space product --d 3 --r 1 --order 4 -- 'z1*z2*z3' 'p1 + p2 + p3'",
    "star --space product --d 3 --r 1 --order 2 -- 'z1/p1 + z2/p2 + z3/p3' '1/(z1-1) + 1/(z2-1) + 1/(z3-1)'",
    # poisson on like operands
    "poisson x y",
    "poisson -- '1/(x^2+y^2)' '(x+2*y)/(x-y)'",
    "poisson --space flatN --d 2 -- 'x2/(x1+1)' 'y1/(x2-i)'",
    "poisson --space kchart -- '1/(z+1)' 'p^2*z'",
    "poisson --space product --d 2 --r 1 --output structured -- 'z1*p2' '1/(z1+z2)'",
    # transport between the charts of the projective line
    "transport --from A --to B --order 4 p",
    "transport --from A --to B --order 3 -- 'z^2*p + 1/(z+1)'",
    "transport --from B --to A --order 3 -- '1/(w-i) + q^2*w'",
    "transport --from A --to B --order 3 --output structured -- 'p^2/(z^2+1)'",
    # refusals: parse, domain and usage errors
    "star --space flat2 -- 'x +' y",
    "star --space flat2 --order 2 -- '1/(x-x)' y",
    "star --space flat2 --order 2000 x y",
    "transport --from A --to C --order 2 p",
]


def outcome(line: str) -> dict:
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.run(shlex.split(line))
    return {
        "exit": code,
        "stderr": err.getvalue(),
        "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
    }


def test_outputs_match_the_pinned_matrix():
    golden = json.loads(GOLDEN.read_text())
    assert list(golden) == CASES
    for line in CASES:
        assert outcome(line) == golden[line], line


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({line: outcome(line) for line in CASES}, indent=1) + "\n")
