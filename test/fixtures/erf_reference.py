#!/usr/bin/env python3
"""Write the erf/erfc reference table test_specfun reads.

Usage: python3 test/fixtures/erf_reference.py > test/fixtures/erf_reference.txt

Each line is "x erf(x) erfc(x)": x is a double (k/16 on [-6, 27],
multiples of 0.37 in that range, and a few points near 0), and both
values are computed by mpmath at 40 significant digits and printed with
25, enough to round to the nearest double.
"""

import mpmath

mpmath.mp.dps = 40

xs = [k / 16 for k in range(-6 * 16, 27 * 16 + 1)]
xs += [k * 0.37 for k in range(-16, 73)]
xs += [s * v for v in (1e-300, 1e-20, 1e-8, 1e-4) for s in (-1.0, 1.0)]

print("# x erf(x) erfc(x), mpmath %s at %d digits" % (mpmath.__version__, mpmath.mp.dps))
for x in sorted(set(xs)):
    m = mpmath.mpf(x)
    print("%s %s %s" % (repr(x), mpmath.nstr(mpmath.erf(m), 25), mpmath.nstr(mpmath.erfc(m), 25)))
