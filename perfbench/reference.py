#!/usr/bin/env python3
"""Fixed stdlib workload that gauges the host's speed during a benchmark run.

    python3 perfbench/reference.py

Its CPU time moves with the state of the host (other guests sharing the
cores, clock frequency) the way a balconv invocation's does, because it does
the same kinds of work: interpreter start-up, big-int binomial folds,
``Fraction`` Cauchy products, sums of products of 500-digit integers and a
long decimal conversion.  It imports nothing from balconv, so no change to
the package can move it.  Prints the length of its decimal output, which is
always ``OUTPUT_DIGITS``.
"""

from fractions import Fraction
from math import comb

OUTPUT_DIGITS = 828


def main() -> None:
    b = [0, 1]
    for _ in range(190):
        b.append(6 * b[-1] - b[-2])
    fold = b
    for _ in range(2):
        fold = [sum(comb(n, k) * fold[k] * b[n - k] for k in range(n + 1)) for n in range(len(b))]
    f = [Fraction(x) for x in b[:90]]
    power = f
    for _ in range(2):
        power = [sum(power[i] * f[n - i] for i in range(n + 1)) for n in range(len(f))]
    while len(b) <= 680:
        b.append(6 * b[-1] - b[-2])
    pairs = sum(b[j] * b[n - j] for n in range(600, 680) for j in range(1, n))
    print(len(str(fold[-1]) + str(power[-1]) + str(pairs)))


if __name__ == "__main__":
    main()
