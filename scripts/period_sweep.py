#!/usr/bin/env python3
"""Entropy convergence of period-lifted graphs with target entropy ln 2.

For each period p the base is the exact integer 2^p, so the whole pipeline
stays in rational arithmetic.  Prints one row per dyadic count depth.
"""

import argparse
import math

from markovforge import (BetaValue, build_spectrum, growth_rate,
                         table_from_spectrum)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--periods", type=int, nargs="*", default=[1, 2, 3, 5])
    ap.add_argument("--max-n", type=int, default=64)
    args = ap.parse_args()

    target = math.log(2)
    print("period  depth  growth    deviation")
    for p in args.periods:
        s = build_spectrum(BetaValue.from_rational(2 ** p), args.max_n)
        table = table_from_spectrum(s, args.max_n * p, p)
        depth = 8
        while depth <= args.max_n:
            est = growth_rate(table.p[:depth * p + 1], window=1)
            print(f"{p:>6}  {depth * p:>5}  {est.value:.6f}  "
                  f"{abs(est.value - target):.6f}")
            depth *= 2
        print()


if __name__ == "__main__":
    main()
