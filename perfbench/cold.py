#!/usr/bin/env python3
"""Time one public balconv call, cold, in this fresh process.

    python3 perfbench/cold.py NAME

NAME is a key of ``CALLS``: the calls of the ROADMAP re-anchor table, sized
down.  Prints ``{"seconds": ..., "value": ...}``.  Each call needs a fresh
process because ``clear_caches()`` clears neither ``binom``'s cache nor the
sequence tables.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

CALLS = {
    "conv_power": lambda b: b.conv_power(b.BALANCING, 4, 200),
    "rhs_general_plain": lambda b: b.rhs_general_plain(4, 200),
    "binom_conv_u": lambda b: b.binom_conv_u(b.BALANCING, 4, 200),
    "rhs_multinom_u": lambda b: b.rhs_multinom_u(b.BALANCING, 4, 200),
    "verify_ogf_square_relation": lambda b: b.verify_ogf_square_relation(300),
}
#: Calls on two routes at the same arguments; their values must agree.
ROUTES = (("conv_power", "rhs_general_plain"), ("binom_conv_u", "rhs_multinom_u"))


def main() -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import balconv

    call = CALLS[sys.argv[1]]
    start = time.perf_counter()
    value = call(balconv)
    seconds = time.perf_counter() - start
    print(json.dumps({"seconds": seconds, "value": str(value)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
