"""The reference loop: fixed pure-Python integer and dict work.

It shares no code with wordgraphs.  Timed between the operations in the
same process, its median is the unit ("ref") in which operation times are
reported, so a machine that runs everything slower for a while moves the
loop and the operations together and the ratio holds still.
"""

from __future__ import annotations

import time

ITERATIONS = 10_000

# Nominal seconds per loop, for reporting ref-normalised times in seconds
# (`wall_s`, `setup_s`).  A fixed unit conversion, not a measurement: on
# the shared 2-vCPU virtual machine where the bounds were set, the loop
# took 2.6 to 5.1 ms depending on how busy the host was.
REF_SECONDS = 0.004


def reference_loop() -> int:
    table: dict[int, int] = {}
    x = 1
    for i in range(ITERATIONS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = x & 1023
        table[key] = table.get(key, 0) + i
    return x + len(table)


def time_reference() -> float:
    start = time.perf_counter()
    reference_loop()
    return time.perf_counter() - start
