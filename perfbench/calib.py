"""A fixed pure-Python workload that measures how fast the host runs now.

The benchmark's hosts are shared: the same code runs up to twice as slow
for stretches of seconds to minutes while other tenants are busy.  The
worker times ``calibrate()`` next to every document, and ``run.py``
multiplies each document's time by ``speed_factor()`` of the calibration
time measured around it, so the reported seconds are those of a host on
which one calibration takes ``REFERENCE_S``.  The workload mixes what
snckit spends its time on: big-integer row operations, nested lists, and
dict and tuple churn.  It imports nothing, so timing it in a fresh interpreter
before ``import snckit.cli`` warms no module that snckit needs.
"""

REFERENCE_S = 0.010
# snckit slows less than the calibration when the host slows: on the
# 2-vCPU host the benchmark was built on, the log-log slope of document
# time against calibration time was 0.85 (picard-dense), 0.82
# (skeleton-kh) and 0.75 (resolve-parallel).
EXPONENT = 0.8
SIZE = 14


def speed_factor(calib_s: float) -> float:
    """What to multiply a time by to get reference-host seconds, given the
    calibration time measured next to it."""
    return (REFERENCE_S / calib_s) ** EXPONENT


def calibrate() -> int:
    """Bareiss elimination of a fixed 14×14 integer matrix, then dict churn."""
    x = 12345
    a = []
    for _ in range(SIZE):
        row = []
        for _ in range(SIZE):
            x = (1103515245 * x + 12345) % 2147483648
            row.append(x % 101 - 50)
        a.append(row)
    prev = 1
    for k in range(SIZE - 1):
        if a[k][k] == 0:
            for r in range(k + 1, SIZE):
                if a[r][k]:
                    a[k], a[r] = a[r], a[k]
                    break
            else:
                continue
        for i in range(k + 1, SIZE):
            for j in range(k + 1, SIZE):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    d: dict[tuple[int, int], int] = {}
    for i in range(20000):
        d[(i % 97, i % 89)] = d.get((i % 89, i % 97), 0) + i
    return a[SIZE - 1][SIZE - 1] + len(d)
