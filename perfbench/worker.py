"""The measured process: runs ``snckit.cli.main`` on pre-written documents.

Usage: python3 worker.py PLAN.json RESULT.json

The plan lists rounds of documents.  Documents go one after another
through ``cli.main([...])`` in this one thread, with stdout captured; whole
rounds run until the measured time reaches the plan's budget (and at least
``min_rounds`` rounds).  Each document's output is written to disk after
its timing, for the oracle to check in another process.  Before a
document, once the plan's ``calib_every_s`` of measured time has passed
since the last one, the worker times one ``calib.calibrate()``, outside
the measured time, so that ``run.py`` can take out the host's changes of
speed; each document's record carries the latest calibration.

A document still running after the plan's ``time_limit_s`` is stopped
and recorded with ``rc`` null, so that one runaway document cannot hold
up a run; it counts as failed.  The limit is in reference-host seconds
(see ``calib.py``): it is scaled by the median of the last eleven
calibrations.  Traced runs of a document get the plan's longer
``traced_time_limit_s``, so that the counts they add up do not depend on
where a time limit happened to cut a document off.

With ``trace`` set, each document runs twice: once untraced, then once
with the tracer installed, so that both outputs can be compared and the
tracing overhead measured on the same documents.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import signal
import statistics
import sys
from collections import deque
from time import perf_counter


class TimeLimit(BaseException):
    """Raised into a document that runs past the time limit.

    It derives from BaseException so that ``cli.main``'s own ``except
    Exception`` does not turn it into an exit code.
    """


_armed = False


def _on_alarm(signum, frame) -> None:
    if _armed:
        raise TimeLimit


def _call(main, argv: list[str], limit_s: float) -> tuple[int | None, float, bytes, str]:
    global _armed
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, limit_s)
        try:
            _armed = True
            rc = main(argv)
            _armed = False
        except TimeLimit:
            rc = None
        finally:
            _armed = False
            signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = perf_counter() - t0
    return rc, elapsed, out.getvalue().encode("utf-8"), err.getvalue()


def peak_rss_kib() -> int:
    """This process's peak resident memory since it started, in KiB.

    ``ru_maxrss`` is not used: Linux carries the parent's high-water mark
    across fork and exec, so it reports the harness's memory, not snckit's.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(plan_path: str, result_path: str) -> None:
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    sys.path.insert(0, plan["src"])
    from snckit import cli
    from calib import calibrate, speed_factor
    signal.signal(signal.SIGALRM, _on_alarm)

    tracer = None
    if plan["trace"]:
        from tracer import Tracer
        tracer = Tracer()

    docs = []
    recent = deque(maxlen=11)
    measured = 0.0
    calibrated_at = None
    window = None
    for rnd, items in enumerate(plan["rounds"]):
        if rnd >= plan["min_rounds"] and measured >= plan["seconds"]:
            break
        for item in items:
            argv = ["--input", item["path"], "--command", item["command"],
                    "--emit", "both"]
            if calibrated_at is None or measured - calibrated_at >= plan["calib_every_s"]:
                t0 = perf_counter()
                calibrate()
                calib_s = perf_counter() - t0
                recent.append(calib_s)
                calibrated_at = measured
            speed = speed_factor(statistics.median(recent))
            limit_s = plan["time_limit_s"] / speed
            rc, elapsed, out, err = _call(cli.main, argv, limit_s)
            rec = {"id": item["id"], "rc": rc, "seconds": elapsed, "calib_s": calib_s,
                   "output_bytes": len(out),
                   "stdout_sha256": hashlib.sha256(out).hexdigest()}
            measured += elapsed
            if tracer is not None:
                before = tracer.snapshot()
                tracer.install()
                try:
                    rc_t, elapsed_t, out_t, _ = _call(
                        cli.main, argv, plan["traced_time_limit_s"] / speed)
                finally:
                    tracer.uninstall()
                tracer.counts.end_document()
                after = tracer.snapshot()
                rec["traced_rc"] = rc_t
                rec["traced_seconds"] = elapsed_t
                rec["traced_stdout_sha256"] = hashlib.sha256(out_t).hexdigest()
                # Per-document inclusive time of each span, for scaling fits.
                rec["span_total_s"] = {
                    name: (after[name][2] - before[name][2]) / 1e9
                    for name in after if after[name][0] != before[name][0]}
                measured += elapsed_t
            if err:
                rec["stderr"] = err[-2000:]
            with open(item["out"], "wb") as fh:
                fh.write(out)
            docs.append(rec)
        if rnd + 1 == plan["min_rounds"] and tracer is not None:
            window = {"documents": len(docs), "spans": tracer.snapshot(),
                      "counts": _counts(tracer)}

    result = {
        "documents": docs,
        "loop_peak_rss_kib": peak_rss_kib(),
    }
    if tracer is not None:
        result["spans"] = tracer.snapshot()
        result["window"] = window
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


def _counts(tracer) -> dict:
    c = tracer.counts
    return {"diag_entries_in": c.diag_entries_in,
            "diag_nonzeros_in": c.diag_nonzeros_in,
            "snf_from_presentation": c.snf_from_presentation,
            "max_transform_bits": c.max_transform_bits,
            "cohomology_distinct": c.cohomology_distinct}


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
