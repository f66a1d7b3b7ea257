"""One benchmark sample in a fresh interpreter.

Usage: python3 child.py setup|sweep|trace < spec.  Imports exotic4, parses
the spec from stdin and, unless the mode is `setup`, runs it with jobs=1 and
renders the JSON report.  Prints one JSON line: the monotonic time at which
set-up ended, and for a sweep its wall and CPU time, peak RSS, the rendered
report, and (mode `trace`) the spans.

`python3 child.py calibrate N` runs instead a fixed pure-Python loop that
does not touch exotic4 N times and prints the wall time of each.
"""

import json
import resource
import sys
import time


class _Letter:
    __slots__ = ("name", "exp")

    def __init__(self, name: str, exp: int):
        self.name = name
        self.exp = exp


def calibration_loop() -> None:
    """Fixed work of the kinds the program does most, with no exotic4 code:
    free reduction of words held as lists of (generator, exponent) tuples,
    with small slotted objects and dict traffic (words, Tietze moves), and
    reads and writes in a table of small lists (coset enumeration)."""
    names = [f"g{i}" for i in range(12)]
    seen: dict = {}
    x = 1
    for _ in range(1500):
        stack: list[tuple[str, int]] = []
        for _ in range(40):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            letter = _Letter(names[x % 12], 1 if x & 64 else -1)
            if stack and stack[-1][0] == letter.name:
                exp = stack.pop()[1] + letter.exp
                if exp:
                    stack.append((letter.name, exp))
            else:
                stack.append((letter.name, letter.exp))
        key = tuple(stack)
        seen[key] = seen.get(key, 0) + 1
    table = [[0] * 8 for _ in range(1 << 15)]
    for i in range(100_000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        row = table[x & 0x7FFF]
        row[i & 7] = table[row[(i + 3) & 7] & 0x7FFF][i & 7] + 1


def calibrate(count: int) -> list[float]:
    times = []
    for _ in range(count):
        start = time.perf_counter()
        calibration_loop()
        times.append(time.perf_counter() - start)
    return times


def main() -> None:
    mode = sys.argv[1]
    if mode == "calibrate":
        sys.stdout.write(json.dumps({"loops_s": calibrate(int(sys.argv[2]))}) + "\n")
        return
    import exotic4.report as report

    spec = report.parse_spec(sys.stdin.read())
    out = {"ready": time.monotonic()}
    if mode != "setup":
        tracer = None
        if mode == "trace":
            from spans import ROOT, Tracer

            tracer = Tracer()
            tracer.install()

        def sweep():
            return report.render_json(report.run(spec, jobs=1))

        start = time.perf_counter()
        text = tracer.call(ROOT, sweep) if tracer else sweep()
        out["sweep_s"] = time.perf_counter() - start
        usage = resource.getrusage(resource.RUSAGE_SELF)
        out["cpu_s"] = usage.ru_utime + usage.ru_stime
        out["peak_rss_mb"] = usage.ru_maxrss / 1024
        out["report"] = text
        out["spans"] = tracer.spans if tracer else None
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main()
