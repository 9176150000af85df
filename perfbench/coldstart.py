"""Cold-start probe, run in a fresh interpreter.

    python3 perfbench/coldstart.py WORKLOAD SEED WORKDIR [UNITS]
    python3 perfbench/coldstart.py --reference

The first form imports chirpsounder and runs the workload's first UNITS
units (default 1); the second imports numpy alone, as a measure of host
speed that does not depend on the package.  Each prints the seconds from
before its imports to the end of its work, then the peak resident memory of
the process in MiB.  Interpreter start-up is not included in the seconds.

The peak is VmHWM, the high-water mark of this program's own address space.
``ru_maxrss`` would not do: Linux carries the peak of the address space
that exec replaced into it, so a probe started by a large process would
report that process's peak.
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402


def peak_mib():
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def setup(name, seed, workdir, units="1"):
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import workloads

    wl = workloads.get(name)
    wl.prepare(int(seed), workdir)
    for u in range(int(units)):
        wl.run(wl.unit(int(seed), u))


if __name__ == "__main__":
    if sys.argv[1:] == ["--reference"]:
        import numpy  # noqa: F401
    else:
        setup(*sys.argv[1:])
    seconds = time.perf_counter() - T0
    print(seconds, peak_mib())
