#!/usr/bin/env python3
"""thread_cpu — CPU time and context switches per thread per cycle.

Runs a command, and over a steady window of its run reads every thread's
user and system time (/proc/<pid>/task/<tid>/stat) and its voluntary and
involuntary context switches (/proc/<pid>/task/<tid>/status). When the
command exits, its last stdout line is read as an sdsbench result, and
the window's totals are divided by the cycles it ran in the window
(cycles_per_s times the window's length), so each row is one thread's
cost per control cycle:

  python3 tools/thread_cpu.py --warmup 4 --window 8 -- \\
      .bench_build/sdsbench --workload live_hier_inproc --seed 1 \\
      --seconds 15 --trace 0 --fingerprints sdsbench/fingerprints.txt \\
      --out-dir /tmp/o

Threads are listed in creation order (by thread id). A command whose
last line carries no cycles_per_s gets its rows per second instead.
Times come in clock ticks (usually 10 ms), so use a window of several
seconds.
"""

import argparse
import json
import os
import subprocess
import sys
import time

TICK_MS = 1000.0 / os.sysconf("SC_CLK_TCK")


def sample(pid):
    """{tid: (comm, user_ticks, sys_ticks, voluntary, involuntary)}."""
    threads = {}
    task_dir = f"/proc/{pid}/task"
    for tid in os.listdir(task_dir):
        try:
            with open(f"{task_dir}/{tid}/stat") as f:
                stat = f.read()
            with open(f"{task_dir}/{tid}/status") as f:
                status = f.read()
        except OSError:
            continue  # the thread exited between listdir and open
        # comm sits in parentheses and may itself hold spaces or ')'.
        comm = stat[stat.index("(") + 1 : stat.rindex(")")]
        fields = stat[stat.rindex(")") + 2 :].split()
        utime, stime = int(fields[11]), int(fields[12])
        switches = {}
        for line in status.splitlines():
            key, _, value = line.partition(":")
            if key in ("voluntary_ctxt_switches", "nonvoluntary_ctxt_switches"):
                switches[key] = int(value)
        threads[int(tid)] = (
            comm,
            utime,
            stime,
            switches.get("voluntary_ctxt_switches", 0),
            switches.get("nonvoluntary_ctxt_switches", 0),
        )
    return threads


def cycles_per_s(stdout):
    """cycles_per_s from the command's last non-empty stdout line, if any."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
        return float(result["metrics"]["cycles_per_s"]["value"])
    except (ValueError, KeyError, TypeError):
        return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--warmup", type=float, default=4.0,
                        help="seconds before the window opens")
    parser.add_argument("--window", type=float, default=8.0,
                        help="seconds the window stays open")
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not command:
        parser.error("no command given")

    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    time.sleep(args.warmup)
    before = sample(proc.pid)
    opened = time.monotonic()
    time.sleep(args.window)
    after = sample(proc.pid)
    window = time.monotonic() - opened
    stdout, _ = proc.communicate()
    if proc.returncode != 0:
        print(f"thread_cpu: command exited with {proc.returncode}",
              file=sys.stderr)

    rate = cycles_per_s(stdout)
    per = rate * window if rate else window
    unit = "cycle" if rate else "s"
    if rate:
        print(f"window {window:.2f} s, {rate:.1f} cycles/s, {per:.0f} cycles")
    else:
        print(f"window {window:.2f} s (no cycles_per_s in the last line)")
    print(f"{'tid':>8} {'thread':<16} {'user ms':>9} {'sys ms':>9} "
          f"{'vol sw':>8} {'invol sw':>9}   (per {unit})")
    totals = [0.0, 0.0, 0.0, 0.0]
    for tid in sorted(after):
        if tid not in before:
            continue  # started inside the window
        comm, *now = after[tid]
        _, *then = before[tid]
        delta = [b - a for a, b in zip(then, now)]
        row = [delta[0] * TICK_MS / per, delta[1] * TICK_MS / per,
               delta[2] / per, delta[3] / per]
        totals = [t + r for t, r in zip(totals, row)]
        print(f"{tid:>8} {comm:<16} {row[0]:>9.3f} {row[1]:>9.3f} "
              f"{row[2]:>8.2f} {row[3]:>9.2f}")
    print(f"{'':>8} {'all threads':<16} {totals[0]:>9.3f} {totals[1]:>9.3f} "
          f"{totals[2]:>8.2f} {totals[3]:>9.2f}")


if __name__ == "__main__":
    main()
