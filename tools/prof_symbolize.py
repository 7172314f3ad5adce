#!/usr/bin/env python3
"""prof_symbolize — self and inclusive CPU shares from prof_sample.c output.

  python3 tools/prof_symbolize.py prof_sample.<pid>.txt [--top 25] [--threads]

Maps each sampled address to its module through the process's memory map
(recorded at exit), names it with `addr2line -f -C`, and prints, per
function, the share of samples it was running in (self) and the share
it was anywhere on the stack (inclusive). --threads repeats the table
for each thread, busiest first.

Names are only as good as the module's symbols. The system libc is
stripped, so addr2line labels its internal functions with the nearest
exported symbol: memcpy, for one, shows up as __nss_database_lookup.
Treat libc rows as "somewhere in libc" unless the name is plausible.
"""

import argparse
import collections
import subprocess
import sys


def parse(path):
    maps, samples = [], []
    section = None
    with open(path) as f:
        for line in f:
            line = line.rstrip("\n")
            if line == "maps":
                section = "maps"
                continue
            if line.startswith("samples "):
                section = "samples"
                continue
            if section == "maps":
                parts = line.split(maxsplit=5)
                if len(parts) < 6 or "x" not in parts[1]:
                    continue  # only executable mappings hold code
                start, end = (int(v, 16) for v in parts[0].split("-"))
                maps.append((start, end, int(parts[2], 16), parts[5]))
            elif section == "samples" and line:
                tid, *frames = line.split()
                samples.append((int(tid), [int(a, 16) for a in frames]))
    return maps, samples


def is_exec_file(path):
    """True for a fixed-address (ET_EXEC) ELF file, whose addresses are
    absolute; shared objects and PIEs are named by file offset."""
    try:
        with open(path, "rb") as f:
            header = f.read(18)
        return header[:4] == b"\x7fELF" and header[16] == 2
    except OSError:
        return False


def symbolize(maps, addresses):
    """{address: function name}."""
    by_module = collections.defaultdict(dict)  # module -> {address: key}
    names = {}
    for addr in addresses:
        for start, end, offset, module in maps:
            if start <= addr < end:
                key = addr if is_exec_file(module) else addr - start + offset
                by_module[module][addr] = key
                break
        else:
            names[addr] = f"?? {addr:#x}"
    for module, keys in by_module.items():
        ordered = list(keys.items())
        out = subprocess.run(
            ["addr2line", "-f", "-C", "-e", module]
            + [f"{key:#x}" for _, key in ordered],
            capture_output=True, text=True).stdout.splitlines()
        short = module.rsplit("/", 1)[-1]
        for i, (addr, _) in enumerate(ordered):
            name = out[2 * i] if 2 * i < len(out) else "??"
            names[addr] = name if name != "??" else f"?? ({short})"
    return names


def table(samples, names, top, title):
    self_counts = collections.Counter()
    incl_counts = collections.Counter()
    for _, stack in samples:
        if not stack:
            continue
        self_counts[names[stack[0]]] += 1
        for name in {names[a] for a in stack}:
            incl_counts[name] += 1
    total = len(samples)
    print(f"{title}: {total} samples")
    print(f"  {'self %':>7} {'incl %':>7}  function")
    for name, _ in incl_counts.most_common(top):
        print(f"  {100 * self_counts[name] / total:7.1f} "
              f"{100 * incl_counts[name] / total:7.1f}  {name}")
    print(f"  top self:")
    for name, count in self_counts.most_common(top // 2):
        print(f"  {100 * count / total:7.1f}          {name}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("path")
    parser.add_argument("--top", type=int, default=25)
    parser.add_argument("--threads", action="store_true",
                        help="also print a table per thread")
    args = parser.parse_args()
    maps, samples = parse(args.path)
    if not samples:
        sys.exit("prof_symbolize: no samples")
    # A return address points after its call: look up the byte before it,
    # so the call's own line and function are named.
    samples = [(tid, stack[:1] + [a - 1 for a in stack[1:]])
               for tid, stack in samples]
    addresses = {a for _, stack in samples for a in stack}
    names = symbolize(maps, addresses)
    table(samples, names, args.top, "all threads")
    if args.threads:
        by_tid = collections.defaultdict(list)
        for sample in samples:
            by_tid[sample[0]].append(sample)
        for tid, group in sorted(by_tid.items(), key=lambda kv: -len(kv[1])):
            print()
            table(group, names, args.top, f"thread {tid}")


if __name__ == "__main__":
    main()
