#!/usr/bin/env python3
"""Resolves hostprof output (sampler.cpp, newcount.cpp) to source functions.

Usage:
    python3 tools/hostprof/resolve.py hostprof.<pid>.samples [...] [--top N] [--under FRAME]
    python3 tools/hostprof/resolve.py hostprof.<pid>.new [...] [--top N]

Several files of one kind (repeated runs) are resolved each against its own
process's maps and reported together.

Each input carries a copy of the profiled process's /proc/self/maps. An
address is mapped to its object file and ELF virtual address through that
copy and the file's PT_LOAD headers, then resolved in one batch per object
with `addr2line -f -i -C`, so inlined frames appear too.

For samples it prints the total, then self and inclusive shares per
function: self is the innermost (inlined) function at the sampled program
counter, inclusive counts every function on the frame-pointer chain once
per sample. --under FRAME keeps only the samples with a function whose name
contains FRAME on their stack (say Platform::RunToCompletion, to leave out
set-up and teardown); the shares are then of those samples. For operator
new sites it prints the total, then calls and bytes
per site, labelled by the innermost function outside the standard library
with the allocating library frame after "via".
"""

import argparse
import collections
import re
import struct
import subprocess
import sys


def parse(path):
    kind, maps, rows = None, [], []
    with open(path) as f:
        header = f.readline().split()
        if len(header) < 2 or header[0] != "hostprof":
            sys.exit("%s: not a hostprof file" % path)
        kind = header[1]
        for line in f:
            tag, _, rest = line.partition(" ")
            if tag == "m":
                maps.append(rest.rstrip("\n"))
            elif tag in ("s", "n"):
                rows.append([int(x, 16) if i == 0 or tag == "s" else int(x)
                             for i, x in enumerate(rest.split())])
    return kind, parse_maps(maps), rows


def parse_maps(lines):
    """[(start, end, file_offset, path)] for file-backed executable mappings."""
    out = []
    for line in lines:
        parts = line.split(None, 5)
        if len(parts) < 6 or "x" not in parts[1] or not parts[5].startswith("/"):
            continue
        start, end = (int(x, 16) for x in parts[0].split("-"))
        out.append((start, end, int(parts[2], 16), parts[5]))
    return out


def load_segments(path):
    """PT_LOAD (p_offset, p_vaddr, p_filesz) of a 64-bit little-endian ELF."""
    try:
        with open(path, "rb") as f:
            ident = f.read(64)
            if ident[:4] != b"\x7fELF" or ident[4] != 2 or ident[5] != 1:
                return []
            phoff, = struct.unpack_from("<Q", ident, 32)
            phentsize, phnum = struct.unpack_from("<HH", ident, 54)
            f.seek(phoff)
            table = f.read(phentsize * phnum)
    except OSError:
        return []
    segs = []
    for i in range(phnum):
        p_type, _, p_offset, p_vaddr, _, p_filesz = struct.unpack_from("<IIQQQQ", table,
                                                                       i * phentsize)
        if p_type == 1:
            segs.append((p_offset, p_vaddr, p_filesz))
    return segs


class Resolver:
    def __init__(self, maps):
        self.maps = maps
        self.segs = {}
        self.names = {}

    def locate(self, addr):
        for start, end, offset, path in self.maps:
            if start <= addr < end:
                file_off = addr - start + offset
                if path not in self.segs:
                    self.segs[path] = load_segments(path)
                for p_offset, p_vaddr, p_filesz in self.segs[path]:
                    if p_offset <= file_off < p_offset + p_filesz:
                        return path, file_off - p_offset + p_vaddr
                return path, file_off
        return None, addr

    def resolve(self, addrs):
        """Fills self.names[addr] = [(function, file:line), ...], innermost first."""
        by_obj = collections.defaultdict(list)
        for a in set(addrs) - set(self.names):
            path, vaddr = self.locate(a)
            if path is None:
                self.names[a] = [("0x%x" % a, "??")]
            else:
                by_obj[path].append((a, vaddr))
        for path, pairs in by_obj.items():
            base = path.rsplit("/", 1)[-1]
            try:
                out = subprocess.run(["addr2line", "-f", "-i", "-C", "-a", "-e", path] +
                                     ["0x%x" % v for _, v in pairs],
                                     capture_output=True, text=True, check=False).stdout
            except OSError:
                out = ""
            blocks = []
            for line in out.splitlines():
                if re.fullmatch(r"0x[0-9a-f]+", line) and (not blocks or len(blocks[-1]) % 2 == 0):
                    blocks.append([])
                elif blocks:
                    blocks[-1].append(line)
            for i, (a, vaddr) in enumerate(pairs):
                lines = blocks[i] if i < len(blocks) else []
                frames = [(lines[j], lines[j + 1].rsplit("/", 1)[-1])
                          for j in range(0, len(lines) - 1, 2)]
                frames = [(fn if fn != "??" else "%s+0x%x" % (base, vaddr), loc)
                          for fn, loc in frames]
                self.names[a] = frames or [("%s+0x%x" % (base, vaddr), "??")]


def short(fn, width=110):
    return fn if len(fn) <= width else fn[:width - 3] + "..."


def is_library(fn):
    return (fn.startswith(("std::", "__gnu_cxx::", "operator new", "void std::",
                           "__", "_M_")) or ".so" in fn)


def report_samples(runs, top, under=None):
    total = taken = 0
    self_c, incl_c = collections.Counter(), collections.Counter()
    for rows, res in runs:
        res.resolve([pc for row in rows for pc in row])
        total += len(rows)
        for row in rows:
            if under is not None and not any(under in fn for pc in row
                                             for fn, _ in res.names[pc]):
                continue
            taken += 1
            frames = res.names[row[0]]
            self_c[frames[0][0]] += 1
            seen = set()
            for pc in row:
                for fn, _ in res.names[pc]:
                    if fn not in seen:
                        seen.add(fn)
                        incl_c[fn] += 1
    if under is None:
        print("samples: %d" % total)
    else:
        print("samples: %d (under %s, of %d)" % (taken, under, total))
    if taken == 0:
        return
    print("\n%-8s %6s  %s" % ("self", "share", "function"))
    for fn, n in self_c.most_common(top):
        print("%-8d %5.1f%%  %s" % (n, 100.0 * n / taken, short(fn)))
    print("\n%-8s %6s  %s" % ("incl", "share", "function"))
    for fn, n in incl_c.most_common(top):
        print("%-8d %5.1f%%  %s" % (n, 100.0 * n / taken, short(fn)))


def report_new(runs, top):
    calls = collections.Counter()
    nbytes = collections.Counter()
    for rows, res in runs:
        res.resolve([row[0] for row in rows])
        for addr, n, b in rows:
            frames = res.names[addr]
            owner = next(((fn, loc) for fn, loc in frames if not is_library(fn)), frames[-1])
            via = frames[0][0] if frames[0][0] != owner[0] else ""
            label = "%s (%s)" % (short(owner[0], 80), owner[1])
            if via:
                label += " via " + short(via, 60)
            calls[label] += n
            nbytes[label] += b
    total = sum(calls.values())
    print("sites: %d" % len(calls))
    print("calls: %d" % total)
    if total == 0:
        return
    print("\n%-10s %6s %12s  %s" % ("calls", "share", "bytes", "site"))
    for label, n in calls.most_common(top):
        print("%-10d %5.1f%% %12d  %s" % (n, 100.0 * n / total, nbytes[label], label))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("files", nargs="+")
    ap.add_argument("--top", type=int, default=30)
    ap.add_argument("--under", metavar="FRAME",
                    help="samples only: keep those with FRAME in a function name on the stack")
    args = ap.parse_args()
    kinds, runs = set(), []
    for path in args.files:
        kind, maps, rows = parse(path)
        kinds.add(kind)
        runs.append((rows, Resolver(maps)))
    if len(kinds) != 1:
        sys.exit("hostprof: mixed file kinds %s" % sorted(kinds))
    kind = kinds.pop()
    if kind == "samples":
        report_samples(runs, args.top, args.under)
    elif kind == "new":
        report_new(runs, args.top)
    else:
        sys.exit("%s: unknown hostprof kind %r" % (args.files[0], kind))


if __name__ == "__main__":
    main()
