#!/usr/bin/env python3
"""Turns a sampler profile into per-stage and per-function tables.

    python3 devtools/sampler/symbolize.py PROFILE [--top N]

PROFILE is the file a run under the sampler wrote to $SAMPLER_OUT. Each
sample's instruction pointer is mapped back to its ELF file through the
recorded /proc/self/maps and resolved with `addr2line -i`, which lists the
inlined frames too. Two tables follow:

* per stage: the frame directly under `Core::step` (fetch, dispatch,
  issue, writeback, commit, ...). When the instruction pointer's frames do
  not reach `Core::step` (an out-of-line callee such as `memcpy` or a
  non-inlined accessor), the sample's return-address word is resolved
  instead, which charges a leaf call to the stage that made it;
* per function: the innermost frame of the instruction pointer, with the
  caller (from the return-address word) for library code without symbols.

Addresses are resolved against the files on disk, so symbolize a profile
before rebuilding the binary that wrote it. Standard library only; needs
`addr2line` from binutils on the PATH.
Exit status 1 when the profile holds no sample that resolves to a function.
"""

import argparse
import bisect
import collections
import struct
import subprocess
import sys

STEP = "::step"
CORE = "Core<"


def parse_profile(path):
    maps, samples, header = [], [], None
    section = None
    with open(path) as f:
        for line in f:
            line = line.rstrip("\n")
            if header is None:
                header = line
                continue
            if line in ("[maps]", "[samples]"):
                section = line
                continue
            if section == "[maps]":
                parts = line.split(None, 5)
                if len(parts) < 6 or "x" not in parts[1]:
                    continue
                lo, hi = (int(x, 16) for x in parts[0].split("-"))
                maps.append((lo, hi, int(parts[2], 16), parts[5]))
            elif section == "[samples]" and line:
                rip, ret = line.split()
                samples.append((int(rip, 16), int(ret, 16)))
    maps.sort()
    return header, maps, samples


def load_segments(path):
    """(file offset, vaddr, file size) of each PT_LOAD segment of an ELF64."""
    try:
        with open(path, "rb") as f:
            ident = f.read(64)
            if ident[:4] != b"\x7fELF" or ident[4] != 2:
                return None
            phoff, = struct.unpack_from("<Q", ident, 32)
            phentsize, phnum = struct.unpack_from("<HH", ident, 54)
            f.seek(phoff)
            table = f.read(phentsize * phnum)
    except OSError:
        return None
    segments = []
    for i in range(phnum):
        p_type, _flags, p_offset, p_vaddr, _paddr, p_filesz = struct.unpack_from(
            "<IIQQQQ", table, i * phentsize)
        if p_type == 1:
            segments.append((p_offset, p_vaddr, p_filesz))
    return segments


class Resolver:
    """Maps run-time addresses to (module, file vaddr) and symbolizes them."""

    def __init__(self, maps):
        self.maps = maps
        self.starts = [m[0] for m in maps]
        self.segments = {}
        self.frames = {}

    def locate(self, addr):
        i = bisect.bisect_right(self.starts, addr) - 1
        if i < 0:
            return None
        lo, hi, offset, path = self.maps[i]
        if addr >= hi or not path.startswith("/"):
            return None
        if path not in self.segments:
            self.segments[path] = load_segments(path)
        segments = self.segments[path]
        if not segments:
            return None
        file_off = addr - lo + offset
        for seg_off, vaddr, size in segments:
            if seg_off <= file_off < seg_off + size:
                return path, file_off - seg_off + vaddr
        return None

    def resolve_all(self, addrs):
        by_module = collections.defaultdict(set)
        for addr in addrs:
            where = self.locate(addr)
            if where:
                by_module[where[0]].add(where[1])
        for path, vaddrs in by_module.items():
            vaddrs = sorted(vaddrs)
            out = subprocess.run(
                ["addr2line", "-e", path, "-a", "-f", "-i", "-C", "-p"],
                input="".join(f"{v:#x}\n" for v in vaddrs),
                capture_output=True, text=True, check=True).stdout
            current = None
            for line in out.splitlines():
                if line.startswith("0x") and ": " in line:
                    head, frame = line.split(": ", 1)
                    current = (path, int(head, 16))
                    self.frames[current] = [frame]
                elif line.startswith(" (inlined by) ") and current:
                    self.frames[current].append(line[len(" (inlined by) "):])

    def functions(self, addr):
        """Function names, innermost first; [] when unresolved."""
        where = self.locate(addr)
        frames = self.frames.get(where, []) if where else []
        names = [f.split(" at ")[0] for f in frames]
        return [n for n in names if n != "??"]


def is_core_method(name):
    return CORE in name and "::" in name.rsplit(">", 1)[-1]


def stage_of(names):
    """The frame directly under `Core::step`, or None if it is not known.

    Stages that the compiler kept out of line (their own symbol, called
    from `step`) have no `step` frame above them; the outermost `Core`
    method of the inline chain stands in for the frame under `step`.
    """
    for i, name in enumerate(names):
        if CORE in name and name.endswith(STEP):
            return names[i - 1] if i > 0 else "Core::step (self)"
    if names and is_core_method(names[-1]):
        return names[-1]
    return None


def short(name):
    """Abbreviates the core's inherent methods to `Core::method`."""
    return name.replace("specrun_cpu::core::Core<O>", "Core")


def table(title, counts, total, top):
    print(f"\n{title}")
    print(f"{'share':>7} {'samples':>8}  name")
    for name, n in counts.most_common(top):
        print(f"{100.0 * n / total:6.1f}% {n:8d}  {name}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("profile")
    ap.add_argument("--top", type=int, default=25)
    args = ap.parse_args()
    header, maps, samples = parse_profile(args.profile)
    if not samples:
        print(f"{args.profile}: no samples ({header})", file=sys.stderr)
        return 1
    resolver = Resolver(maps)
    # Return addresses point after the call; resolve the call itself.
    resolver.resolve_all({rip for rip, _ in samples} | {ret - 1 for _, ret in samples if ret})
    stages, functions = collections.Counter(), collections.Counter()
    resolved = 0
    for rip, ret in samples:
        names = resolver.functions(rip)
        caller = resolver.functions(ret - 1) if ret else []
        resolved += bool(names)
        stage = stage_of(names) or stage_of(caller)
        stages[short(stage) if stage else "(outside Core::step)"] += 1
        if names:
            functions[short(names[0])] += 1
        else:
            where = resolver.locate(rip)
            module = where[0].rsplit("/", 1)[-1] if where else "?"
            via = short(caller[0]) if caller else "?"
            functions[f"[{module}] called from {via}"] += 1
    total = len(samples)
    print(f"{header}; {resolved} of {total} samples resolved to a function")
    table("per stage (frame under Core::step)", stages, total, args.top)
    table("per function (innermost frame)", functions, total, args.top)
    return 0 if resolved else 1


if __name__ == "__main__":
    sys.exit(main())
