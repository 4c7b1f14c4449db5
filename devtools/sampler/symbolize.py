#!/usr/bin/env python3
"""Turns a sampler profile into per-stage and per-function tables.

    python3 devtools/sampler/symbolize.py PROFILE [--top N] [--match PATTERN]...

PROFILE is the file a run under the sampler wrote to $SAMPLER_OUT. Each
sample's instruction pointer is mapped back to its ELF file through the
recorded /proc/self/maps and resolved with `addr2line -i`, which lists the
inlined frames too. Two tables follow:

* per stage: the frame directly under `Core::step` (fetch, dispatch,
  issue, writeback, commit, ...). When the instruction pointer's frames do
  not reach `Core::step` (an out-of-line callee such as `memcpy` or a
  non-inlined accessor), the sample's caller is resolved instead, which
  charges a leaf call to the stage that made it;
* per function: the innermost frame of the instruction pointer. A module
  without debug info (a stripped libc) only resolves to its nearest
  exported symbol, which misnames its `memcpy`/`memmove` as whatever
  symbol precedes them; such frames are labelled `[libc.so.6] called from
  <caller>` instead.

The caller comes from the stack words the sampler recorded above the
stack pointer. For a function with debug info it is the first word (the
return address at a leaf's entry). A library leaf may have pushed
registers or reserved a frame first, so for it the caller is the first of
the words that resolves to a function in a module with debug info. The
line `library leaves:` reports how many library samples found a caller
that way.

Each `--match PATTERN` (a Python regular expression, searched in every
frame name; repeatable) adds a line with the share of samples whose inline
chain has a matching frame, e.g. `--match Rob:: --match Scheduler::`. For
a leaf in a module without debug info the chain is its caller's chain, so
a `memcpy` called from `Rob::push` counts as `Rob::`.

Addresses are resolved against the files on disk, so symbolize a profile
before rebuilding the binary that wrote it. Standard library only; needs
`addr2line` from binutils on the PATH.
Exit status 1 when the profile holds no sample that resolves to a function
or lies in a library without debug info.
"""

import argparse
import bisect
import collections
import re
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
                rip, *words = (int(x, 16) for x in line.split())
                samples.append((rip, words))
    maps.sort()
    return header, maps, samples


def load_segments(path):
    """(file offset, vaddr, file size) of each PT_LOAD segment of an ELF64,
    and whether the file has a `.debug_info` section."""
    try:
        with open(path, "rb") as f:
            ident = f.read(64)
            if ident[:4] != b"\x7fELF" or ident[4] != 2:
                return None
            phoff, shoff = struct.unpack_from("<QQ", ident, 32)
            phentsize, phnum, shentsize, shnum, shstrndx = struct.unpack_from(
                "<HHHHH", ident, 54)
            f.seek(phoff)
            table = f.read(phentsize * phnum)
            f.seek(shoff)
            sections = f.read(shentsize * shnum)
            names = b""
            if shstrndx < shnum:
                str_off, str_size = struct.unpack_from(
                    "<QQ", sections, shstrndx * shentsize + 24)
                f.seek(str_off)
                names = f.read(str_size)
    except (OSError, struct.error):
        return None
    segments = []
    for i in range(phnum):
        p_type, _flags, p_offset, p_vaddr, _paddr, p_filesz = struct.unpack_from(
            "<IIQQQQ", table, i * phentsize)
        if p_type == 1:
            segments.append((p_offset, p_vaddr, p_filesz))
    debug = False
    for i in range(shnum):
        name_off, = struct.unpack_from("<I", sections, i * shentsize)
        if names[name_off:name_off + 12] == b".debug_info\0":
            debug = True
    return segments, debug


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
        if not self.segments[path]:
            return None
        segments, _debug = self.segments[path]
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

    def in_library(self, where):
        """Whether a located address lies in a module without debug info."""
        return bool(where) and not self.segments[where[0]][1]

    def functions(self, addr):
        """Function names, innermost first; [] when unresolved or when the
        module has no debug info (its names are only nearest exports)."""
        where = self.locate(addr)
        if not where or self.in_library(where):
            return []
        names = [f.split(" at ")[0] for f in self.frames.get(where, [])]
        return [n for n in names if n != "??"]


def is_core_method(name):
    return CORE in name and "::" in name.rsplit(">", 1)[-1]


def caller_of(resolver, words, library):
    """The inline chain of the sample's caller, innermost first ([] when
    unknown): the first stack word, or for a library leaf the first word
    that resolves to a function in a module with debug info."""
    for w in words if library else words[:1]:
        names = resolver.functions(w - 1) if w else []
        if names:
            return names
    return []


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


def table(title, rows, total):
    print(f"\n{title}")
    print(f"{'share':>7} {'samples':>8}  name")
    for name, n in rows:
        print(f"{100.0 * n / total:6.1f}% {n:8d}  {name}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("profile")
    ap.add_argument("--top", type=int, default=25)
    ap.add_argument("--match", action="append", default=[], metavar="PATTERN",
                    help="print the share of samples with a frame matching "
                         "this regular expression (repeatable)")
    args = ap.parse_args()
    patterns = [(p, re.compile(p)) for p in args.match]
    header, maps, samples = parse_profile(args.profile)
    if not samples:
        print(f"{args.profile}: no samples ({header})", file=sys.stderr)
        return 1
    resolver = Resolver(maps)
    # Return addresses point after the call; resolve the call itself.
    resolver.resolve_all({rip for rip, _ in samples}
                         | {w - 1 for _, words in samples for w in words if w})
    stages, functions = collections.Counter(), collections.Counter()
    matched = collections.Counter()
    resolved = leaves = leaves_placed = 0
    for rip, words in samples:
        names = resolver.functions(rip)
        where = resolver.locate(rip)
        library = resolver.in_library(where)
        resolved += bool(names) or library
        caller = caller_of(resolver, words, library)
        if library:
            leaves += 1
            leaves_placed += bool(caller)
        stage = stage_of(names) or stage_of(caller)
        stages[short(stage) if stage else "(outside Core::step)"] += 1
        if names:
            functions[short(names[0])] += 1
            chain = names
        else:
            module = where[0].rsplit("/", 1)[-1] if where else "?"
            via = short(caller[0]) if caller else "?"
            functions[f"[{module}] called from {via}"] += 1
            chain = caller
        for pattern, regex in patterns:
            if any(regex.search(short(n)) for n in chain):
                matched[pattern] += 1
    total = len(samples)
    print(f"{header}; {resolved} of {total} samples resolved to a function or library")
    print(f"library leaves: {leaves} samples ({100.0 * leaves / total:.1f}%), "
          f"caller found for {leaves_placed} ({100.0 * leaves_placed / max(leaves, 1):.1f}%)")
    table("per stage (frame under Core::step)", stages.most_common(args.top), total)
    table("per function (innermost frame)", functions.most_common(args.top), total)
    if patterns:
        table("matches (samples with a matching frame, library leaves via their caller)",
              [(p, matched[p]) for p, _ in patterns], total)
    return 0 if resolved else 1


if __name__ == "__main__":
    sys.exit(main())
