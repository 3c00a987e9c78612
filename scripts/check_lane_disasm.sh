#!/usr/bin/env bash
# The "intrinsic left as a call" check of the x86 lane kernels.
#
# The kernels under `grape5::lanes::avx2` (its `columns`, `exact` and `lns`
# modules) are `#[inline(always)]` bodies over op tables (`LnsLane`,
# `AccOps`), entered through `#[target_feature]` wrappers named `block_*`.
# Anything in such a body that becomes a function of its own (a closure, an
# array `map`) is compiled without the wrapper's features: every intrinsic
# in it stays a call, the tests still pass, and the kernel is ~10x slower.
# This fails when a `call` into `core_arch`, `try_map` or `try_from_fn` sits
# inside any symbol under `grape5::lanes::avx2::` in the binary — the
# `block_*` entries, in whichever of its modules they sit, and whatever of
# the module was not inlined into them, closures included — and lists the
# symbols it looked at. It also fails when one `block_*` name is more than
# one symbol: each entry is compiled once per mode and op column, so a
# second copy is a second instantiation of it (a generic parameter came
# back). And it fails when it finds no `block_*` entry at all.
#
#   scripts/check_lane_disasm.sh target/release/exp_kernel
set -euo pipefail
bin=${1:?usage: check_lane_disasm.sh <binary>}
command -v objdump >/dev/null || { echo "check_lane_disasm: objdump not found; skipped"; exit 0; }
objdump -d -C --no-show-raw-insn "$bin" | awk -v bin="$bin" '
    /^[0-9a-f]+ <.*>:$/ {
        sym = $0; sub(/^[0-9a-f]+ </, "", sym); sub(/>:$/, "", sym)
        kernel = sym ~ /grape5::lanes::avx2::/
        if (sym ~ /grape5::lanes::avx2::([a-z0-9_]+::)*block_/) { entries++; copies[sym]++ }
        if (kernel) { seen++; print "  looked at: " sym }
        next
    }
    kernel && /[ \t]call/ && /core_arch|try_map|try_from_fn/ { bad++; print "  LEFT AS A CALL in " sym ": " $0 }
    END {
        if (!entries) { print "check_lane_disasm: no block_* symbol under grape5::lanes::avx2 in " bin; exit 1 }
        for (e in copies) if (copies[e] > 1) { twins++; print "  " copies[e] " SYMBOLS NAMED " e }
        if (twins) { print "check_lane_disasm: " twins " block_* entries instantiated more than once in " bin; exit 1 }
        if (bad) { print "check_lane_disasm: " bad " intrinsic call(s) inside " seen " lane-kernel symbols of " bin; exit 1 }
        print "check_lane_disasm: " seen " lane-kernel symbols (" entries " block_* entries, one symbol each) of " bin ", no intrinsic left as a call"
    }'
