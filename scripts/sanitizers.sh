#!/usr/bin/env bash
# Advisory sanitizer pass for the diffreg workspace.
#
# The workspace is #![forbid(unsafe_code)] end to end, so sanitizers are a
# belt-and-suspenders check on std internals and on the simulated-MPI
# threading in `comm`. Both passes need nightly-only toolchain components
# that are not part of the offline CI image, so each one probes for its
# toolchain and SKIPS CLEANLY (exit 0) when it is unavailable. CI treats
# this script as advisory either way.
#
#   1. ThreadSanitizer over the comm suite (where real threads
#      interleave).
#   2. Miri over the comm serial suite (UB check of the queue machinery).
set -uo pipefail
cd "$(dirname "$0")/.."

status=0

echo "==> [sanitizers 1/2] ThreadSanitizer (comm)"
host="$(rustc -vV | sed -n 's/^host: //p')"
nightly_src=""
if rustc +nightly --version >/dev/null 2>&1; then
    nightly_src="$(rustc +nightly --print sysroot 2>/dev/null)/lib/rustlib/src/rust/library/Cargo.lock"
fi
if [ -n "$nightly_src" ] && [ -f "$nightly_src" ]; then
    if RUSTFLAGS="-Zsanitizer=thread" cargo +nightly test --offline \
        -Zbuild-std --target "$host" -q \
        -p diffreg-comm 2>&1 | tail -20; then
        echo "    tsan pass ok"
    else
        echo "    tsan pass FAILED (advisory)"
        status=1
    fi
else
    echo "    nightly toolchain with rust-src not available; skipping tsan"
fi

echo "==> [sanitizers 2/2] Miri (comm serial suite)"
if cargo +nightly miri --version >/dev/null 2>&1; then
    if cargo +nightly miri test --offline -q -p diffreg-comm serial 2>&1 | tail -20; then
        echo "    miri pass ok"
    else
        echo "    miri pass FAILED (advisory)"
        status=1
    fi
else
    echo "    miri not installed; skipping"
fi

if [ "$status" -ne 0 ]; then
    echo "sanitizers: advisory failures above (non-gating)"
    exit 1
fi
echo "sanitizers OK (or cleanly skipped)"
