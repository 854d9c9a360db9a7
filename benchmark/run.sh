#!/usr/bin/env bash
# The repo benchmark: builds benchmark/ (a package of its own) and runs it.
#
#   benchmark/run.sh [--seed N] [--out DIR]        every workload, all checks
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#   benchmark/run.sh --smoke                        tiny grids, seconds
#   benchmark/run.sh --compare A.json B.json
#
# See benchmark/README.md. Where the library sources under ../crates are
# missing the build fails, so this exits non-zero without a result line.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
exec cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" -- "$@"
