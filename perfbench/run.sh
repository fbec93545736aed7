#!/usr/bin/env bash
# Build the benchmark from source (release profile) and run one workload:
#
#   bash perfbench/run.sh --workload full64 --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root.  Build output goes to stderr and to
# $CARGO_TARGET_DIR (or _build) so that standard output ends with the
# benchmark's JSON line.  Exits non-zero without a result when the build
# fails.
set -euo pipefail
cd "$(dirname "$0")/.."
build_dir="${CARGO_TARGET_DIR:-_build}"
if ! dune build --root . --build-dir "$build_dir" --profile release \
  ./perfbench/bench.exe 1>&2; then
  echo "perfbench: build failed" >&2
  exit 2
fi
exec "$build_dir/default/perfbench/bench.exe" "$@"
