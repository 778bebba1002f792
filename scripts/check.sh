#!/usr/bin/env sh
# CI-sized end-to-end check: configure, build, run all tests, and smoke-run
# every bench and example in fast mode. Exits nonzero on the first failure.
set -eu

cd "$(dirname "$0")/.."

# Reuse an existing build tree as-is (its generator is baked into the
# cache); otherwise prefer Ninja when available, default generator if not.
if [ -f build/CMakeCache.txt ]; then
  cmake -B build
elif command -v ninja > /dev/null 2>&1; then
  cmake -B build -G Ninja
else
  cmake -B build
fi
cmake --build build
ctest --test-dir build --output-on-failure

export BNLOC_FAST=1
# Run the targets the configure step listed, not whatever the output
# directories hold: a target deleted from the build leaves its old binary
# behind in a reused tree.
while read -r b; do
  echo "--- build/bench/$b"
  "build/bench/$b" < /dev/null > /dev/null
done < build/bench-build/targets.txt
while read -r e; do
  echo "--- build/examples/$e"
  (cd build && "examples/$e" < /dev/null > /dev/null)
done < build/examples/targets.txt
echo "all checks passed"
