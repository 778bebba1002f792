#!/usr/bin/env sh
# Serve-surface smoke check (the CI serve-smoke job): build the bnloc_serve
# example, feed it its own demo batch plus a generated mixed batch, and
# validate the streamed JSONL against the docs/SERVICE.md response schema.
set -eu

cd "$(dirname "$0")/.."

# Lean build: the service example only needs the library (tests and
# benches are covered by the other jobs).
if [ -f build-serve/CMakeCache.txt ]; then
  cmake -B build-serve
elif command -v ninja > /dev/null 2>&1; then
  cmake -B build-serve -G Ninja \
    -DBNLOC_BUILD_TESTS=OFF -DBNLOC_BUILD_BENCH=OFF
else
  cmake -B build-serve -DBNLOC_BUILD_TESTS=OFF -DBNLOC_BUILD_BENCH=OFF
fi
cmake --build build-serve --target bnloc_serve

SERVE=build-serve/examples/bnloc_serve
TMP="${TMPDIR:-/tmp}/bnloc-serve-smoke.$$"
mkdir -p "$TMP"
trap 'rm -rf "$TMP"' EXIT

# 1. The documented quickstart flow: demo batch -> file -> serve.
"$SERVE" --demo-batch > "$TMP/batch.json"
"$SERVE" --quiet "$TMP/batch.json" > "$TMP/out.jsonl"
python3 scripts/validate_serve_output.py "$TMP/batch.json" "$TMP/out.jsonl"

# 2. Same batch over stdin, two workers: stream order and payloads must be
# identical to the file-fed single-default run above (the determinism
# contract, minus wall-clock fields — the validator strips them).
"$SERVE" --quiet --threads 2 - < "$TMP/batch.json" > "$TMP/out2.jsonl"
python3 scripts/validate_serve_output.py --expect-match "$TMP/out.jsonl" \
  "$TMP/batch.json" "$TMP/out2.jsonl"

# 3. A failing request must produce an ok=false line, not a dead batch:
# too few nodes, and an infinite radio range (1e999 decodes as inf, which
# would otherwise score every error as 0 radio ranges).
python3 - "$TMP/batch.json" "$TMP/bad.json" << 'EOF'
import json, sys
batch = json.load(open(sys.argv[1]))
batch["requests"][1]["scenario"]["nodes"] = 1  # validation failure
batch["requests"][2]["scenario"]["radio_range"] = "INF"
# json.dump cannot spell an out-of-range number; splice the literal in.
text = json.dumps(batch).replace('"INF"', "1e999")
open(sys.argv[2], "w").write(text)
EOF
if "$SERVE" --quiet "$TMP/bad.json" > "$TMP/out-bad.jsonl"; then
  echo "serve_smoke: expected nonzero exit for a batch with a failed request" >&2
  exit 1
fi
python3 scripts/validate_serve_output.py --allow-failures "$TMP/bad.json" \
  "$TMP/out-bad.jsonl"
python3 - "$TMP/out-bad.jsonl" << 'EOF'
import json, sys
lines = [json.loads(line) for line in open(sys.argv[1])]
for index, field in ((1, "nodes"), (2, "radio_range")):
    if lines[index]["ok"] or field not in lines[index]["error"]:
        sys.exit(f"serve_smoke: request {index} should fail on {field}: "
                 f"{lines[index]}")
EOF

# 4. Results that never reach stdout are a failed run, not a quiet success:
# with stdout on a full device the binary must exit nonzero.
if [ -e /dev/full ]; then
  if "$SERVE" --quiet "$TMP/batch.json" > /dev/full 2> /dev/null; then
    echo "serve_smoke: expected nonzero exit with stdout on /dev/full" >&2
    exit 1
  fi
fi

# 5. Observability surface: one batch -> Prometheus exposition + Perfetto
# trace; the same batch twice (--repeat 2) -> every integer event counter
# at least doubles, i.e. is monotonic in served work. The payload lines of
# the instrumented run must still match run 1 bit for bit.
"$SERVE" --quiet --threads 2 --metrics-out "$TMP/m1.prom" \
  --trace-out "$TMP/t1.json" "$TMP/batch.json" > "$TMP/out-obs.jsonl"
python3 scripts/validate_serve_output.py --expect-match "$TMP/out.jsonl" \
  "$TMP/batch.json" "$TMP/out-obs.jsonl"
"$SERVE" --quiet --threads 2 --repeat 2 --metrics-out "$TMP/m2.prom" \
  "$TMP/batch.json" > /dev/null
python3 scripts/check_metrics.py prom "$TMP/m1.prom" \
  --require serve_requests_total \
  --require serve_latency_ns \
  --require grid_cell_visits_total \
  --require grid_kernel_cells_total \
  --require grid_round_residual
# m2 comes from a run without --trace-out, so spans are off there: the phase
# timers must reach the exposition anyway.
python3 scripts/check_metrics.py prom "$TMP/m2.prom" \
  --require serve_request_calls_total \
  --require grid_update_calls_total \
  --monotonic-since "$TMP/m1.prom"
python3 scripts/check_metrics.py trace "$TMP/t1.json" \
  --require serve.request --require grid.run \
  --contains serve.request grid.run \
  --contains grid.run grid.setup \
  --contains grid.run grid.update

# 6. Hostile input fails cleanly instead of killing the process: a batch
# nested 100,000 deep (the reader recurses per container) must exit 1 with
# the parse error, and a negative count must be a usage error (exit 2), not
# a wrapped 2^64 - 1 worker threads.
python3 -c 'print("[" * 100000 + "]" * 100000)' > "$TMP/deep.json"
status=0
"$SERVE" --quiet - < "$TMP/deep.json" > /dev/null 2> "$TMP/deep.err" ||
  status=$?
if [ "$status" -ne 1 ] || ! grep -q "nesting too deep" "$TMP/deep.err"; then
  echo "serve_smoke: deep batch: want exit 1 + 'nesting too deep'," \
    "got exit $status" >&2
  exit 1
fi
status=0
"$SERVE" --quiet --threads -1 "$TMP/batch.json" > /dev/null 2>&1 ||
  status=$?
if [ "$status" -ne 2 ]; then
  echo "serve_smoke: --threads -1: want exit 2, got exit $status" >&2
  exit 1
fi

echo "serve smoke passed"
