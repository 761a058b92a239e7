#!/usr/bin/env bash
# Telemetry counter lint: every stats-style counter lives in
# core::telemetry as a `Counter` (lock-free, nameable, renderable on
# /metrics). A bare `AtomicU64` field is how bespoke counters used to
# creep into SimStats/ServeStats/registry one at a time, each invisible
# to the scrape — so new ones outside the allowlist below fail CI.
#
# The allowlist is exhaustively justified; additions need the same kind
# of justification (a non-stats use: a nonce, a clock, a failpoint), not
# a counter that belongs in telemetry.rs.
set -euo pipefail
cd "$(dirname "$0")/.."

# path -> why a raw AtomicU64 is legitimate there.
ALLOW=(
  # The telemetry subsystem itself: Counter's backing store.
  "crates/core/src/telemetry.rs"
  # Temp-file name sequence (uniqueness nonce), never read as a stat.
  "crates/core/src/persist.rs"
  # Fit-collapse nonce for lease names, never read as a stat.
  "crates/core/src/registry.rs"
  # LRU clock + per-model last-used stamps: orderings, not counts.
  "crates/core/src/serve.rs"
)

fail=0
while IFS= read -r file; do
  allowed=0
  for ok in "${ALLOW[@]}"; do
    if [ "$file" = "$ok" ]; then
      allowed=1
      break
    fi
  done
  if [ "$allowed" -eq 0 ]; then
    echo "telemetry_lint: $file declares AtomicU64 outside core::telemetry:" >&2
    grep -n "AtomicU64" "$file" >&2
    fail=1
  fi
done < <(grep -rl "AtomicU64" crates --include="*.rs")

if [ "$fail" -ne 0 ]; then
  echo >&2
  echo "telemetry_lint: stats counters belong in crates/core/src/telemetry.rs" >&2
  echo "as telemetry::Counter fields (mirror into a global for /metrics); if" >&2
  echo "this AtomicU64 is genuinely not a stat, add it to the allowlist in" >&2
  echo "ci/telemetry_lint.sh with a justification." >&2
  exit 1
fi
echo "telemetry_lint: ok (no stray AtomicU64 stats fields)"
