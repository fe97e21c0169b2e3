#!/usr/bin/env bash
# Check that the working tree writes the same outputs as revision REV: run
# this checkout's scripts/run_all.sh in a temporary worktree of REV and in
# the working tree, then diff the two result directories, ignoring the
# timestamp in summary.json.  Prints nothing (exit 0) when every CSV is
# byte-identical and every summary.json differs only in its timestamp.
# Temporary files go under $TMPDIR (default /tmp).
# Usage: scripts/ab_outputs.sh REV
set -euo pipefail

rev="${1:?usage: scripts/ab_outputs.sh REV}"
root="$(cd "$(dirname "$0")/.." && pwd)"
tmp="$(mktemp -d)"
cleanup() {
    git -C "$root" worktree remove --force "$tmp/rev" 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT

git -C "$root" worktree add --quiet --detach "$tmp/rev" "$rev"
cp "$root/scripts/run_all.sh" "$tmp/rev/scripts/run_all.sh"
"$tmp/rev/scripts/run_all.sh" "$tmp/A" >/dev/null
"$root/scripts/run_all.sh" "$tmp/B" >/dev/null
diff -r -I '"timestamp"' "$tmp/A" "$tmp/B"
