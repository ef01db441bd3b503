#!/bin/sh
# Crash-recovery acceptance for `palu_tool serve` (DESIGN.md §5f).
#
# The crash-only claim: a daemon killed with SIGKILL mid-service — no
# drain, no final flush — restarts with --restore at the last
# checkpointed window boundary, and every fit it publishes from there on
# is byte-identical to an uninterrupted run over the same trace.
#
# Usage: serve_kill9_test.sh /path/to/palu_tool
set -eu

TOOL="$1"
DIR="$(mktemp -d)"
trap 'rm -rf "$DIR"' EXIT

"$TOOL" generate --nodes 2000 --packets 30000 --seed 13 > "$DIR/trace.txt"

# True once the interrupted run has published 3 windows ($1) and its
# checkpoint ($2) records them.  The daemon publishes a window's line
# before it checkpoints that window, so killing on the line alone can
# land between the two and resume one window early.
parked() {
    [ "$(grep -c '^window=' "$1" 2>/dev/null || true)" -ge 3 ] &&
        grep -q ' published 3$' "$2" 2>/dev/null
}

# Uninterrupted reference run: 6 windows.
"$TOOL" serve --trace "$DIR/trace.txt" --window 5000 > "$DIR/full.txt"
[ "$(grep -c '^window=' "$DIR/full.txt")" -eq 6 ] || {
    echo "FAIL: reference run did not publish 6 windows" >&2
    exit 1
}

# Interrupted run: the growing file holds only 3.5 windows, so the
# follow-mode daemon publishes 3 windows and parks at EOF mid-stream
# (half a window buffered, nothing clean about this stopping point).
# SIGKILL it there — no drain, no final checkpoint flush.
head -n 17500 "$DIR/trace.txt" > "$DIR/growing.txt"
"$TOOL" serve --trace "$DIR/growing.txt" --follow --window 5000 \
    --poll-interval-ms 20 --checkpoint "$DIR/ck.txt" \
    > "$DIR/part.txt" 2> "$DIR/part_err.txt" &
PID=$!
i=0
while ! parked "$DIR/part.txt" "$DIR/ck.txt"
do
    i=$((i + 1))
    if [ "$i" -gt 300 ]; then
        echo "FAIL: interrupted run stalled" >&2
        cat "$DIR/part_err.txt" >&2
        kill -9 "$PID" 2>/dev/null || true
        exit 1
    fi
    sleep 0.1
done
kill -9 "$PID"
wait "$PID" 2>/dev/null || true

# The writer finishes the stream, and the daemon restarts from the
# checkpoint to serve the rest of the trace.
cp "$DIR/trace.txt" "$DIR/growing.txt"
"$TOOL" serve --trace "$DIR/growing.txt" --window 5000 \
    --checkpoint "$DIR/ck.txt" --restore \
    > "$DIR/resume.txt" 2> "$DIR/resume_err.txt"
grep -q 'restored checkpoint' "$DIR/resume_err.txt" || {
    echo "FAIL: resume did not restore the checkpoint" >&2
    cat "$DIR/resume_err.txt" >&2
    exit 1
}

# The resumed run must pick up exactly at the checkpointed boundary
# (window 3): its lines are byte-identical to the reference run's
# trailing lines.
RESUMED=$(grep -c '^window=' "$DIR/resume.txt" || true)
if [ "$RESUMED" -ne 3 ]; then
    echo "FAIL: resumed run published $RESUMED windows (expected 3)" >&2
    cat "$DIR/resume_err.txt" >&2
    exit 1
fi
tail -n "$RESUMED" "$DIR/full.txt" > "$DIR/expected_tail.txt"
diff "$DIR/expected_tail.txt" "$DIR/resume.txt" || {
    echo "FAIL: resumed fits differ from the uninterrupted run" >&2
    exit 1
}

echo "serve kill-9 restore: OK (resumed $RESUMED of 6 windows)"

# Scenario 2 — the staleness gauge must survive the crash.  With every
# refit force-degraded (PALU_FAILPOINT=serve.fit with a huge fire budget)
# the consecutive-staleness streak grows by one per window, so the final
# gauge counts every window served since the last fresh fit.  A restored
# daemon must resume the streak where the killed one left off: reference
# (6 windows, one process) and interrupted-then-resumed (3 + 3 windows)
# runs must export the same palu_serve_staleness_windows.  A regression
# that zeroes the counter on restore makes the resumed gauge read 3.
FP="serve.fit:1000"

PALU_FAILPOINT="$FP" "$TOOL" serve --trace "$DIR/trace.txt" \
    --window 5000 --snapshot "$DIR/ref_snap.json" \
    > "$DIR/stale_full.txt" 2> "$DIR/stale_full_err.txt"
REF_GAUGE=$(awk '$1 == "palu_serve_staleness_windows" {print $2}' \
    "$DIR/ref_snap.prom")
[ "$REF_GAUGE" = "6" ] || {
    echo "FAIL: stale reference run exported gauge $REF_GAUGE (expected 6)" >&2
    exit 1
}

head -n 17500 "$DIR/trace.txt" > "$DIR/stale_growing.txt"
PALU_FAILPOINT="$FP" "$TOOL" serve --trace "$DIR/stale_growing.txt" \
    --follow --window 5000 --poll-interval-ms 20 \
    --checkpoint "$DIR/stale_ck.txt" \
    > "$DIR/stale_part.txt" 2> "$DIR/stale_part_err.txt" &
PID=$!
i=0
while ! parked "$DIR/stale_part.txt" "$DIR/stale_ck.txt"
do
    i=$((i + 1))
    if [ "$i" -gt 300 ]; then
        echo "FAIL: stale interrupted run stalled" >&2
        cat "$DIR/stale_part_err.txt" >&2
        kill -9 "$PID" 2>/dev/null || true
        exit 1
    fi
    sleep 0.1
done
kill -9 "$PID"
wait "$PID" 2>/dev/null || true

cp "$DIR/trace.txt" "$DIR/stale_growing.txt"
PALU_FAILPOINT="$FP" "$TOOL" serve --trace "$DIR/stale_growing.txt" \
    --window 5000 --checkpoint "$DIR/stale_ck.txt" --restore \
    --snapshot "$DIR/resume_snap.json" \
    > "$DIR/stale_resume.txt" 2> "$DIR/stale_resume_err.txt"
grep -q 'restored checkpoint' "$DIR/stale_resume_err.txt" || {
    echo "FAIL: stale resume did not restore the checkpoint" >&2
    cat "$DIR/stale_resume_err.txt" >&2
    exit 1
}
RESUME_GAUGE=$(awk '$1 == "palu_serve_staleness_windows" {print $2}' \
    "$DIR/resume_snap.prom")
[ "$RESUME_GAUGE" = "$REF_GAUGE" ] || {
    echo "FAIL: restored staleness gauge $RESUME_GAUGE != reference $REF_GAUGE" >&2
    exit 1
}

echo "serve kill-9 staleness: OK (gauge $RESUME_GAUGE matches reference)"
