#!/bin/sh
# Signal-drain acceptance for `palu_tool serve` (DESIGN.md §5f).
#
# A follow-mode daemon is parked on a fully-written trace (EOF polling,
# so it never exits on its own).  Once every window has been served we
# send SIGTERM and require, within the drain deadline: exit code 0, all
# published result lines intact, a final checkpoint at the last window
# boundary, and a final metrics snapshot whose Prometheus sibling passes
# the strict exposition validator.
#
# Usage: serve_sigterm_test.sh /path/to/palu_tool
set -eu

TOOL="$1"
DIR="$(mktemp -d)"
trap 'rm -rf "$DIR"' EXIT

"$TOOL" generate --nodes 2000 --packets 12000 --seed 11 > "$DIR/trace.txt"

# Created before the daemon starts: the backgrounded shell opens its
# redirect asynchronously, and a wait loop that found no file read an
# empty count, ended early and sent SIGTERM before the handlers were up.
: > "$DIR/out.txt"
"$TOOL" serve --trace "$DIR/trace.txt" --follow --window 3000 \
    --poll-interval-ms 20 --checkpoint "$DIR/ck.txt" \
    --snapshot "$DIR/snap.json" --snapshot-interval-ms 100 \
    > "$DIR/out.txt" 2> "$DIR/err.txt" &
PID=$!

# Wait (bounded) for all four windows to be published.
i=0
while [ "$(grep -c '^window=' "$DIR/out.txt" 2>/dev/null || true)" -lt 4 ]
do
    i=$((i + 1))
    if [ "$i" -gt 300 ]; then
        echo "FAIL: windows not published in time" >&2
        cat "$DIR/err.txt" >&2
        kill -9 "$PID" 2>/dev/null || true
        exit 1
    fi
    sleep 0.1
done

kill -TERM "$PID"

# The daemon must exit within the drain deadline (5s default) + margin.
j=0
while kill -0 "$PID" 2>/dev/null; do
    j=$((j + 1))
    if [ "$j" -gt 80 ]; then
        echo "FAIL: did not exit within the drain budget" >&2
        kill -9 "$PID" 2>/dev/null || true
        exit 1
    fi
    sleep 0.1
done
RC=0
wait "$PID" || RC=$?
if [ "$RC" -ne 0 ]; then
    echo "FAIL: drained exit code $RC != 0" >&2
    cat "$DIR/err.txt" >&2
    exit 1
fi

# All four result lines survived the drain.
[ "$(grep -c '^window=' "$DIR/out.txt")" -eq 4 ] || {
    echo "FAIL: published lines lost in drain" >&2
    exit 1
}
# Final checkpoint flushed at the last boundary.
grep -q '^input offset [0-9]* packets 12000 published 4$' "$DIR/ck.txt" || {
    echo "FAIL: final checkpoint missing or not at the last boundary" >&2
    cat "$DIR/ck.txt" >&2
    exit 1
}
# Final snapshot flushed and valid.
[ -s "$DIR/snap.json" ] || { echo "FAIL: snapshot missing" >&2; exit 1; }
"$TOOL" check-metrics --prom "$DIR/snap.prom"

echo "serve sigterm drain: OK"
