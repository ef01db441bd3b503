#!/bin/sh
# CI soak for `palu_tool serve`: a live input plus failpoint churn.
#
# A writer feeds serve for DURATION seconds while the PALU_FAILPOINT
# environment variable arms all three runtime serve failpoints (ingest
# restart, fit degradation, checkpoint failure).  By default the writer
# is a generator loop on serve's stdin.  With SOAK_INPUT=file an
# appending writer grows a file instead, up to 40 MB, and serve reads it
# with --trace FILE --follow, so every ingest restart reopens the file
# and seeks to the consumed offset.
# Pass criteria: the daemon survives the whole soak and drains cleanly
# on SIGTERM (exit 0), the published window indices are strictly
# monotone with no gaps (the windows-fitted counter never goes
# backwards or skips), the final metrics snapshot round-trips through
# the strict Prometheus validator, and the --record window store the
# daemon wrote validates (sealed manifest, checksums, one block per
# fitted window) under strict replay ingest.  Extra arguments go to
# serve: `--backpressure drop-oldest --queue 20000` makes the soak shed
# whole windows, which must leave both checks intact.
#
# Usage: [SOAK_INPUT=pipe|file] serve_soak.sh /path/to/palu_tool
#            [duration_seconds [serve flags...]]
set -eu

TOOL="$1"
DURATION="${2:-30}"
shift
[ "$#" -gt 0 ] && shift
DIR="$(mktemp -d)"
WRITER=""
trap '[ -z "$WRITER" ] || kill "$WRITER" 2>/dev/null || true; rm -rf "$DIR"' EXIT

"$TOOL" generate --nodes 3000 --packets 200000 --seed 17 > "$DIR/trace.txt"

# Runs in a background subshell, which exec turns into the daemon, so $!
# is the daemon's pid.
serve() {
    export PALU_FAILPOINT="serve.ingest:3:5,serve.fit:2:3,serve.checkpoint:2:4"
    exec "$TOOL" serve --window 20000 --checkpoint "$DIR/ck.txt" \
        --snapshot "$DIR/snap.json" --snapshot-interval-ms 500 \
        --record "$DIR/record.store" "$@" \
        > "$DIR/out.txt" 2> "$DIR/err.txt"
}
case "${SOAK_INPUT:-pipe}" in
pipe)
    # Endless writer: replay the trace until the pipe closes.  The
    # subshell dies on SIGPIPE when serve exits.
    (
        while :; do cat "$DIR/trace.txt" || exit 0; done
    ) | serve "$@" &
    PID=$!
    ;;
file)
    # Appending writer: one copy of the trace a second until the file
    # reaches the bound; serve then waits at its end.
    LIMIT=$((40 * 1048576))
    : > "$DIR/grow.txt"
    (
        while [ "$(wc -c < "$DIR/grow.txt")" -lt "$LIMIT" ]; do
            cat "$DIR/trace.txt" >> "$DIR/grow.txt"
            sleep 1
        done
    ) &
    WRITER=$!
    serve --trace "$DIR/grow.txt" --follow "$@" &
    PID=$!
    ;;
*)
    echo "serve_soak.sh: SOAK_INPUT must be pipe or file" >&2
    exit 2
    ;;
esac

sleep "$DURATION"

if ! kill -0 "$PID" 2>/dev/null; then
    RC=0
    wait "$PID" || RC=$?
    echo "FAIL: serve died mid-soak (exit $RC)" >&2
    cat "$DIR/err.txt" >&2
    exit 1
fi
kill -TERM "$PID"
j=0
while kill -0 "$PID" 2>/dev/null; do
    j=$((j + 1))
    if [ "$j" -gt 100 ]; then
        echo "FAIL: serve did not drain after the soak" >&2
        kill -9 "$PID" 2>/dev/null || true
        exit 1
    fi
    sleep 0.1
done
RC=0
wait "$PID" || RC=$?
if [ "$RC" -ne 0 ]; then
    echo "FAIL: soak exit code $RC != 0" >&2
    cat "$DIR/err.txt" >&2
    exit 1
fi

WINDOWS=$(grep -c '^window=' "$DIR/out.txt" || true)
if [ "$WINDOWS" -lt 2 ]; then
    echo "FAIL: only $WINDOWS windows fitted during the soak" >&2
    cat "$DIR/err.txt" >&2
    exit 1
fi
# Window indices must be strictly monotone with no gaps: 0, 1, 2, ...
sed -n 's/^window=\([0-9]*\) .*/\1/p' "$DIR/out.txt" |
    awk 'NR != $1 + 1 { print "gap at line " NR ": index " $1; bad = 1 }
         END { exit bad }' || {
    echo "FAIL: windows-fitted sequence is not monotone" >&2
    exit 1
}

[ -s "$DIR/snap.json" ] || { echo "FAIL: snapshot missing" >&2; exit 1; }
"$TOOL" check-metrics --prom "$DIR/snap.prom"

# The recorded store must be sealed and readable under strict ingest:
# serve's drain finishes the writer, so a torn tail here means the
# recorder broke the shutdown contract.
"$TOOL" replay --store "$DIR/record.store" --verify || {
    echo "FAIL: recorded window store does not validate" >&2
    exit 1
}
STORED=$("$TOOL" replay --store "$DIR/record.store" --verify |
    sed -n 's/.*OK (\([0-9]*\) windows.*/\1/p')
if [ "$STORED" != "$WINDOWS" ]; then
    echo "FAIL: store has $STORED windows, daemon fitted $WINDOWS" >&2
    exit 1
fi

echo "serve soak (${SOAK_INPUT:-pipe}): OK ($WINDOWS windows over" \
     "${DURATION}s, injected faults survived, $STORED windows recorded)"
