#!/bin/sh
# Cross-process tracing smoke (DESIGN.md §14): publish the demo view over a
# real socket with --federate and --trace, validate the stitched trace with
# trace_check, and require at least one server-side subtree — the remote's
# queue-wait/execute/serialize phases hanging under a client attempt span.
#
#   trace_federated_smoke.sh CLI_BINARY TRACE_CHECK SCHEMA VIEW WORKDIR
set -e
CLI="$1"
TRACE_CHECK="$2"
SCHEMA="$3"
VIEW="$4"
WORK="$5"

PORTFILE="$WORK/trace_fed_port.txt"
rm -f "$PORTFILE"
"$CLI" --schema "$SCHEMA" --serve 0 --port-file "$PORTFILE" &
SERVER_PID=$!
trap 'kill "$SERVER_PID" 2>/dev/null || true; \
     wait "$SERVER_PID" 2>/dev/null || true' EXIT

i=0
while [ "$i" -lt 100 ]; do
  [ -s "$PORTFILE" ] && break
  i=$((i + 1))
  sleep 0.1
done
[ -s "$PORTFILE" ] || { echo "server never wrote the port file" >&2; exit 1; }
PORT=$(cat "$PORTFILE")

TRACE="$WORK/trace_fed.jsonl"
"$CLI" --schema "$SCHEMA" --view "$VIEW" --root league \
  --connect "127.0.0.1:$PORT" --federate all \
  --concurrency 2 --requests 2 --deadline-ms 60000 \
  --trace "$TRACE"
CHECK=$("$TRACE_CHECK" "$TRACE")
echo "$CHECK"
case "$CHECK" in
  *" 0 server subtree(s)"*)
    echo "federated trace has no stitched server subtrees" >&2; exit 1 ;;
  *"server subtree(s)"*) ;;
  *)
    echo "unexpected trace_check output" >&2; exit 1 ;;
esac

echo "federated trace smoke OK (port $PORT)"
