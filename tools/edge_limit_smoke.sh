#!/bin/sh
# A view of more than 63 edges (ViewTree::kMaxEdges) is refused with a
# clean error: for every strategy the CLI exits 1 with an OutOfRange
# message and does not abort (exit 134). The views are a root over 64
# sibling blocks and over 65 nested blocks.
#
#   edge_limit_smoke.sh CLI_BINARY SCHEMA WORKDIR
set -e
CLI="$1"
SCHEMA="$2"
WORK="$3"

# write_view FILE flat|deep N
write_view() {
  awk -v shape="$2" -v n="$3" 'BEGIN {
    printf "from Team $r construct <doc>"
    for (i = 0; i < n; i++) {
      printf " { from Team $t%d construct <a%d>$t%d.name", i, i, i
      if (shape == "flat") printf "</a%d> }", i
    }
    if (shape == "deep") for (i = n - 1; i >= 0; i--) printf "</a%d> }", i
    print "</doc>"
  }' > "$1"
}

write_view "$WORK/edge_limit_flat.rxl" flat 64
write_view "$WORK/edge_limit_deep.rxl" deep 65
for view in flat deep; do
  for strategy in unified greedy partitioned outer-union; do
    status=0
    "$CLI" --schema "$SCHEMA" --view "$WORK/edge_limit_$view.rxl" \
      --strategy "$strategy" --output /dev/null \
      2> "$WORK/edge_limit.err" || status=$?
    if [ "$status" -ne 1 ] ||
       ! grep -q "OutOfRange.*at most 63" "$WORK/edge_limit.err"; then
      echo "$view view, $strategy: exit $status, expected 1 with an" \
        "OutOfRange error" >&2
      cat "$WORK/edge_limit.err" >&2
      exit 1
    fi
  done
done
echo "edge limit smoke OK"
