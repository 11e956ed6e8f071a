#!/usr/bin/env python3
"""Checks that `silkroute --explain` prints the plan a publish runs.

Usage: explain_check.py CLI SCHEMA VIEW WORKDIR

For each strategy (greedy, unified, partitioned, outer-union) the CLI runs
twice with the same flags: once with --explain, and once publishing with
--trace. Every `component` span of the trace carries its component's SQL
text, whitespace-normalized, in an `sql` annotation. The SQL that --explain
prints must be exactly those texts, one per component, in component order.
Exit status: 0 when every strategy agrees, 1 otherwise.
"""
import json
import os
import subprocess
import sys

STRATEGIES = ("greedy", "unified", "partitioned", "outer-union")


def normalize(sql):
    """The publisher's NormalizeSql: whitespace runs collapse to one space."""
    return " ".join(sql.split())


def explained_sql(cli, schema, view, strategy):
    out = subprocess.run(
        [cli, "--schema", schema, "--view", view, "--strategy", strategy,
         "--explain"],
        check=True, stdout=subprocess.PIPE, text=True).stdout
    # Each component prints a "-- rows~N cost~C" line, then its SQL.
    texts = []
    for line in out.splitlines():
        if line.startswith("-- rows~"):
            texts.append([])
        elif texts:
            texts[-1].append(line)
    return [normalize("\n".join(lines)) for lines in texts]


def published_sql(cli, schema, view, strategy, workdir):
    trace = os.path.join(workdir, "explain_check_%s.jsonl" % strategy)
    subprocess.run(
        [cli, "--schema", schema, "--view", view, "--strategy", strategy,
         "--root", "doc", "--output", os.devnull, "--trace", trace],
        check=True)
    components = []
    with open(trace) as f:
        for line in f:
            span = json.loads(line)
            if span["name"] == "component":
                components.append(span)
    # Span ids are hierarchical ("1.2", "1.3", ...) and numbered in start
    # order, so sorting them numerically restores component order.
    components.sort(key=lambda s: [int(part) for part in s["id"].split(".")])
    return [dict(s["annotations"]).get("sql") for s in components]


def main():
    if len(sys.argv) != 5:
        print(__doc__, file=sys.stderr)
        return 2
    cli, schema, view, workdir = sys.argv[1:]
    failures = 0
    for strategy in STRATEGIES:
        explained = explained_sql(cli, schema, view, strategy)
        published = published_sql(cli, schema, view, strategy, workdir)
        if not explained or explained != published:
            print("explain_check: %s: --explain printed %d quer(ies), the "
                  "publish ran %d, or their texts differ:\n  explain: %s\n"
                  "  publish: %s" % (strategy, len(explained), len(published),
                                     explained, published), file=sys.stderr)
            failures += 1
        else:
            print("%s: %d quer(ies) agree" % (strategy, len(explained)))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
