#!/usr/bin/env python3
"""Checks that `silkroute --explain` prints the plan a publish runs.

Usage: explain_check.py CLI SCHEMA VIEW WORKDIR

For each strategy (greedy, unified, partitioned, outer-union) the CLI runs
twice with the same flags: once with --explain, and once publishing with
--profile-out. The profile records the SQL text of every component query
the publish executed (PlanMetrics::sql), whitespace-normalized. The SQL
that --explain prints must be exactly those texts, one per component.
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
    profile = os.path.join(workdir, "explain_check_%s.json" % strategy)
    subprocess.run(
        [cli, "--schema", schema, "--view", view, "--strategy", strategy,
         "--root", "doc", "--output", os.devnull, "--profile-out", profile],
        check=True)
    with open(profile) as f:
        return [c["sql"] for c in json.load(f)["components"]]


def main():
    if len(sys.argv) != 5:
        print(__doc__, file=sys.stderr)
        return 2
    cli, schema, view, workdir = sys.argv[1:]
    failures = 0
    for strategy in STRATEGIES:
        explained = explained_sql(cli, schema, view, strategy)
        published = published_sql(cli, schema, view, strategy, workdir)
        # The profile is keyed by SQL text, so compare in sorted order.
        if not explained or sorted(explained) != sorted(published):
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
