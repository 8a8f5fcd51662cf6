#!/bin/sh
# check_clean.sh — run tier-1 (`go build ./... && go test ./...`) on
# exactly what is committed. The tree at REV (default HEAD) is exported
# with `git archive` into a temporary directory and built and tested
# there, so a file that exists in the working tree but is missing from
# git (an over-broad .gitignore pattern, a forgotten `git add`) fails
# here the way it would fail a fresh clone.
#
# Usage: scripts/check_clean.sh [REV]  (from inside the repository)
set -eu

rev=${1:-HEAD}
go=${GO:-go}
commit=$(git rev-parse --short "$rev")
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT INT TERM

git archive "$rev" | tar -x -C "$tmp"
cd "$tmp"
echo "check-clean: tier-1 on $commit in $tmp"
"$go" build ./...
"$go" test ./...
