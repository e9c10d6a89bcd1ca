#!/usr/bin/env bash
# Checks every `go test ... -run '<a|b|...>' <packages>` line of a
# workflow: each alternative of the pattern must match at least one
# test, benchmark, fuzz target or example that `go test -list` finds in
# those packages. A renamed or deleted test then fails the check instead
# of silently dropping out of the gate that names it. '^$' (run nothing)
# is skipped.
#
# Usage: bash .github/check-run-patterns.sh [workflow]  (from the repo root)
set -euo pipefail -o noglob

workflow=${1:-.github/workflows/ci.yml}
declare -A listed # package -> its test names, one per line
failed=0

while IFS= read -r line; do
	pattern=$(sed -nE "s/.* -run '([^']*)'.*/\1/p; t; s/.* -run ([^ ]+).*/\1/p" <<<"$line")
	[[ -z $pattern || $pattern == '^$' ]] && continue
	pkgs=()
	for word in $line; do
		[[ $word == . || $word == ./* ]] && pkgs+=("$word")
	done
	names=""
	for pkg in "${pkgs[@]}"; do
		if [[ -z ${listed[$pkg]+set} ]]; then
			listed[$pkg]=$(go test -list . "$pkg" | grep -E '^(Test|Benchmark|Fuzz|Example)' || true)
		fi
		names+="${listed[$pkg]}"$'\n'
	done
	IFS='|' read -ra alternatives <<<"$pattern"
	for alt in "${alternatives[@]}"; do
		if [[ -z $alt ]] || ! grep -qE -- "$alt" <<<"$names"; then
			echo "$workflow: -run alternative '$alt' lists no test in ${pkgs[*]}" >&2
			failed=1
		fi
	done
done < <(grep -E 'go test .*-run ' "$workflow")

exit $failed
