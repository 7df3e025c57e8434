#!/usr/bin/env bash
# Prints the two code-size figures ROADMAP.md tracks for the library
# crates: total lines in crates/*/src and the number of distinct
# `pub fn` names there. Informational only; nothing is gated on them.
set -euo pipefail
cd "$(dirname "$0")/.."
lines=$(find crates/*/src -name '*.rs' | xargs cat | wc -l)
pub_fns=$(grep -rho 'pub fn [A-Za-z0-9_]*' crates/*/src | sort -u | wc -l)
echo "crates/*/src lines: ${lines}"
echo "distinct pub fn names: ${pub_fns}"
