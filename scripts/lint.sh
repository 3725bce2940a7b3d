#!/usr/bin/env bash
# Run the repository's static-analysis suite (cmd/ttalint) over the tree.
#
#   scripts/lint.sh                 # all analyzers, whole module
#   scripts/lint.sh -run determinism ./internal/nn/
#   scripts/lint.sh -json           # machine-readable findings
#
# Arguments are passed through to ttalint; with none, it analyzes ./...
# and exits nonzero on any finding or unexplained suppression.
set -euo pipefail
cd "$(dirname "$0")/.."
exec go run ./cmd/ttalint "$@"
