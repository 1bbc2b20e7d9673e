#!/bin/sh
# loc.sh - the repository's size, counted the same way every time:
# non-test Go lines and assembly lines, the perfbench module excluded.
#
#   ./scripts/loc.sh      # or: make loc
set -eu
cd "$(dirname "$0")/.."

echo "non-test Go: $(find . -name '*.go' -not -name '*_test.go' -not -path './perfbench/*' | xargs cat | wc -l)"
echo "assembly:    $(find . -name '*.s' -not -path './perfbench/*' | xargs cat | wc -l)"
