#!/usr/bin/env bash
# Lists identifiers declared in non-test files under internal/ and cmd/ that
# nothing references (section 1) or that only _test.go files reference
# (section 2). Exit status 1 when section 1 is not empty; section 2 is
# printed with its count so a reviewer sees it grow. The scan and its
# structural exemptions are documented in scripts/unused/main.go.
set -euo pipefail
cd "$(dirname "$0")/.."
exec go run ./scripts/unused
