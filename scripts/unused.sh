#!/usr/bin/env bash
# Lists the declarations under internal/ and cmd/ that no program reaches:
# names nothing references (section 1), names only _test.go files reference
# (section 2), option fields only tests set (section 3), and registered
# telemetry instruments that no test, bench/ file or program reads
# (section 4). Exit status 1
# when any section lists a name the allow-list does not, or an allow-list
# entry matches nothing. The scan, its structural exemptions and the
# allow-list with its reasons are in scripts/unused/main.go; its fixture test
# is `go test ./scripts/unused`.
set -euo pipefail
cd "$(dirname "$0")/.."
exec go run ./scripts/unused
