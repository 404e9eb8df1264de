package runner

import (
	"fmt"
	"io"
	"strings"
)

// WriteTraceCSV writes a run trace as CSV: the fixed columns followed by
// one column per tier (named by tierNames, which may be nil to omit
// per-tier allocations). This is the log format the repository's processing
// helpers and external plotting consume.
func WriteTraceCSV(w io.Writer, trace []TraceRow, tierNames []string) error {
	cols := []string{"time_s", "rps", "p99_ms", "drops", "pred_p99_ms", "p_viol", "total_cpu", "degraded", "brownout"}
	for _, n := range tierNames {
		cols = append(cols, "cpu_"+sanitize(n))
	}
	if _, err := fmt.Fprintln(w, strings.Join(cols, ",")); err != nil {
		return err
	}
	for _, row := range trace {
		fields := []string{
			fmt.Sprintf("%.0f", row.Time),
			fmt.Sprintf("%.1f", row.RPS),
			fmt.Sprintf("%.2f", row.P99MS),
			fmt.Sprintf("%d", row.Drops),
			fmt.Sprintf("%.2f", row.PredP99MS),
			fmt.Sprintf("%.4f", row.PViol),
			fmt.Sprintf("%.2f", row.Total),
			fmt.Sprintf("%d", b2i(row.Degraded)),
			fmt.Sprintf("%d", row.Brownout),
		}
		for i := range tierNames {
			v := 0.0
			if i < len(row.Alloc) {
				v = row.Alloc[i]
			}
			fields = append(fields, fmt.Sprintf("%.2f", v))
		}
		if _, err := fmt.Fprintln(w, strings.Join(fields, ",")); err != nil {
			return err
		}
	}
	return nil
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func sanitize(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			return r
		default:
			return '_'
		}
	}, s)
}
