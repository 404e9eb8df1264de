package runner

import (
	"bytes"
	"strings"
	"testing"
)

func sampleTrace() []TraceRow {
	return []TraceRow{
		{Time: 1, RPS: 100, P99MS: 50, Total: 10, Alloc: []float64{4, 6}},
		{Time: 2, RPS: 110, P99MS: 250, Drops: 0, PredP99MS: 200, PViol: 0.2, Total: 12, Alloc: []float64{5, 7}},
		{Time: 3, RPS: 90, P99MS: 80, PredP99MS: 100, PViol: 0.05, Total: 8, Alloc: []float64{3, 5}, Degraded: true, Brownout: 2},
	}
}

func TestWriteTraceCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTraceCSV(&buf, sampleTrace(), []string{"front end", "db"}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("csv lines = %d, want header + 3 rows", len(lines))
	}
	if !strings.Contains(lines[0], "cpu_front_end") || !strings.Contains(lines[0], "cpu_db") {
		t.Fatalf("header missing sanitised tier columns: %s", lines[0])
	}
	if !strings.HasPrefix(lines[2], "2,110.0,250.00,0,200.00,0.2000,12.00,0,0,5.00,7.00") {
		t.Fatalf("row 2 malformed: %s", lines[2])
	}
	if !strings.Contains(lines[0], ",degraded,brownout,") {
		t.Fatalf("header missing degraded/brownout columns: %s", lines[0])
	}
	if !strings.HasPrefix(lines[3], "3,90.0,80.00,0,100.00,0.0500,8.00,1,2,") {
		t.Fatalf("degraded flag / brownout level not encoded: %s", lines[3])
	}
}

func TestWriteTraceCSVNoTiers(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTraceCSV(&buf, sampleTrace(), nil); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "cpu_") && strings.Contains(strings.SplitN(buf.String(), "\n", 2)[0], "cpu_f") {
		t.Fatal("nil tier names should omit per-tier columns")
	}
}
