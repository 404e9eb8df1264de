package experiments

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"sinan/internal/harness"
)

// pinTable fails the test unless outs, rendered row by row as their
// experiment's table, hash (FNV-1a over Table.Render's bytes) to want. The
// digests were recorded at 16bf9ac from the runs these tests already make;
// never re-record one to make a change pass. None of the pinned tables has
// a wall-clock column (the serving-overload table, which does, is not
// pinned), so nothing is masked.
func pinTable(t *testing.T, outs []harness.Outcome, row func(harness.Outcome) []string, want uint64) {
	t.Helper()
	tab := &Table{Title: t.Name()}
	for _, o := range outs {
		tab.Rows = append(tab.Rows, row(o))
	}
	h := fnv.New64a()
	tab.Render(h)
	if got := h.Sum64(); got != want {
		var b strings.Builder
		tab.Render(&b)
		t.Errorf("table digest %#x, want %#x — the experiment's numbers moved:%s", got, want, b.String())
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"fig3", "fig4", "fig9", "fig10", "table2", "table3",
		"fig11", "fig12", "fig13", "fig14", "fig16", "ablation", "table4", "chaos",
		"overload", "drift"}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(all), len(want))
	}
	for _, id := range want {
		e, ok := Find(id)
		if !ok {
			t.Fatalf("experiment %s missing", id)
		}
		if e.Run == nil || e.Title == "" {
			t.Fatalf("experiment %s malformed", id)
		}
	}
	if _, ok := Find("nope"); ok {
		t.Fatal("Find should reject unknown ids")
	}
}

func TestTableRender(t *testing.T) {
	tab := &Table{
		Title:  "demo",
		Header: []string{"a", "bb"},
		Rows:   [][]string{{"1", "2"}, {"333", "4"}},
		Notes:  []string{"a note"},
	}
	var buf bytes.Buffer
	tab.Render(&buf)
	out := buf.String()
	for _, want := range []string{"== demo ==", "a    bb", "333", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	var csv bytes.Buffer
	tab.CSV(&csv)
	if !strings.HasPrefix(csv.String(), "a,bb\n1,2\n") {
		t.Fatalf("csv malformed:\n%s", csv.String())
	}
}

func TestLabScaling(t *testing.T) {
	quick := NewLab(true, nil)
	full := NewLab(false, nil)
	if quick.scale(1, 2) != 1 || full.scale(1, 2) != 2 {
		t.Fatal("scale() mode selection broken")
	}
	if len(quick.HotelLoads()) >= len(full.HotelLoads()) {
		t.Fatal("quick mode should sweep fewer loads")
	}
	if quick.epochs() >= full.epochs() {
		t.Fatal("quick mode should train fewer epochs")
	}
	// Both sweeps span the paper's range.
	for _, l := range [][]float64{quick.HotelLoads(), full.HotelLoads()} {
		if l[0] != 1000 || l[len(l)-1] != 3700 {
			t.Fatalf("hotel sweep %v should span 1000..3700", l)
		}
	}
	for _, l := range [][]float64{quick.SocialLoads(), full.SocialLoads()} {
		if l[0] != 50 || l[len(l)-1] != 450 {
			t.Fatalf("social sweep %v should span 50..450", l)
		}
	}
}

func TestFig3Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation run")
	}
	t.Parallel()
	l := NewLab(true, nil)
	tables := Fig3(l)
	if len(tables) != 1 {
		t.Fatalf("fig3 tables = %d", len(tables))
	}
	tab := tables[0]
	if len(tab.Rows) == 0 || len(tab.Notes) < 2 {
		t.Fatal("fig3 output malformed")
	}
	// The delayed-queueing claim: the late manager violates strictly longer
	// than the eager one.
	var eagerV, lateV int
	if _, err := fmt.Sscanf(tab.Notes[0], "violating seconds after step: eager=%d late=%d", &eagerV, &lateV); err != nil {
		t.Fatalf("cannot parse note %q: %v", tab.Notes[0], err)
	}
	if lateV <= eagerV {
		t.Fatalf("late manager (%d violating secs) should exceed eager (%d)", lateV, eagerV)
	}
}

func TestFig16Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation run")
	}
	t.Parallel()
	l := NewLab(true, nil)
	tables := Fig16(l)
	if len(tables) != 2 {
		t.Fatalf("fig16 tables = %d", len(tables))
	}
	var withSync, withoutSync int
	if _, err := fmt.Sscanf(tables[0].Rows[0][1], "%d", &withSync); err != nil {
		t.Fatal(err)
	}
	if _, err := fmt.Sscanf(tables[0].Rows[1][1], "%d", &withoutSync); err != nil {
		t.Fatal(err)
	}
	if withSync <= withoutSync {
		t.Fatalf("log sync should cause violations: with=%d without=%d", withSync, withoutSync)
	}
}

// failingWriter accepts n bytes, then fails every write.
type failingWriter struct{ n int }

var errDiskFull = errors.New("disk full")

func (w *failingWriter) Write(p []byte) (int, error) {
	if len(p) > w.n {
		k := w.n
		w.n = 0
		return k, errDiskFull
	}
	w.n -= len(p)
	return len(p), nil
}

// A write that fails anywhere in the table — header or a row — is returned,
// not dropped: the CLIs exit non-zero instead of leaving a short file.
func TestTableCSVReturnsWriteError(t *testing.T) {
	tab := &Table{Header: []string{"a", "b"}, Rows: [][]string{{"1", "2"}, {"3", "4"}}}
	var whole bytes.Buffer
	if err := tab.CSV(&whole); err != nil || whole.String() != "a,b\n1,2\n3,4\n" {
		t.Fatalf("CSV = %q, %v", whole.String(), err)
	}
	for n := 0; n < whole.Len(); n++ {
		if err := tab.CSV(&failingWriter{n: n}); !errors.Is(err, errDiskFull) {
			t.Errorf("writer failing after %d bytes: CSV returned %v, want the write error", n, err)
		}
	}
}
