package experiments

import (
	"math/rand"
	"slices"
	"testing"
)

// TestSavingsNote: the Fig. 11 savings note averages and maximises
// 1 − Sinan/AutoScaleCons over the loads where both policies have a row,
// skips a load that lacks either, and reads the same for any row order.
func TestSavingsNote(t *testing.T) {
	rows := [][]string{
		{"100", "Sinan", "30.0"}, {"100", "AutoScaleCons", "60.0"}, // saves 50 %
		{"100", "AutoScaleOpt", "40.0"},
		{"200", "Sinan", "45.0"}, {"200", "AutoScaleCons", "60.0"}, // 25 %
		{"300", "PowerChief", "70.0"},
		{"300", "Sinan", "20.0"}, {"300", "AutoScaleCons", "80.0"}, // 75 %
		{"400", "Sinan", "1.0"}, {"400", "AutoScaleOpt", "50.0"}, // no AutoScaleCons
		{"500", "AutoScaleCons", "10.0"}, // no Sinan
	}
	const want = "Sinan CPU saving vs AutoScaleCons: avg 50.0%, max 75.0%"
	note := func(rows [][]string) []string {
		tab := &Table{Rows: rows}
		addSavingsNotes([]*Table{tab})
		return tab.Notes
	}
	if got := note(rows); len(got) != 1 || got[0] != want {
		t.Fatalf("notes = %q, want [%q]", got, want)
	}

	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20; i++ {
		perm := slices.Clone(rows)
		rng.Shuffle(len(perm), func(a, b int) { perm[a], perm[b] = perm[b], perm[a] })
		if got := note(perm); len(got) != 1 || got[0] != want {
			t.Fatalf("permutation %d: notes = %q, want [%q]", i, got, want)
		}
	}

	if got := note(rows[8:]); got != nil {
		t.Fatalf("no load with both policies: notes = %q, want none", got)
	}
}
