package p

import "testing"

func TestP(t *testing.T) {
	TestOnly()
	Run(RunOptions{Unset: 1, Allowed: 2})
	// p.commented is named here, in a comment, which is no reader.
	r := &Registry{}
	NewMeter(r)
	if r.Counter("p.tested{k=v}").Value() != 0 {
		t.Fatal("labelled")
	}
}
