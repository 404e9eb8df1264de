package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"sinan/internal/dataset"
	"sinan/internal/lifecycle"
	"sinan/internal/nn"
)

// A holdout whose dims differ from the served model's is refused at
// start-up, with both dims in the message; one of the model's dims arms the
// gate.
func TestHoldoutGateRefusesDimsMismatch(t *testing.T) {
	dir := t.TempDir()
	hold := nn.Dims{N: 4, T: 3, F: 6, M: 5}
	ds := dataset.New(hold, 3)
	rng := rand.New(rand.NewSource(1))
	row := func(k int) []float64 {
		v := make([]float64, k)
		for i := range v {
			v[i] = 1 + rng.Float64()
		}
		return v
	}
	for i := 0; i < 8; i++ {
		ds.Append(row(hold.F*hold.N*hold.T), row(hold.T*hold.M), row(hold.N), row(hold.M), false)
	}
	path := filepath.Join(dir, "hold.ds")
	if err := lifecycle.WriteAtomic(path, ds.Save); err != nil {
		t.Fatal(err)
	}

	if _, err := holdoutGate(path, hold); err != nil {
		t.Fatalf("holdout of the model's dims: %v", err)
	}
	served := nn.Dims{N: 28, T: 5, F: 6, M: 5}
	_, err := holdoutGate(path, served)
	if err == nil {
		t.Fatal("a holdout of other dims armed the gate")
	}
	for _, d := range []nn.Dims{hold, served} {
		if want := fmt.Sprintf("%+v", d); !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name dims %s", err, want)
		}
	}
}
