package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"sinan/internal/core"
	"sinan/internal/dataset"
	"sinan/internal/lifecycle"
	"sinan/internal/nn"
)

// randomDataset returns n seeded samples of dims d.
func randomDataset(d nn.Dims, n int, seed int64) *dataset.Dataset {
	rng := rand.New(rand.NewSource(seed))
	fill := func(k int, scale float64) []float64 {
		v := make([]float64, k)
		for i := range v {
			v[i] = scale * (0.5 + rng.Float64())
		}
		return v
	}
	ds := dataset.New(d, 3)
	for i := 0; i < n; i++ {
		ds.Append(fill(d.F*d.N*d.T, 1), fill(d.T*d.M, 100), fill(d.N, 2), fill(d.M, 100), i%3 == 0)
	}
	return ds
}

// A model and a dataset of different dims are refused at load, with both
// dims in the message; the model's own dims load.
func TestLoadRefusesDimsMismatch(t *testing.T) {
	dir := t.TempDir()
	d := nn.Dims{N: 3, T: 3, F: 6, M: 5}
	trained := randomDataset(d, 40, 1)
	m, _ := core.TrainHybrid(trained, 200, core.TrainOptions{Seed: 1, Epochs: 1, Latent: 4})
	modelPath := filepath.Join(dir, "m.model")
	if _, err := lifecycle.WriteFile(modelPath, m, lifecycle.Manifest{}); err != nil {
		t.Fatal(err)
	}
	write := func(name string, ds *dataset.Dataset) string {
		path := filepath.Join(dir, name)
		if err := lifecycle.WriteAtomic(path, ds.Save); err != nil {
			t.Fatal(err)
		}
		return path
	}

	if _, _, err := load(modelPath, write("same.ds", trained)); err != nil {
		t.Fatalf("model and its own dataset: %v", err)
	}
	other := nn.Dims{N: 4, T: 3, F: 6, M: 5}
	_, _, err := load(modelPath, write("other.ds", randomDataset(other, 8, 2)))
	if err == nil {
		t.Fatal("a dataset of other dims loaded")
	}
	for _, dims := range []nn.Dims{d, other} {
		if want := fmt.Sprintf("%+v", dims); !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name dims %s", err, want)
		}
	}
}
