package lifecycle

import (
	"os"
	"testing"
)

func TestRegistryVersioningAndRetention(t *testing.T) {
	m := trainedHybrid(t)
	reg, err := OpenRegistry(t.TempDir(), 3)
	if err != nil {
		t.Fatal(err)
	}

	for i := 1; i <= 5; i++ {
		man, err := reg.Put(m, Manifest{Note: "n"})
		if err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
		if man.Version != i {
			t.Fatalf("Put %d assigned version %d", i, man.Version)
		}
	}
	vs, err := reg.versionsLocked()
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 3 {
		t.Fatalf("retention bound 3, have %d versions: %v", len(vs), vs)
	}
	if vs[len(vs)-1] != 5 {
		t.Fatalf("latest version pruned: %v", vs)
	}
	// Version numbers stay monotonic even after pruning.
	man, err := reg.Put(m, Manifest{})
	if err != nil {
		t.Fatal(err)
	}
	if man.Version != 6 {
		t.Fatalf("version after prune = %d, want 6", man.Version)
	}
}

func TestRegistryCurrentAndRollbackTargetSurvivePrune(t *testing.T) {
	m := trainedHybrid(t)
	reg, err := OpenRegistry(t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 2; i++ {
		if _, err := reg.Put(m, Manifest{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := reg.SetCurrent(2); err != nil {
		t.Fatal(err)
	}
	// Burying the current version under new ones must not prune it or its
	// predecessor — the standing rollback target.
	for i := 3; i <= 6; i++ {
		if _, err := reg.Put(m, Manifest{}); err != nil {
			t.Fatal(err)
		}
	}
	vs, _ := reg.versionsLocked()
	has := map[int]bool{}
	for _, v := range vs {
		has[v] = true
	}
	if !has[2] || !has[1] {
		t.Fatalf("CURRENT (2) or its rollback target (1) was pruned: %v", vs)
	}

	cur, err := reg.currentLocked()
	if err != nil || cur != 2 {
		t.Fatalf("Current = %d, %v; want 2", cur, err)
	}
	_, man, err := reg.LoadCurrent()
	if err != nil || man.Version != 2 {
		t.Fatalf("LoadCurrent = v%d, %v; want v2", man.Version, err)
	}
}

func TestRegistryLoadCurrentFallsBackToLatest(t *testing.T) {
	m := trainedHybrid(t)
	reg, err := OpenRegistry(t.TempDir(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := reg.LoadCurrent(); err == nil {
		t.Fatal("empty registry loaded a model")
	}
	for i := 1; i <= 2; i++ {
		if _, err := reg.Put(m, Manifest{}); err != nil {
			t.Fatal(err)
		}
	}
	_, man, err := reg.LoadCurrent()
	if err != nil || man.Version != 2 {
		t.Fatalf("LoadCurrent without marker = v%d, %v; want latest v2", man.Version, err)
	}
	if err := reg.SetCurrent(99); err == nil {
		t.Fatal("SetCurrent accepted a nonexistent version")
	}
}

func TestRegistryRejectsCorruptArtifact(t *testing.T) {
	m := trainedHybrid(t)
	reg, err := OpenRegistry(t.TempDir(), 3)
	if err != nil {
		t.Fatal(err)
	}
	man, err := reg.Put(m, Manifest{})
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte in the stored payload; Load must refuse, not panic.
	path := reg.Path(man.Version)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-100] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadFile(reg.Path(man.Version)); err == nil {
		t.Fatal("corrupt stored artifact loaded without error")
	}
}
