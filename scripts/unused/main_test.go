package main

import (
	"bytes"
	"testing"
)

// The scan over a module with one declaration per rule: what it lists,
// what it exempts, and that any listed name or stale allow-list entry fails
// it. The method named like Greeter's without implementing it is listed;
// a scan that exempted methods by name alone would pass it.
func TestScanRules(t *testing.T) {
	var out bytes.Buffer
	status := run("testdata/mod", map[string]string{
		"p.RunOptions.Allowed": "allow-listed field",
		"p.Gone":               "matches nothing",
	}, &out)
	want := `== 1: referenced by no file (2) ==
internal/p/p.go:15	NotImpl.Greet
internal/p/p.go:18	Unreferenced
== 2: referenced only by _test.go files (1) ==
internal/p/p.go:21	TestOnly
== 3: option fields no program writes (1) ==
internal/p/p.go:26	RunOptions.Unset
== allow-listed (1) ==
p.RunOptions.Allowed	allow-listed field
== stale allow-list entries (1) ==
p.Gone
`
	if got := out.String(); got != want {
		t.Errorf("listing:\n%s\nwant:\n%s", got, want)
	}
	if status != 1 {
		t.Errorf("exit status %d, want 1", status)
	}
}

// A module whose every name has a program caller passes.
func TestScanClean(t *testing.T) {
	var out bytes.Buffer
	if status := run("testdata/clean", nil, &out); status != 0 {
		t.Errorf("exit status %d on a clean module, want 0:\n%s", status, &out)
	}
}
