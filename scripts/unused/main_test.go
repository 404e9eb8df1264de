package main

import (
	"bytes"
	"strings"
	"testing"
)

// The scan over a module with one declaration per rule: what it lists,
// what it exempts, and that any listed name or stale allow-list entry fails
// it. The method named like Greeter's without implementing it is listed;
// a scan that exempted methods by name alone would pass it. Of the five
// instruments meter.go registers, the ones a test of an importing package
// names (labelled) or a program reads through its handle are not listed.
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
== 4: instruments nothing reads (3) ==
internal/p/meter.go:23	p.unread
internal/p/meter.go:25	p.foreign
internal/p/meter.go:26	p.commented
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

// An instrument nothing reads fails the scan on its own.
func TestScanFailsOnUnreadInstrument(t *testing.T) {
	allow := map[string]string{}
	for _, key := range []string{"p.NotImpl.Greet", "p.Unreferenced", "p.TestOnly",
		"p.RunOptions.Unset", "p.RunOptions.Allowed", "p.p.foreign", "p.p.commented"} {
		allow[key] = "listed by another rule"
	}
	var out bytes.Buffer
	if status := run("testdata/mod", allow, &out); status != 1 || !strings.Contains(out.String(), "== 4: instruments nothing reads (1) ==\ninternal/p/meter.go:23\tp.unread\n") {
		t.Errorf("exit status %d, want 1 with p.unread listed:\n%s", status, &out)
	}
}

// A module whose every name has a program caller passes.
func TestScanClean(t *testing.T) {
	var out bytes.Buffer
	if status := run("testdata/clean", nil, &out); status != 0 {
		t.Errorf("exit status %d on a clean module, want 0:\n%s", status, &out)
	}
}
