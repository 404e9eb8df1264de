package p

import "testing"

func TestP(t *testing.T) {
	TestOnly()
	Run(RunOptions{Unset: 1, Allowed: 2})
}
