// Package q declares only what its program calls.
package q

// Answer is called by the program.
func Answer() int { return 42 }
