// Package q imports nothing of p.
package q

// Q is called by the program.
func Q() int { return 1 }
