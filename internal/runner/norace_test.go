//go:build !race

package runner_test

const raceEnabled = false
