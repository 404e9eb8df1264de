//go:build race

package runner_test

// raceEnabled: under the race detector sync.Pool drops a quarter of its Puts
// at random, so the prediction service's scratch pool — and any allocation
// count that crosses it — stops being exact.
const raceEnabled = true
