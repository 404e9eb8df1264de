//go:build race

package predsvc

// raceEnabled: under the race detector sync.Pool drops a quarter of its Puts
// at random, so the service's context pool — and any allocation count that
// crosses it — stops being exact.
const raceEnabled = true
