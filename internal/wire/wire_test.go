package wire

import (
	"testing"
	"time"
)

// Both redial loops run on Backoff: the prediction client's retries within a
// call (50 ms doubling to 500 ms) and sinan-agent's redials while the hub is
// unreachable (1 s doubling to 16 s). Past the cap the delay stays there,
// however many retries in: no overflow to a zero or negative wait.
func TestBackoffSchedules(t *testing.T) {
	ms := time.Millisecond
	for _, tc := range []struct {
		name string
		b    Backoff
		want []time.Duration // for retries 0, 1, …; the last repeats
	}{
		{"ClientRetry", ClientRetry, []time.Duration{50 * ms, 100 * ms, 200 * ms, 400 * ms, 500 * ms}},
		{"AgentRedial", AgentRedial, []time.Duration{time.Second, 2 * time.Second, 4 * time.Second, 8 * time.Second, 16 * time.Second}},
	} {
		for n := 0; n < len(tc.want)+3; n++ {
			want := tc.want[min(n, len(tc.want)-1)]
			if got := tc.b.Delay(n); got != want {
				t.Errorf("%s.Delay(%d) = %v, want %v", tc.name, n, got, want)
			}
		}
		if got, want := tc.b.Delay(1<<40), tc.want[len(tc.want)-1]; got != want {
			t.Errorf("%s.Delay(2⁴⁰) = %v, want %v", tc.name, got, want)
		}
	}
}
