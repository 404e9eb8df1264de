package wire

import (
	"errors"
	"math"
	"slices"
	"strings"
	"testing"
	"time"
)

// Reader's contract, case by case. A read past the end fails, the first
// error is kept, and every later read returns zeros with Len at 0, so a
// read-until-empty loop ends. Count refuses a count the bytes left cannot
// hold, and FloatRuns refuses counts whose byte total does not fit, summed
// in 64 bits, before the caller's storage is sized. End refuses bytes left
// over. Each case lists the values it read, as u64s.
func TestReaderContract(t *testing.T) {
	errFirst := errors.New("the first error")
	const half = math.MinInt32 // 2³¹ as a u32
	runs := func(r *Reader) []uint64 {
		a, b := make([]float64, 1, 4), []float64(nil)
		storage := &a[:1][0]
		r.FloatRuns(&a, &b)
		got := []uint64{uint64(len(a)), uint64(cap(b))}
		if len(a) > 0 && &a[0] == storage { // decoded into the storage a already had
			got = append(got, 1)
		}
		for _, x := range append(a, b...) {
			got = append(got, uint64(x))
		}
		return got
	}
	for _, tc := range []struct {
		name string
		in   []byte
		read func(r *Reader) []uint64
		want []uint64
		err  string // in End's error; "" for none
	}{
		{"whole input", AppendU64(AppendU32(nil, 7), 9),
			func(r *Reader) []uint64 { return []uint64{uint64(r.U32()), r.U64()} }, []uint64{7, 9}, ""},
		{"a read past the end", append(AppendU32(nil, 7), 1, 2),
			func(r *Reader) []uint64 {
				return []uint64{uint64(r.U32()), r.U64(), uint64(r.Len()), uint64(len(r.Bytes(0))), math.Float64bits(r.F64())}
			}, []uint64{7, 0, 0, 0, 0}, "input ends 6 bytes short"},
		{"the first error is kept", AppendU32(nil, 7, 8),
			func(r *Reader) []uint64 { r.Fail(errFirst); r.U64(); return []uint64{uint64(r.U32())} }, []uint64{0}, errFirst.Error()},
		{"bytes after the end", AppendU32(nil, 7, 8),
			func(r *Reader) []uint64 { return []uint64{uint64(r.U32())} }, []uint64{7}, "4 bytes after the end"},
		{"Count within the bytes left", AppendU64(AppendU32(nil, 2), 0, 0),
			func(r *Reader) []uint64 { n := r.Count(8); r.Bytes(8 * n); return []uint64{uint64(n)} }, []uint64{2}, ""},
		{"Count beyond the bytes left", AppendU64(AppendU32(nil, 3), 0, 0),
			func(r *Reader) []uint64 { return []uint64{uint64(r.Count(8)), uint64(r.Len())} }, []uint64{0, 0}, "3 items of 8 bytes announced, 16 bytes left"},
		{"Count of 2³¹ items", AppendU32(nil, half, 0),
			func(r *Reader) []uint64 { return []uint64{uint64(r.Count(1))} }, []uint64{0}, "2147483648 items of 1 bytes announced, 4 bytes left"},
		{"float runs into the caller's storage", AppendFloats(nil, []float64{1, 2}, []float64{3}),
			runs, []uint64{2, 1, 1, 1, 2, 3}, ""},
		{"float runs longer than the bytes left", AppendFloats(nil, []float64{1, 2}, []float64{3})[:27],
			runs, []uint64{1, 0, 1, 0}, "3 floats announced, 19 bytes left"},
		{"float runs of 2³² bytes", AppendU32(nil, 1<<29, 0),
			runs, []uint64{1, 0, 1, 0}, "536870912 floats announced, 0 bytes left"},
		{"float runs of 2³² floats", AppendU32(nil, half, half),
			runs, []uint64{1, 0, 1, 0}, "4294967296 floats announced, 0 bytes left"},
	} {
		r := NewReader(tc.in)
		got := tc.read(r)
		if !slices.Equal(got, tc.want) {
			t.Errorf("%s: read %v, want %v", tc.name, got, tc.want)
		}
		err := r.End()
		if (err == nil) != (tc.err == "") || err != nil && !strings.Contains(err.Error(), tc.err) {
			t.Errorf("%s: End() = %v, want %q", tc.name, err, tc.err)
		}
	}
}

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
		if got, want := tc.b.Delay(math.MaxInt), tc.want[len(tc.want)-1]; got != want {
			t.Errorf("%s.Delay(MaxInt) = %v, want %v", tc.name, got, want)
		}
	}
}
