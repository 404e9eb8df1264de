package statplane

import (
	"bytes"
	"encoding/gob"
	"io"
	"net"
	"testing"
	"time"
)

// gobStream encodes the envelopes as one gob stream (one encoder, so type
// definitions are sent once, as an agent's connection would carry them).
func gobStream(t testing.TB, envs ...*Envelope) []byte {
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	for _, e := range envs {
		if err := enc.Encode(e); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// feedHub plays one agent connection against h.handle over net.Pipe: it
// writes data, closes, and requires the handler to return well inside the
// 5 s Hello read deadline. Whatever the hub writes back is drained, so the
// hub never blocks on its own Assign.
func feedHub(t *testing.T, h *Hub, data []byte) {
	client, server := net.Pipe()
	returned := make(chan struct{})
	h.wg.Add(1)
	go func() {
		h.handle(server)
		close(returned)
	}()
	go io.Copy(io.Discard, client)
	client.SetWriteDeadline(time.Now().Add(2 * time.Second))
	client.Write(data) // an error means the hub hung up first, which it may
	client.Close()
	select {
	case <-returned:
	case <-time.After(4 * time.Second):
		t.Fatalf("Hub.handle still running 4s after the connection closed (%d bytes fed)", len(data))
	}
}

// FuzzHubConn throws arbitrary bytes at the one network-facing decoder of
// the stats plane — first as a whole connection, then as what follows a
// valid Hello — and requires the hub to hang up or keep reading without
// panicking, to keep its partition bookkeeping in range, and to assemble
// full-width snapshots afterwards.
func FuzzHubConn(f *testing.F) {
	hello := &Envelope{Hello: &Hello{Version: WireVersion, Agent: "fuzz"}}
	rep := report("fuzz", 1, 0, 1, 2.5)
	rep.Tiers = append(rep.Tiers, TierStats{Tier: 99}, TierStats{Tier: -1})
	gw := &GatewayReport{Version: WireVersion, Gateway: "gw", Seq: 1, RPS: 10}
	helloLen := len(gobStream(f, hello))
	for _, envs := range [][]*Envelope{
		{},
		{{Report: &rep}},
		{{Gateway: gw}},
		{{Report: &rep, Hello: hello.Hello}}, // two fields set
		{{Report: &rep}, {Report: &rep}, {Assign: &Assign{Tiers: []int{7}}}, {Sample: &Sample{}}},
	} {
		whole := gobStream(f, append([]*Envelope{hello}, envs...)...)
		f.Add(whole)                 // a session from its first byte
		f.Add(whole[helloLen:])      // what follows the Hello
		f.Add(whole[:len(whole)-3])  // truncated mid-message
		f.Add(gobStream(f, envs...)) // no Hello first
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		const tiers = 4
		h, err := NewHub("127.0.0.1:0", HubConfig{
			Sampler: &fixedSampler{}, NumTiers: tiers, IntervalSec: 1,
			TiersPerAgent: 2, Deadline: time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer h.Close()

		// Interval 0 is open while the bytes arrive, so a well-formed Report
		// in them reaches the open snapshot, not only the late counter.
		h.agg.BeginInterval(0)
		feedHub(t, h, data)
		feedHub(t, h, append(gobStream(t, hello), data...))
		check := func(st IntervalState) {
			if len(st.Stats) != tiers || (st.StatsOK != nil && len(st.StatsOK) != tiers) {
				t.Fatalf("snapshot width: %d stats, %d flags, want %d", len(st.Stats), len(st.StatsOK), tiers)
			}
		}
		check(h.agg.Assemble(0, 1))

		// The valid Hello took a partition; the raw bytes may have taken the
		// other one, never more.
		if got := h.Agents(); got < 1 || got > h.Partitions() {
			t.Fatalf("agents = %d after a valid Hello, want 1..%d", got, h.Partitions())
		}
		// Both connections are gone: the next interval assembles with every
		// tier flagged missing instead of waiting or panicking.
		st := h.Collect(1, 2)
		check(st)
		if st.StatsOK == nil {
			t.Fatal("no agent is connected, yet interval 1 assembled complete")
		}
	})
}
