package statplane

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"sinan/internal/cluster"
	"sinan/internal/wire"
)

// frame builds one frame by hand.
func frame(kind byte, body []byte) []byte {
	b := binary.LittleEndian.AppendUint32(nil, uint32(len(body)))
	return append(append(b, kind), body...)
}

func helloFrame(version uint32, name string) []byte {
	return frame(kindHello, append(binary.LittleEndian.AppendUint32(nil, version), name...))
}

// sampleBody is a Sample's body: the interval, then a record per tier.
func sampleBody(interval int64, tiers ...int) []byte {
	b := binary.LittleEndian.AppendUint64(nil, uint64(interval))
	for _, t := range tiers {
		b = appendTier(b, t, cluster.Stats{CPUUsage: float64(t) + 0.5})
	}
	return b
}

func reportFrame(seq uint64, interval int64, tiers ...int) []byte {
	return frame(kindReport, append(wire.AppendU64(nil, seq), sampleBody(interval, tiers...)...))
}

// appendReport is what decodeReport reads: the agent's u64 seq · the
// Sample's body it echoes.
func appendReport(b []byte, r Report) []byte {
	b = wire.AppendU64(b, r.Seq, uint64(r.Interval))
	for _, ts := range r.Tiers {
		b = appendTier(b, ts.Tier, ts.Stats)
	}
	return b
}

// readConn is the reading half of a connection over bytes in memory.
type readConn struct {
	net.Conn
	r io.Reader
}

func (c readConn) Read(p []byte) (int, error) { return c.r.Read(p) }

// splitFrames returns the kind and a copy of the body of each whole frame at
// the front of data.
func splitFrames(data []byte) (kinds []byte, bodies [][]byte) {
	in := wire.Conn{Conn: readConn{r: bytes.NewReader(data)}}
	for {
		kind, b, err := in.Recv()
		if err != nil {
			return kinds, bodies
		}
		kinds, bodies = append(kinds, kind), append(bodies, bytes.Clone(b))
	}
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

// FuzzHubConn throws arbitrary bytes at the hub's end of an agent
// connection — first as a whole connection, then as what follows a valid
// Hello — and requires the hub to hang up or keep reading without
// panicking, to keep its partition bookkeeping in range, and to assemble
// full-width snapshots afterwards. The codec oracle holds for both of the
// hub's decoders: a Report body decodeReport accepts re-encodes to the same
// bytes, and so does the Hello a session was opened on.
func FuzzHubConn(f *testing.F) {
	hello := helloFrame(WireVersion, "fuzz")
	rep := reportFrame(1, 0, 1, 99, -1) // one tier of the partition, two outside it (-1 goes out as the u32 0xFFFFFFFF)
	broken := bytes.Clone(rep)
	binary.LittleEndian.PutUint32(broken, uint32(len(broken)-wire.Header-1)) // a record cut short
	broken = broken[:len(broken)-1]
	for _, frames := range [][][]byte{
		{},
		{rep},
		{broken, rep},
		{hello, rep}, // a second Hello inside the session
		{rep, rep, frame(kindAssign, appendAssign(nil, []int{7})), frame(kindSample, sampleBody(0))},
	} {
		msgs := bytes.Join(frames, nil)
		whole := append(bytes.Clone(hello), msgs...)
		f.Add(whole)                                             // a session from its first byte
		f.Add(msgs)                                              // what follows the Hello
		f.Add(whole[:len(whole)-3])                              // truncated mid-frame
		f.Add(append(helloFrame(WireVersion-1, "old"), msgs...)) // an old agent's Hello
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		_, bodies := splitFrames(data)
		for _, b := range bodies {
			var rep Report
			if decodeReport(&rep, b) == nil && !bytes.Equal(appendReport(nil, rep), b) {
				t.Fatalf("decodeReport accepted %x, which re-encodes as %x", b, appendReport(nil, rep))
			}
		}
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
		feedHub(t, h, append(bytes.Clone(hello), data...))
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
		h.mu.Lock()
		for _, sess := range h.sessions {
			if sess.name != "fuzz" && !bytes.HasPrefix(data, helloFrame(WireVersion, sess.name)) {
				t.Fatalf("a session named %q was opened on a Hello that does not re-encode to %x", sess.name, data[:min(len(data), 64)])
			}
		}
		h.mu.Unlock()
		// Both connections are gone: the next interval assembles with every
		// tier flagged missing instead of waiting or panicking.
		st := h.Collect(1, 2)
		check(st)
		if st.StatsOK == nil {
			t.Fatal("no agent is connected, yet interval 1 assembled complete")
		}
	})
}

// FuzzAgentSession plays the hub against a WireAgent's session over
// net.Pipe: it reads the agent's Hello, writes arbitrary bytes and hangs
// up. The session must return once the bytes are spent or stop
// parsing, without panicking, and everything it wrote must be well formed:
// its Hello, then Reports with consecutive sequence numbers, each carrying
// the body of the Sample it answers. The codec oracle holds for the agent's
// decoders: the partition the session returns re-encodes to the Assign it
// was read from, and a Report relays only a Sample the agent accepted.
func FuzzAgentSession(f *testing.F) {
	assign := frame(kindAssign, appendAssign(nil, []int{0, 1}))
	samples := append(frame(kindSample, sampleBody(0, 0, 1)), frame(kindSample, sampleBody(1, 0, 1))...)
	whole := append(bytes.Clone(assign), samples...)
	f.Add(whole)
	for _, cut := range []int{0, 3, wire.Header, len(assign) - 1, len(assign) + wire.Header + 4, len(whole) - 3} {
		f.Add(whole[:cut])
	}
	overCap := binary.LittleEndian.AppendUint32(bytes.Clone(assign), 0xFFFFFFFF)
	f.Add(append(overCap, kindSample))
	f.Add(frame(kindAssign, appendAssign(nil, nil)))                                // no partition left
	f.Add(append(frame(kindAssign, []byte{1, 0, 0, 0}), samples...))                // an old hub
	f.Add(append(frame(kindSample, sampleBody(0, 0)), whole...))                    // a Sample before the Assign
	f.Add(append(bytes.Clone(assign), frame(kindSample, sampleBody(2, 0)[:20])...)) // a record cut short

	f.Fuzz(func(t *testing.T, data []byte) {
		agentEnd, hubEnd := net.Pipe()
		kinds, bodies := splitFrames(data)
		agent := &WireAgent{Name: "fuzz"}
		returned := make(chan struct{})
		var tiers []int
		go func() {
			tiers, _ = agent.Session(agentEnd)
			agentEnd.Close() // what sinan-agent does; unblocks the Write below
			close(returned)
		}()

		in := &wire.Conn{Conn: hubEnd}
		if kind, b, err := in.Recv(); err != nil || kind != kindHello || !bytes.Equal(b, helloFrame(WireVersion, "fuzz")[wire.Header:]) {
			t.Fatalf("the agent's first frame: kind %d, body %q, err %v; want its Hello", kind, b, err)
		}
		// The hub's reading side checks every frame the agent writes next.
		var bad string
		read := make(chan struct{})
		go func() {
			defer close(read)
			for seq := uint64(1); ; seq++ {
				kind, b, err := in.Recv()
				if err != nil {
					return
				}
				// Report seq answers the frame after the Assign, data's
				// frame seq, which must be a Sample the agent accepted.
				if kind != kindReport || seq >= uint64(len(bodies)) || kinds[seq] != kindSample ||
					!bytes.Equal(b, append(wire.AppendU64(nil, seq), bodies[seq]...)) {
					bad = "a frame after the Hello is not the Report of the next Sample"
					return
				}
				var rep Report
				if err := decodeReport(&rep, b); err != nil {
					bad = fmt.Sprintf("Report %d relays a Sample body the hub cannot read: %v", seq, err)
					return
				}
			}
		}()

		hubEnd.SetWriteDeadline(time.Now().Add(2 * time.Second))
		hubEnd.Write(data) // an error means the agent hung up first, which it may
		hubEnd.Close()
		select {
		case <-returned:
		case <-time.After(4 * time.Second):
			t.Fatalf("the agent's session still running 4s after the hub hung up (%d bytes fed)", len(data))
		}
		<-read
		if bad != "" {
			t.Fatal(bad)
		}
		if tiers != nil && !bytes.HasPrefix(data, frame(kindAssign, appendAssign(nil, tiers))) {
			t.Fatalf("the session took the partition %v from an Assign that does not re-encode to it", tiers)
		}
	})
}
