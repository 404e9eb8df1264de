// Command sinan-agent is the per-node stats daemon of a distributed run
// (Sec. 4.1): it connects to the hub inside a sinan-run -stats-listen
// process, receives a tier partition, and echoes every per-interval sample
// back as a versioned, sequence-numbered report. The simulated cluster
// lives with the scheduler, so the hub pushes each interval's samples to
// the agent and the agent's only real job is to put them on the wire —
// which gives the report path (loss, duplication, delay, disconnects) a
// genuine TCP connection to misbehave on.
//
// Example (three terminals):
//
//	sinan-run -app hotel -policy autoscale-cons -stats-listen 127.0.0.1:9900
//	sinan-agent -hub 127.0.0.1:9900 -id node-a
//	sinan-agent -hub 127.0.0.1:9900 -id node-b -drop 0.1 -dup 0.05
//
// -drop and -dup inject wire faults on the agent side: each report is lost
// or re-sent with that probability (seeded by -seed, so a faulty agent is
// reproducible). -delay holds every report back before sending, driving
// reports past the hub's assembly deadline. On disconnect the agent
// redials with backoff under the same -id, reclaiming its partition and
// keeping its sequence numbers — to the hub a redial is a blip, not a new
// node.
package main

import (
	"encoding/gob"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net"
	"os"
	"time"

	"sinan/internal/statplane"
)

func main() {
	var (
		hub   = flag.String("hub", "127.0.0.1:9900", "stats hub address (sinan-run -stats-listen)")
		id    = flag.String("id", "", "agent name (default: host-pid)")
		drop  = flag.Float64("drop", 0, "probability of losing each report before sending")
		dup   = flag.Float64("dup", 0, "probability of sending each report twice (same sequence number)")
		delay = flag.Duration("delay", 0, "hold each report back this long before sending")
		seed  = flag.Int64("seed", 1, "fault-coin RNG seed")
	)
	flag.Parse()

	name := *id
	if name == "" {
		host, _ := os.Hostname()
		name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	rng := rand.New(rand.NewSource(*seed))

	// seq lives outside the session loop: a reconnecting agent must never
	// reuse a sequence number, or the hub will discard its reports as
	// duplicates.
	var seq uint64
	fails := 0 // consecutive sessions that never got a valid Assign
	for {
		assigned, err := session(*hub, name, *drop, *dup, *delay, rng, &seq)
		if err == errNoPartition {
			log.Fatalf("hub %s has no partition left for %s", *hub, name)
		}
		if assigned {
			fails = 0
		}
		wait := redialDelay(fails)
		log.Printf("session ended: %v; redialling in %s", err, wait)
		time.Sleep(wait)
		fails++
	}
}

// redialDelay backs off 1, 2, 4, 8, then 16 s while the hub stays
// unreachable. A session that was assigned a partition starts it over:
// every second spent waiting is an interval of imputed StatsOK=false tiers,
// so outages long past must not slow the recovery from this one.
func redialDelay(fails int) time.Duration { return time.Second << min(fails, 4) }

var errNoPartition = fmt.Errorf("no partition assigned")

// session runs one connection's lifetime: Hello, Assign, then the
// sample→report echo loop. It returns when the connection dies, and
// whether the hub had assigned it a partition by then.
func session(addr, name string, drop, dup float64, delay time.Duration,
	rng *rand.Rand, seq *uint64) (assigned bool, err error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return false, err
	}
	defer conn.Close()
	dec := gob.NewDecoder(conn)
	enc := gob.NewEncoder(conn)

	if err := enc.Encode(&statplane.Envelope{
		Hello: &statplane.Hello{Version: statplane.WireVersion, Agent: name},
	}); err != nil {
		return false, err
	}
	var env statplane.Envelope
	if err := dec.Decode(&env); err != nil {
		return false, err
	}
	if env.Assign == nil || env.Assign.Version != statplane.WireVersion {
		return false, fmt.Errorf("hub speaks a different protocol version")
	}
	if len(env.Assign.Tiers) == 0 {
		return false, errNoPartition
	}
	log.Printf("%s: assigned tiers %v (interval %.0fs)", name, env.Assign.Tiers, env.Assign.IntervalSec)

	for {
		var env statplane.Envelope
		if err := dec.Decode(&env); err != nil {
			return true, err
		}
		s := env.Sample
		if s == nil {
			continue
		}
		*seq++
		if drop > 0 && rng.Float64() < drop {
			log.Printf("%s: dropping report seq=%d interval=%d", name, *seq, s.Interval)
			continue
		}
		if delay > 0 {
			time.Sleep(delay)
		}
		rep := &statplane.Envelope{Report: &statplane.Report{
			Version: statplane.WireVersion, Agent: name, Seq: *seq,
			Interval: s.Interval, Time: s.Time, Tiers: s.Tiers,
		}}
		if err := enc.Encode(rep); err != nil {
			return true, err
		}
		if dup > 0 && rng.Float64() < dup {
			log.Printf("%s: duplicating report seq=%d interval=%d", name, *seq, s.Interval)
			if err := enc.Encode(rep); err != nil {
				return true, err
			}
		}
	}
}
