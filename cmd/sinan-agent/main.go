// Command sinan-agent is the per-node stats daemon of a distributed run
// (Sec. 4.1): it connects to the hub inside a sinan-run -stats-listen
// process, says Hello under its -id, receives a tier partition, and echoes
// every per-interval sample back as a sequence-numbered report
// (statplane.WireAgent, DESIGN.md §11). The simulated cluster lives with the
// scheduler, so the hub samples on the agent's behalf and the agent's only
// real job is to put the reports on the wire — which gives the report path
// (loss, duplication, delay, disconnects) a genuine TCP connection to
// misbehave on.
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
// redials under the same -id (wire.AgentRedial: 1 s doubling to 16 s),
// reclaiming its partition and keeping its sequence numbers — to the hub a
// redial is a blip, not a new node.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net"
	"os"
	"time"

	"sinan/internal/statplane"
	"sinan/internal/wire"
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
	agent := &statplane.WireAgent{Name: name, Gate: func(seq uint64, interval int64) statplane.Verdict {
		if *drop > 0 && rng.Float64() < *drop {
			log.Printf("%s: dropping report seq=%d interval=%d", name, seq, interval)
			return statplane.Drop
		}
		time.Sleep(*delay)
		if *dup > 0 && rng.Float64() < *dup {
			log.Printf("%s: duplicating report seq=%d interval=%d", name, seq, interval)
			return statplane.Duplicate
		}
		return statplane.Deliver
	}}

	// A session that held a partition starts the backoff over: every second
	// spent waiting is an interval of imputed StatsOK=false tiers, so outages
	// long past must not slow the recovery from this one.
	for fails := 0; ; fails++ { // fails: consecutive sessions that got no partition
		tiers, err := session(*hub, agent)
		if errors.Is(err, statplane.ErrNoPartition) {
			log.Fatalf("hub %s has no partition left for %s", *hub, name)
		}
		if tiers != nil {
			fails = 0
		}
		wait := wire.AgentRedial.Delay(fails)
		log.Printf("session on tiers %v ended: %v; redialling in %s", tiers, err, wait)
		time.Sleep(wait)
	}
}

// session dials the hub and runs one agent session on the connection.
func session(addr string, agent *statplane.WireAgent) (tiers []int, err error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	return agent.Session(conn)
}
