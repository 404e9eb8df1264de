// Package apps defines the two end-to-end benchmark applications the paper
// evaluates (Sec. 2.2), as tier graphs and per-request-type call trees for
// the cluster simulator:
//
//   - Hotel Reservation (Fig. 1): 17 tiers — a Go/gRPC hotel booking site
//     with memcached caches and MongoDB backends. QoS: 200 ms p99.
//   - Social Network (Fig. 2): 28 tiers — a broadcast-style social network
//     with Thrift RPCs, Redis/memcached caches, RabbitMQ queues, MongoDB
//     backends, and ML content filters. QoS: 500 ms p99.
//
// CPU demands are calibrated so the applications exhibit the paper's
// qualitative behaviour: ComposePost dominates Social Network cost (it
// triggers the compute-intensive ML filter tiers), reads are cheap, and the
// QoS boundary falls inside the explored load range.
package apps

import (
	"fmt"

	"sinan/internal/cluster"
)

// RequestType is one request class with its workload-mix weight and call tree.
type RequestType struct {
	Name   string
	Weight float64
	Tree   *cluster.Stage
}

// App is a deployable application: tier configurations plus request classes.
type App struct {
	Name     string
	QoSMS    float64 // end-to-end p99 QoS target, milliseconds
	Tiers    []cluster.TierConfig
	Requests []RequestType

	// loadLo and loadHi bound the load its training data is collected
	// over; the constructor sets them and every variant keeps them.
	loadLo, loadHi float64
}

// LoadRange returns the load range, in emulated users (≈ RPS), that the
// application's training data is collected over (Sec. 4.2): a range whose
// QoS boundary falls inside it.
func (a *App) LoadRange() (lo, hi float64) { return a.loadLo, a.loadHi }

// Lookup builds the application a command line names: app "hotel" or
// "social" on platform "local" or "gce", with opts applied after the
// platform. An unknown name is an error.
func Lookup(name, platform string, opts ...Option) (*App, error) {
	var p Platform
	switch platform {
	case Local.Name:
		p = Local
	case GCE.Name:
		p = GCE
	default:
		return nil, fmt.Errorf("unknown platform %q (want local | gce)", platform)
	}
	opts = append([]Option{WithPlatform(p)}, opts...)
	switch name {
	case "hotel":
		return NewHotelReservation(opts...), nil
	case "social":
		return NewSocialNetwork(opts...), nil
	}
	return nil, fmt.Errorf("unknown app %q (want hotel | social)", name)
}

// TierNames returns the tier names in model order.
func (a *App) TierNames() []string {
	out := make([]string, len(a.Tiers))
	for i, t := range a.Tiers {
		out[i] = t.Name
	}
	return out
}

// TotalWeight returns the sum of request-type weights.
func (a *App) TotalWeight() float64 {
	s := 0.0
	for _, r := range a.Requests {
		s += r.Weight
	}
	return s
}

// WithMix returns a copy of the app with request-type weights replaced.
// Unknown request names panic; weights need not sum to 1.
func (a *App) WithMix(weights map[string]float64) *App {
	cp := *a
	cp.Requests = append([]RequestType(nil), a.Requests...)
	seen := map[string]bool{}
	for i := range cp.Requests {
		if w, ok := weights[cp.Requests[i].Name]; ok {
			cp.Requests[i].Weight = w
			seen[cp.Requests[i].Name] = true
		}
	}
	for name := range weights {
		if !seen[name] {
			panic(fmt.Sprintf("apps: unknown request type %q", name))
		}
	}
	return &cp
}

// Platform captures the hardware/deployment profile the application runs on.
// Work demands are divided by Speed and each RPC stage pays Overhead extra
// CPU; replica counts are multiplied by ReplicaMult (stateless tiers only,
// matching the paper's GCE deployment which replicates everything except the
// backend databases).
type Platform struct {
	Name        string
	Speed       float64
	Overhead    float64
	ReplicaMult int
}

// Local is the dedicated local-cluster platform of Sec. 5.1.
var Local = Platform{Name: "local", Speed: 1.0, Overhead: 0, ReplicaMult: 1}

// GCE models the Google Compute Engine deployment: slightly slower cores,
// extra virtualised-network RPC overhead, and more replicas per tier.
var GCE = Platform{Name: "gce", Speed: 0.8, Overhead: 0.0002, ReplicaMult: 2}

// Option customises an application build.
type Option func(*buildCfg)

type buildCfg struct {
	platform    Platform
	replicaMult int
	encryption  bool
	logSync     bool
	workScale   float64
}

// WithPlatform deploys the app on the given platform profile.
func WithPlatform(p Platform) Option { return func(c *buildCfg) { c.platform = p } }

// WithReplicaMult multiplies the replica count of stateless tiers; this is
// the "change of scale-out factor" deployment change of Fig. 13.
func WithReplicaMult(k int) Option { return func(c *buildCfg) { c.replicaMult = k } }

// WithEncryption enables AES encryption of posts before storage (the
// application modification of Fig. 13): extra CPU on the compose path.
func WithEncryption() Option { return func(c *buildCfg) { c.encryption = true } }

// WithLogSync enables the Redis log-synchronisation pathology of Sec. 5.6 on
// the social-graph Redis tier (Fig. 16 / Table 4).
func WithLogSync() Option { return func(c *buildCfg) { c.logSync = true } }

// WithWorkScale scales all CPU demands uniformly (testing/calibration knob).
func WithWorkScale(f float64) Option { return func(c *buildCfg) { c.workScale = f } }

func buildOptions(opts []Option) buildCfg {
	c := buildCfg{platform: Local, replicaMult: 1, workScale: 1}
	for _, o := range opts {
		o(&c)
	}
	return c
}

// scaleTree returns a deep copy of the stage tree with work demands scaled
// and per-stage platform overhead added.
func scaleTree(s *cluster.Stage, mul, overhead float64) *cluster.Stage {
	cp := *s
	cp.Work = s.Work*mul + overhead
	cp.Children = make([]*cluster.Stage, len(s.Children))
	for i, ch := range s.Children {
		cp.Children[i] = scaleTree(ch, mul, overhead)
	}
	return &cp
}

// addWork returns a copy of the tree with extra CPU demand added at every
// stage executing on the named tier.
func addWork(s *cluster.Stage, tier string, extra float64) *cluster.Stage {
	cp := *s
	if cp.Tier == tier {
		cp.Work += extra
	}
	cp.Children = make([]*cluster.Stage, len(s.Children))
	for i, ch := range s.Children {
		cp.Children[i] = addWork(ch, tier, extra)
	}
	return &cp
}

// finish applies platform/option transforms to a fully-specified app.
func finish(a *App, c buildCfg, statefulTiers map[string]bool) *App {
	mul := c.workScale / c.platform.Speed
	rm := c.replicaMult * c.platform.ReplicaMult
	for i := range a.Tiers {
		if rm > 1 && !statefulTiers[a.Tiers[i].Name] {
			if a.Tiers[i].Replicas == 0 {
				a.Tiers[i].Replicas = 1
			}
			a.Tiers[i].Replicas *= rm
		}
	}
	for i := range a.Requests {
		a.Requests[i].Tree = scaleTree(a.Requests[i].Tree, mul, c.platform.Overhead)
	}
	return a
}

const ms = 0.001 // CPU demands below are expressed in milliseconds
