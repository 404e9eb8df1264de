package apps

import (
	"fmt"
	"testing"

	"sinan/internal/cluster"
	"sinan/internal/sim"
)

// validate checks that every call tree only references configured tiers and
// that weights are sane.
func validate(a *App) error {
	names := map[string]bool{}
	for _, t := range a.Tiers {
		if names[t.Name] {
			return fmt.Errorf("app %s: duplicate tier %q", a.Name, t.Name)
		}
		names[t.Name] = true
	}
	if len(a.Requests) == 0 {
		return fmt.Errorf("app %s: no request types", a.Name)
	}
	total := 0.0
	var walk func(r RequestType, s *cluster.Stage) error
	walk = func(r RequestType, s *cluster.Stage) error {
		if !names[s.Tier] {
			return fmt.Errorf("app %s: request %s references unknown tier %q", a.Name, r.Name, s.Tier)
		}
		for _, ch := range s.Children {
			if err := walk(r, ch); err != nil {
				return err
			}
		}
		return nil
	}
	for _, r := range a.Requests {
		if r.Weight < 0 {
			return fmt.Errorf("app %s: negative weight for %s", a.Name, r.Name)
		}
		total += r.Weight
		if err := walk(r, r.Tree); err != nil {
			return err
		}
	}
	if total <= 0 {
		return fmt.Errorf("app %s: zero total request weight", a.Name)
	}
	return nil
}

func TestHotelReservationValid(t *testing.T) {
	app := NewHotelReservation()
	if err := validate(app); err != nil {
		t.Fatal(err)
	}
	if len(app.Tiers) != 17 {
		t.Fatalf("hotel has %d tiers, want 17 (Fig. 1)", len(app.Tiers))
	}
	if app.QoSMS != 200 {
		t.Fatalf("hotel QoS = %v, want 200ms", app.QoSMS)
	}
	if len(app.Requests) != 4 {
		t.Fatalf("hotel request types = %d, want 4", len(app.Requests))
	}
}

func TestSocialNetworkValid(t *testing.T) {
	app := NewSocialNetwork()
	if err := validate(app); err != nil {
		t.Fatal(err)
	}
	if len(app.Tiers) != 28 {
		t.Fatalf("social network has %d tiers, want 28 (Fig. 12 legend)", len(app.Tiers))
	}
	if app.QoSMS != 500 {
		t.Fatalf("social QoS = %v, want 500ms", app.QoSMS)
	}
}

func TestAppsBuildClusters(t *testing.T) {
	for _, app := range []*App{NewHotelReservation(), NewSocialNetwork()} {
		eng := &sim.Engine{}
		c := cluster.New(eng, sim.NewRNG(1), app.Tiers)
		if c.NumTiers() != len(app.Tiers) {
			t.Fatalf("%s: cluster tier count mismatch", app.Name)
		}
		// Every request tree executes end to end under max allocation.
		for _, r := range app.Requests {
			done := false
			c.Submit(r.Tree, func(l float64, d bool) {
				done = true
				if d {
					t.Fatalf("%s/%s dropped on idle cluster", app.Name, r.Name)
				}
				if l <= 0 || l > 10 {
					t.Fatalf("%s/%s latency %v implausible", app.Name, r.Name, l)
				}
			})
			eng.Run(eng.Now() + 100)
			if !done {
				t.Fatalf("%s/%s never completed", app.Name, r.Name)
			}
		}
	}
}

func TestComposePostDominatesCost(t *testing.T) {
	app := NewSocialNetwork()
	cost := func(s *cluster.Stage) float64 {
		var walk func(*cluster.Stage) float64
		walk = func(st *cluster.Stage) float64 {
			w := st.Work
			for _, ch := range st.Children {
				w += walk(ch)
			}
			return w
		}
		return walk(s)
	}
	var compose, readHome float64
	for _, r := range app.Requests {
		switch r.Name {
		case ComposePost:
			compose = cost(r.Tree)
		case ReadHomeTimeline:
			readHome = cost(r.Tree)
		}
	}
	if compose < 10*readHome {
		t.Fatalf("ComposePost (%.1fms) should dwarf ReadHomeTimeline (%.1fms)",
			compose*1000, readHome*1000)
	}
}

func TestWithMix(t *testing.T) {
	app := NewSocialNetwork().WithMix(MixW1)
	for _, r := range app.Requests {
		if r.Name == ComposePost && r.Weight != 10 {
			t.Fatalf("W1 compose weight = %v, want 10", r.Weight)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unknown request name should panic")
		}
	}()
	app.WithMix(map[string]float64{"nope": 1})
}

func TestPlatformScalesWork(t *testing.T) {
	local := NewSocialNetwork()
	gce := NewSocialNetwork(WithPlatform(GCE))
	lw := local.Requests[0].Tree.Work
	gw := gce.Requests[0].Tree.Work
	if gw <= lw {
		t.Fatalf("GCE work %v should exceed local %v (slower cores + overhead)", gw, lw)
	}
	// GCE replicates stateless tiers.
	var ln, gn int
	for i := range local.Tiers {
		ln += max(local.Tiers[i].Replicas, 1)
		gn += max(gce.Tiers[i].Replicas, 1)
	}
	if gn <= ln {
		t.Fatalf("GCE replicas %d should exceed local %d", gn, ln)
	}
}

func TestReplicaMultSparesStateful(t *testing.T) {
	app := NewSocialNetwork(WithReplicaMult(3))
	for _, tc := range app.Tiers {
		switch tc.Name {
		case SPostStoreMongo, SUserMongo, SUserTlMongo, SGraphMongo:
			if tc.Replicas != 1 {
				t.Fatalf("stateful tier %s replicated: %d", tc.Name, tc.Replicas)
			}
		case SNginx:
			if tc.Replicas != 3 {
				t.Fatalf("nginx replicas = %d, want 3", tc.Replicas)
			}
		}
	}
}

func TestEncryptionAddsComposeWork(t *testing.T) {
	plain := NewSocialNetwork()
	enc := NewSocialNetwork(WithEncryption())
	total := func(a *App, name string) float64 {
		var walk func(*cluster.Stage) float64
		walk = func(st *cluster.Stage) float64 {
			w := st.Work
			for _, ch := range st.Children {
				w += walk(ch)
			}
			return w
		}
		for _, r := range a.Requests {
			if r.Name == name {
				return walk(r.Tree)
			}
		}
		return 0
	}
	if total(enc, ComposePost) <= total(plain, ComposePost) {
		t.Fatal("encryption should add compose-path CPU work")
	}
	if total(enc, ReadHomeTimeline) <= total(plain, ReadHomeTimeline) {
		t.Fatal("encryption should add read-path (decrypt) CPU work")
	}
}

func TestLogSyncOption(t *testing.T) {
	app := NewSocialNetwork(WithLogSync())
	found := false
	for _, tc := range app.Tiers {
		if tc.Name == SGraphRedis {
			found = true
			if tc.StallInterval != 60 {
				t.Fatalf("graph-Redis stall interval = %v, want 60s", tc.StallInterval)
			}
		}
	}
	if !found {
		t.Fatal("graph-Redis tier missing")
	}
	plain := NewSocialNetwork()
	for _, tc := range plain.Tiers {
		if tc.Name == SGraphRedis && tc.StallInterval != 0 {
			t.Fatal("log sync should default off")
		}
	}
}

func TestWorkScale(t *testing.T) {
	a := NewHotelReservation(WithWorkScale(2))
	b := NewHotelReservation()
	if a.Requests[0].Tree.Work != 2*b.Requests[0].Tree.Work {
		t.Fatal("work scale not applied")
	}
}

func TestValidateCatchesBadTree(t *testing.T) {
	app := NewHotelReservation()
	app.Requests[0].Tree = &cluster.Stage{Tier: "ghost", Work: 1}
	if err := validate(app); err == nil {
		t.Fatal("validate should reject tree referencing unknown tier")
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// TestLookup: the command-line names build the expected application on the
// expected platform with its collection load range, and an unknown app or
// platform name is an error.
func TestLookup(t *testing.T) {
	for _, tc := range []struct {
		app, platform string
		name          string
		qos           float64
		tiers         int
		lo, hi        float64
		replicas      int // of the stateless frontend tier
	}{
		{"hotel", "local", "hotel-reservation", 200, 17, 500, 3700, 1},
		{"hotel", "gce", "hotel-reservation", 200, 17, 500, 3700, 2},
		{"social", "local", "social-network", 500, 28, 50, 450, 1},
		{"social", "gce", "social-network", 500, 28, 50, 450, 2},
	} {
		a, err := Lookup(tc.app, tc.platform)
		if err != nil {
			t.Fatalf("Lookup(%q, %q): %v", tc.app, tc.platform, err)
		}
		lo, hi := a.LoadRange()
		if a.Name != tc.name || a.QoSMS != tc.qos || len(a.Tiers) != tc.tiers || lo != tc.lo || hi != tc.hi {
			t.Errorf("Lookup(%q, %q) = %s, QoS %v, %d tiers, range [%v, %v]; want %s, %v, %d, [%v, %v]",
				tc.app, tc.platform, a.Name, a.QoSMS, len(a.Tiers), lo, hi,
				tc.name, tc.qos, tc.tiers, tc.lo, tc.hi)
		}
		if r := max(a.Tiers[0].Replicas, 1); r != tc.replicas {
			t.Errorf("Lookup(%q, %q): %s has %d replicas, want %d", tc.app, tc.platform, a.Tiers[0].Name, r, tc.replicas)
		}
	}
	for _, bad := range [][2]string{{"hotl", "local"}, {"", "local"}, {"social", "gcp"}, {"hotel", ""}} {
		if a, err := Lookup(bad[0], bad[1]); err == nil {
			t.Errorf("Lookup(%q, %q) = %s, want an error", bad[0], bad[1], a.Name)
		}
	}
}

// TestVariantsKeepLoadRange: every option and WithMix keep the load range
// the constructor set.
func TestVariantsKeepLoadRange(t *testing.T) {
	for _, tc := range []struct {
		build  func(...Option) *App
		mix    map[string]float64
		lo, hi float64
	}{
		{NewHotelReservation, map[string]float64{"Recommend": 0.5}, 500, 3700},
		{NewSocialNetwork, MixW1, 50, 450},
	} {
		for _, a := range []*App{
			tc.build(WithPlatform(GCE)),
			tc.build(WithReplicaMult(3)),
			tc.build(WithWorkScale(1.35)),
			tc.build().WithMix(tc.mix),
		} {
			if lo, hi := a.LoadRange(); lo != tc.lo || hi != tc.hi {
				t.Errorf("%s variant: range [%v, %v], want [%v, %v]", a.Name, lo, hi, tc.lo, tc.hi)
			}
		}
	}
}
