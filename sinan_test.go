package sinan

import (
	"math/rand"
	"path/filepath"
	"testing"

	"sinan/internal/apps"
	"sinan/internal/core"
	"sinan/internal/dataset"
	"sinan/internal/lifecycle"
	"sinan/internal/nn"
)

func TestFacadeConstructors(t *testing.T) {
	hotel := HotelReservation()
	if hotel.QoSMS != 200 || len(hotel.Tiers) != 17 {
		t.Fatalf("hotel facade: qos=%v tiers=%d", hotel.QoSMS, len(hotel.Tiers))
	}
	social := SocialNetwork(OnGCE, WithLogSync())
	if social.QoSMS != 500 || len(social.Tiers) != 28 {
		t.Fatalf("social facade: qos=%v tiers=%d", social.QoSMS, len(social.Tiers))
	}
	if Constant(5).RPS(0) != 5 {
		t.Fatal("constant pattern broken")
	}
	d := Diurnal(10, 20, 100)
	if d.RPS(50) != 20 {
		t.Fatalf("diurnal peak = %v", d.RPS(50))
	}
}

func TestFacadePipelineSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline")
	}
	app := HotelReservation()
	ds := Collect(app, CollectOptions{Duration: 600, Seed: 99})
	if ds.Len() < 400 {
		t.Fatalf("collected %d samples", ds.Len())
	}
	model, rep := Train(ds, app.QoSMS, TrainOptions{Seed: 99, Epochs: 4})
	if rep.ValRMSE <= 0 {
		t.Fatal("training produced no report")
	}
	// SaveModel/LoadModel round trip through the facade.
	path := filepath.Join(t.TempDir(), "m.model")
	if err := SaveModel(path, model); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModel(path)
	if err != nil {
		t.Fatal(err)
	}
	res := Manage(app, Scheduler(app, loaded), RunOptions{
		Load: Constant(800), Duration: 40, Seed: 9, Warmup: 10, KeepTrace: true,
	})
	if res.Meter.Intervals() != 30 {
		t.Fatalf("intervals = %d", res.Meter.Intervals())
	}
	if len(res.Trace) != 40 {
		t.Fatalf("trace length = %d", len(res.Trace))
	}

	// Explainability entry points run and rank everything.
	tiers := ExplainTiers(loaded, ds, app)
	if len(tiers) != len(app.Tiers) {
		t.Fatalf("tier ranking covers %d of %d tiers", len(tiers), len(app.Tiers))
	}
	res2 := ExplainResources(loaded, ds, 0)
	if len(res2) != len(ResourceChannelNames) {
		t.Fatalf("resource ranking covers %d channels", len(res2))
	}
}

func TestBaselinePoliciesConstruct(t *testing.T) {
	for _, p := range []Policy{AutoScaleOpt(), AutoScaleCons(), PowerChief()} {
		if p.Name() == "" {
			t.Fatal("baseline policy without a name")
		}
	}
}

func TestCollectDefaultsPerApp(t *testing.T) {
	if testing.Short() {
		t.Skip("collection")
	}
	// Social defaults to the 50–450 range; a tiny run should stay cheap.
	app := SocialNetwork()
	ds := Collect(app, CollectOptions{Duration: 120, Seed: 1})
	if ds.Len() == 0 {
		t.Fatal("no samples collected with default ranges")
	}
	if ds.D.N != len(app.Tiers) {
		t.Fatal("dims not derived from app")
	}
	_ = apps.MixW0
}

// tinyModel trains a small real hybrid on synthetic data (p99 rises as the
// total allocation falls) and returns it with the inputs it was trained on.
func tinyModel(t *testing.T) (*Model, nn.Inputs) {
	t.Helper()
	d := nn.Dims{N: 4, T: 3, F: 6, M: 5}
	ds := dataset.New(d, 3)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		rh := make([]float64, d.F*d.N*d.T)
		lh := make([]float64, d.T*d.M)
		rc := make([]float64, d.N)
		total := 0.0
		for j := range rc {
			rc[j] = 0.5 + 3*rng.Float64()
			total += rc[j]
		}
		lat := min(30+60*max(0, 9-total), 500)
		for j := range rh {
			rh[j] = rng.Float64()
		}
		ylat := make([]float64, d.M)
		for j := range ylat {
			ylat[j] = lat * (0.9 + 0.025*float64(j))
		}
		ds.Append(rh, lh, rc, ylat, lat > 200)
	}
	m, _ := Train(ds, 200, TrainOptions{Seed: 1, Epochs: 2})
	return m, ds.Inputs()
}

func assertSamePredictions(t *testing.T, want, got *Model, in nn.Inputs) {
	t.Helper()
	wantLat, wantPV, _ := want.PredictBatch(core.NewPredictContext(), in)
	gotLat, gotPV, _ := got.PredictBatch(core.NewPredictContext(), in)
	for i := range wantLat.Data {
		if gotLat.Data[i] != wantLat.Data[i] {
			t.Fatalf("latency %d diverged after the file round trip: %v != %v", i, gotLat.Data[i], wantLat.Data[i])
		}
	}
	for i := range wantPV {
		if gotPV[i] != wantPV[i] {
			t.Fatalf("violation probability %d diverged after the file round trip: %v != %v", i, gotPV[i], wantPV[i])
		}
	}
}

// README's own sequence: sinan-train writes its model with
// lifecycle.WriteFile, and the public LoadModel — like sinan-explain's
// loader, lifecycle.ReadFile — must read that file back to the same model.
// (LoadModel used to expect a different, raw-gob format and failed here.)
func TestLoadModelReadsWhatTrainWrites(t *testing.T) {
	m, in := tinyModel(t)
	path := filepath.Join(t.TempDir(), "social.model")
	if _, err := lifecycle.WriteFile(path, m, lifecycle.Manifest{Note: "sinan-train"}); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModel(path)
	if err != nil {
		t.Fatalf("LoadModel on a sinan-train artifact: %v", err)
	}
	assertSamePredictions(t, m, loaded, in)
	explained, _, err := lifecycle.ReadFile(path)
	if err != nil {
		t.Fatalf("sinan-explain's loader on a sinan-train artifact: %v", err)
	}
	assertSamePredictions(t, m, explained, in)
}

func TestSaveModelLoadModelRoundTrip(t *testing.T) {
	m, in := tinyModel(t)
	path := filepath.Join(t.TempDir(), "m.model")
	if err := SaveModel(path, m); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModel(path)
	if err != nil {
		t.Fatal(err)
	}
	assertSamePredictions(t, m, loaded, in)
}
