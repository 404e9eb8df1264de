package nn

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"sinan/internal/wire"
)

// FuzzLoad drives arbitrary byte streams through ReadModel: corrupt input —
// truncated, bit-flipped, or carrying hostile shape metadata — must return
// an error, never panic. Bytes it accepts whole must encode back to
// themselves, and the model must predict finite output of the declared
// shape.
func FuzzLoad(f *testing.F) {
	rng := rand.New(rand.NewSource(77))
	small := Dims{N: 2, T: 2, F: 2, M: 2}
	in, y := synthInputs(rng, 16, small)
	tm := Train(NewMLP(rand.New(rand.NewSource(78)), small), in, y,
		TrainConfig{Epochs: 1, Batch: 8, QoSMS: 500, Seed: 1})
	blob := encoded(f, tm)
	f.Add(blob)
	f.Add(blob[:len(blob)/2])
	f.Add(blob[:3])
	flip := bytes.Clone(blob)
	flip[len(flip)/3] ^= 0x40
	f.Add(flip)
	f.Add([]byte{})
	f.Add([]byte("garbage"))
	f.Add(encoded(f, Train(NewLatencyCNN(rand.New(rand.NewSource(79)), small, 3), in, y,
		TrainConfig{Epochs: 1, Batch: 8, QoSMS: 500, Seed: 1})))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := wire.NewReader(data)
		loaded, err := ReadModel(r)
		if err != nil || r.Len() != 0 {
			return
		}
		if loaded == nil || loaded.Model == nil || loaded.Norm == nil {
			t.Fatal("ReadModel returned nil pieces without an error")
		}
		if again := encoded(t, loaded); !bytes.Equal(again, data) {
			t.Fatalf("ReadModel accepted %d bytes that encode back as %d others", len(data), len(again))
		}
		d := loaded.Model.Dims()
		probeIn, _ := synthInputs(rand.New(rand.NewSource(79)), 4, d)
		pred, _ := loaded.PredictWithLatent(probeIn)
		if pred.Shape[0] != 4 || pred.Shape[1] != d.M {
			t.Fatalf("prediction shape %v, want [4 %d]", pred.Shape, d.M)
		}
		for _, v := range pred.Data {
			if math.IsNaN(v) {
				// NaN weights round-trip; ReadModel guards shape, the gate
				// guards quality. Not a crash.
				return
			}
		}
	})
}
