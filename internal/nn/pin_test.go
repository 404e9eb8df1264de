//go:build amd64 && !amd64.v3

package nn

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
)

// paramDigest hashes the bits of every weight of every parameter, in
// Params() order.
func paramDigest(ps []*Param) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, p := range ps {
		for _, v := range p.W.Data {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}

// The trained weights are pinned bit for bit: the digest below was recorded
// at commit a0976de, on the plain scalar GEMM loops and the allocating
// per-step gather, before the blocked kernels and the shard buffers replaced
// them. Shards of 32 put conv1/conv2 on the parallel kernel path and rh.fc
// on the serial one, and the post-ReLU activations feed zeros through the
// a == 0 skip. Do not re-record it to make a change pass: a mismatch means
// some output element's floating-point operation sequence changed.
//
// The build constraint is the pin's scope, not a convenience: on targets
// where the compiler fuses x*y + z into one FMA (arm64, ppc64le, s390x,
// GOAMD64=v3) the same source legitimately yields other bits. The portable
// pin is the == differential tests in internal/tensor, which hold the
// blocked kernels to the reference loops on every target.
func TestTrainedWeightsPinned(t *testing.T) {
	in, y := synthInputs(rand.New(rand.NewSource(71)), 400, testDims)
	tm := Train(NewLatencyCNN(rand.New(rand.NewSource(72)), testDims, 16), in, y,
		TrainConfig{Epochs: 2, Batch: 128, QoSMS: 500, Seed: 7})
	const want = 0x3980180fd66802c5
	if got := paramDigest(tm.Model.Params()); got != want {
		t.Fatalf("trained-weight digest %#016x, want %#016x", got, want)
	}
	if got, want := tm.RMSE(in, y), 96.15841157048914; got != want {
		t.Fatalf("train RMSE %v, want %v", got, want)
	}
}
