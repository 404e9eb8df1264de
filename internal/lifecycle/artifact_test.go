package lifecycle

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sinan/internal/dataset"
)

// The headline serialization guarantee: a round-tripped hybrid produces
// bit-identical predictions — latencies and violation probabilities — on
// fresh inputs.
func TestArtifactRoundTripParity(t *testing.T) {
	m := trainedHybrid(t)
	art, man, err := Encode(m, Manifest{Note: "parity", Samples: 400})
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if man.Schema != SchemaVersion || man.SHA256 == "" || man.PayloadLen <= 0 {
		t.Fatalf("manifest incomplete: %+v", man)
	}
	if man.D != m.D || man.K != m.K || man.QoSMS != m.QoSMS {
		t.Fatalf("manifest fingerprint %+v does not match model", man)
	}
	m2, man2, err := Decode(art)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if man2 != man {
		t.Fatalf("manifest changed across round trip: %+v vs %+v", man2, man)
	}
	if m2.Pd != m.Pd || m2.Pu != m.Pu || m2.RMSEValid != m.RMSEValid {
		t.Fatalf("thresholds changed: pd %v→%v pu %v→%v", m.Pd, m2.Pd, m.Pu, m2.Pu)
	}

	probe := lcSynthDataset(7, 32)
	wantLat, wantPV := predictAll(t, m, probe)
	gotLat, gotPV := predictAll(t, m2, probe)
	for i, v := range wantLat.Data {
		if gotLat.Data[i] != v {
			t.Fatalf("latency prediction %d diverged: %v != %v", i, gotLat.Data[i], v)
		}
	}
	for i, v := range wantPV {
		if gotPV[i] != v {
			t.Fatalf("violation probability %d diverged: %v != %v", i, gotPV[i], v)
		}
	}
}

func TestArtifactWriteFileAtomicAndClean(t *testing.T) {
	m := trainedHybrid(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "m.model")
	man, err := WriteFile(path, m, Manifest{Note: "file"})
	if err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	m2, man2, err := ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if man2 != man || m2 == nil {
		t.Fatalf("file round trip mismatch: %+v vs %+v", man2, man)
	}
	// A failed write (the destination is a directory, so the final rename
	// fails) reports the error; neither write leaves temp litter behind.
	sub := filepath.Join(dir, "sub")
	if err := os.Mkdir(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := WriteFile(sub, m, Manifest{}); err == nil {
		t.Fatal("WriteFile over an existing directory succeeded")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("expected exactly the artifact and sub/ in %s, found %d entries", dir, len(entries))
	}
}

// Datasets go to disk through WriteAtomic too (sinan-collect): a write that
// fails halfway over an existing dataset reports its error and leaves the
// old file whole and loadable, with no temp file beside it.
func TestWriteAtomicKeepsDatasetOnFailedWrite(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "hotel.ds")
	old := lcSynthDataset(3, 20)
	if err := WriteAtomic(path, old.Save); err != nil {
		t.Fatalf("WriteAtomic: %v", err)
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	full := errors.New("no space left on device")
	err = WriteAtomic(path, func(w io.Writer) error {
		w.Write(want[:len(want)/2])
		return full
	})
	if !errors.Is(err, full) {
		t.Fatalf("failed write returned %v, want %v", err, full)
	}
	ds, err := dataset.LoadFile(path)
	if err != nil {
		t.Fatalf("the old dataset no longer loads: %v", err)
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, want) || ds.Len() != old.Len() {
		t.Fatalf("the old dataset changed: %d bytes and %d samples, want %d and %d", len(got), ds.Len(), len(want), old.Len())
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Fatalf("%d entries in %s after the failed write, want the dataset alone", len(entries), dir)
	}
}

// The envelope is the only file format: a corrupt envelope fails checksum
// verification, and a bare model payload (what the retired raw-gob format
// held) or junk is refused at the magic — nothing is sniffed or retried.
func TestReadFileAcceptsOnlyEnvelopes(t *testing.T) {
	m := trainedHybrid(t)
	dir := t.TempDir()
	art, _, err := Encode(m, Manifest{Note: "strict"})
	if err != nil {
		t.Fatal(err)
	}
	art[len(art)-1] ^= 0xFF
	var payload bytes.Buffer
	if err := m.Encode(&payload); err != nil {
		t.Fatal(err)
	}
	for name, tc := range map[string]struct {
		data []byte
		want string
	}{
		"corrupt.model": {art, "checksum"},
		"rawgob.model":  {payload.Bytes(), "magic"},
		"junk.model":    {[]byte("not a model"), "magic"},
	} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, tc.data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := ReadFile(path); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("ReadFile(%s) error = %v, want %q", name, err, tc.want)
		}
	}
}

// Every truncation point and a dense sample of single-bit flips must yield
// an error or a finitely-predicting model — never a panic. This is the
// corrupt-artifact guarantee the registry and the UpdateModel RPC lean on.
func TestArtifactCorruptionNeverPanics(t *testing.T) {
	m := trainedHybrid(t)
	art, _, err := Encode(m, Manifest{Note: "corrupt"})
	if err != nil {
		t.Fatal(err)
	}

	// Truncations: every envelope boundary plus a stride through the body.
	cuts := []int{0, 1, 4, 7, 8, 9, 11, 12, 13, 40, len(art) / 2, len(art) - 1}
	for c := 16; c < len(art); c += 509 {
		cuts = append(cuts, c)
	}
	for _, c := range cuts {
		if _, _, err := Decode(art[:c]); err == nil {
			t.Fatalf("truncation at %d/%d decoded without error", c, len(art))
		}
	}

	// Bit flips: the magic, length, header, and a stride through the
	// payload. A flip confined to manifest metadata (e.g. the Note string)
	// can legitimately decode; everything else must error. Either way, no
	// panic — the test crashing is the failure.
	for off := 0; off < len(art); off += 251 {
		mut := make([]byte, len(art))
		copy(mut, art)
		mut[off] ^= 0x10
		if m2, _, err := Decode(mut); err == nil && m2 == nil {
			t.Fatalf("flip at %d returned nil model without error", off)
		}
	}
}

func TestArtifactRejectsFingerprintMismatch(t *testing.T) {
	m := trainedHybrid(t)
	art, man, err := Encode(m, Manifest{})
	if err != nil {
		t.Fatal(err)
	}
	// Rewrite the envelope with a manifest whose QoS fingerprint disagrees
	// with the payload, keeping the payload and its digest intact: the
	// checksum passes, and the dims/QoS cross-check must still refuse it.
	man.QoSMS++
	hlen := int(binary.BigEndian.Uint32(art[8:12]))
	payload := art[12+hlen:]
	var header bytes.Buffer
	if err := gob.NewEncoder(&header).Encode(man); err != nil {
		t.Fatal(err)
	}
	tampered := append([]byte{}, artifactMagic[:]...)
	var hl [4]byte
	binary.BigEndian.PutUint32(hl[:], uint32(header.Len()))
	tampered = append(tampered, hl[:]...)
	tampered = append(tampered, header.Bytes()...)
	tampered = append(tampered, payload...)
	if _, _, err := Decode(tampered); err == nil {
		t.Fatal("fingerprint mismatch decoded without error")
	}
}

func TestReadManifestBounds(t *testing.T) {
	// Not an artifact at all.
	if _, err := ReadManifest(strings.NewReader("definitely not a model")); err == nil {
		t.Fatal("garbage accepted")
	}
	// Valid magic, absurd header length.
	b := append([]byte{}, artifactMagic[:]...)
	b = append(b, 0xFF, 0xFF, 0xFF, 0xFF)
	if _, _, err := Decode(b); err == nil {
		t.Fatal("absurd header length accepted")
	}
}

// FuzzArtifactDecode asserts the only contract corrupt bytes get: an error,
// never a panic. Seeds cover a valid artifact, truncations, and bit flips;
// `go test` runs the corpus, `go test -fuzz=FuzzArtifactDecode` explores.
func FuzzArtifactDecode(f *testing.F) {
	m := trainedHybrid(f)
	art, _, err := Encode(m, Manifest{Note: "fuzz"})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(art)
	f.Add(art[:len(art)/3])
	f.Add(art[:11])
	flip := make([]byte, len(art))
	copy(flip, art)
	flip[len(flip)/2] ^= 0x80
	f.Add(flip)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, man, err := Decode(data)
		if err == nil && m == nil {
			t.Fatalf("nil model without error (manifest %+v)", man)
		}
	})
}
