// Package lifecycle guards the hybrid model's online life: versioned,
// checksummed artifacts (this file), a bounded on-disk registry of recent
// versions, a validation gate that replays a pinned holdout set before any
// hot swap, shadow scoring of candidates against live traffic, and a
// drift-detecting manager that closes the loop — retrain on scheduler
// feedback, gate, promote, and automatically roll back on a post-promotion
// SLO breach. The paper's premise (Sec. 5.4) is that the model must be
// retrained as deployments shift; this package's premise is that a retrain
// is a hypothesis, not an upgrade, until validation says otherwise.
package lifecycle

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"sinan/internal/core"
	"sinan/internal/wire"
)

// Artifact layout, little-endian:
//
//	[8]   magic "SINML002"
//	u64   Version, Samples, TrainedAtUnix, payload length
//	str   Note (u32 length, bytes)
//	[32]  SHA-256 of the payload
//	[*]   payload: core.HybridModel.Encode
//
// The magic names the format, and every fact about the model — dims, K,
// QoS, thresholds — is stored once, in the payload. The checksum is
// verified over the exact payload bytes before any model decoding touches
// them.
var artifactMagic = [8]byte{'S', 'I', 'N', 'M', 'L', '0', '0', '2'}

// Manifest is what the envelope adds to the model: provenance and
// integrity.
type Manifest struct {
	Version       int    // registry sequence number (0 = unregistered)
	Samples       int    // training samples behind this version
	TrainedAtUnix int64  // wall time of training (0 = unknown)
	Note          string // freeform provenance ("initial", "drift-retrain", ...)

	PayloadLen int64
	SHA256     string // hex digest of the payload bytes
}

// Encode renders m as artifact bytes. The manifest's payload length and
// digest are filled from the model; Version, Samples, TrainedAtUnix, and
// Note are taken from man. The completed manifest is returned.
func Encode(m *core.HybridModel, man Manifest) ([]byte, Manifest, error) {
	if m == nil {
		return nil, Manifest{}, fmt.Errorf("lifecycle: nil model")
	}
	payload, err := m.Encode()
	if err != nil {
		return nil, Manifest{}, fmt.Errorf("lifecycle: encoding payload: %w", err)
	}
	sum := sha256.Sum256(payload)
	man.PayloadLen = int64(len(payload))
	man.SHA256 = hex.EncodeToString(sum[:])
	b := append(make([]byte, 0, 76+len(man.Note)+len(payload)), artifactMagic[:]...) // 76: the fixed fields
	for _, v := range [...]int64{int64(man.Version), int64(man.Samples), man.TrainedAtUnix, man.PayloadLen} {
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
	}
	return append(append(wire.AppendString(b, man.Note), sum[:]...), payload...), man, nil
}

// Decode reads artifact bytes: magic, manifest, payload length and digest
// are all verified, in that order, before the model is decoded. Truncated,
// bit-flipped, or shape-mismatched input yields an error — never a panic —
// and never a partially-valid model.
func Decode(artifact []byte) (*core.HybridModel, Manifest, error) {
	switch magic := artifact[:min(8, len(artifact))]; {
	case string(magic) == "SINML001":
		return nil, Manifest{}, fmt.Errorf("lifecycle: a SINML001 artifact holds gob, which this build no longer reads; retrain the model")
	case !bytes.Equal(magic, artifactMagic[:]):
		return nil, Manifest{}, fmt.Errorf("lifecycle: bad magic %q (not a model artifact)", magic)
	}
	r := wire.NewReader(artifact[8:])
	man := Manifest{Version: int(int64(r.U64())), Samples: int(int64(r.U64())), TrainedAtUnix: int64(r.U64()),
		PayloadLen: int64(r.U64()), Note: r.String()}
	sum := r.Bytes(sha256.Size)
	if err := r.Err(); err != nil {
		return nil, Manifest{}, fmt.Errorf("lifecycle: manifest: %w", err)
	}
	if man.PayloadLen != int64(r.Len()) {
		return nil, Manifest{}, fmt.Errorf("lifecycle: manifest announces %d payload bytes, %d follow", man.PayloadLen, r.Len())
	}
	payload := r.Bytes(r.Len())
	if got := sha256.Sum256(payload); !bytes.Equal(got[:], sum) {
		return nil, Manifest{}, fmt.Errorf("lifecycle: payload checksum mismatch (corrupt artifact)")
	}
	man.SHA256 = hex.EncodeToString(sum)
	m, err := core.DecodeHybrid(payload)
	if err != nil {
		return nil, Manifest{}, err
	}
	return m, man, nil
}

// WriteFile writes an artifact atomically (see WriteAtomic).
func WriteFile(path string, m *core.HybridModel, man Manifest) (Manifest, error) {
	b, man, err := Encode(m, man)
	if err == nil {
		err = WriteAtomic(path, func(w io.Writer) error { _, err := w.Write(b); return err })
	}
	if err != nil {
		return Manifest{}, err
	}
	return man, nil
}

// WriteAtomic is the one durable-write routine, for artifacts and datasets
// alike: the bytes write puts out land in a temp file in the destination
// directory, are synced, and the temp file is renamed over path — a crashed
// or failing writer leaves either the old file or none, never a torn one.
// Close is checked because a full disk often surfaces only there.
func WriteAtomic(path string, write func(io.Writer) error) error {
	f, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	err = write(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		os.Remove(f.Name())
	}
	return err
}

// ReadFile reads an artifact written with WriteFile. The envelope is the
// only on-disk model format: sinan-train writes it, and sinan-serve,
// sinan-run, sinan-explain and the public sinan.LoadModel read it.
func ReadFile(path string) (*core.HybridModel, Manifest, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, Manifest{}, err
	}
	return Decode(b)
}
