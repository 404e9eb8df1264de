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
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"sinan/internal/core"
	"sinan/internal/nn"
)

// Artifact wire layout:
//
//	[8]  magic "SINML001"
//	[4]  big-endian header length H
//	[H]  gob-encoded Manifest (schema, version, dims fingerprint,
//	     training metadata, payload length, SHA-256 of payload)
//	[*]  payload: the gob HybridModel (core.HybridModel.Encode)
//
// The fixed-size length prefix keeps the header readable without handing
// the payload to a buffering decoder, so the checksum is verified over the
// exact payload bytes before any model decoding touches them.
var artifactMagic = [8]byte{'S', 'I', 'N', 'M', 'L', '0', '0', '1'}

// SchemaVersion is the artifact schema this build writes and accepts.
const SchemaVersion = 1

// Header and payload bounds: a corrupt length field must produce an error,
// not a multi-gigabyte allocation.
const (
	maxHeaderLen  = 1 << 20 // 1 MiB of manifest is already absurd
	maxPayloadLen = 1 << 30 // 1 GiB
)

// Manifest is the artifact's self-description. Everything the registry and
// the gate need to reason about a version without decoding the payload.
type Manifest struct {
	Schema  int // artifact schema version (SchemaVersion)
	Version int // registry sequence number (0 = unregistered)

	// Dims fingerprint: a candidate whose shape disagrees with the live
	// model can never be hot-swapped, so Load cross-checks these against
	// the decoded payload.
	D     nn.Dims
	K     int
	QoSMS float64

	// Training metadata.
	RMSEValid     float64
	Pd, Pu        float64
	Samples       int    // training samples behind this version
	TrainedAtUnix int64  // wall time of training (0 = unknown)
	Note          string // freeform provenance ("initial", "drift-retrain", ...)

	// Integrity.
	PayloadLen int64
	SHA256     string // hex digest of the payload bytes
}

// Write encodes m as a checksummed artifact onto w. The manifest's schema,
// dims fingerprint, thresholds, payload length, and digest are filled from
// the model; Version, Samples, TrainedAtUnix, and Note are taken from man.
// The completed manifest is returned.
func Write(w io.Writer, m *core.HybridModel, man Manifest) (Manifest, error) {
	if m == nil {
		return Manifest{}, fmt.Errorf("lifecycle: nil model")
	}
	var payload bytes.Buffer
	if err := m.Encode(&payload); err != nil {
		return Manifest{}, fmt.Errorf("lifecycle: encoding payload: %w", err)
	}
	sum := sha256.Sum256(payload.Bytes())
	man.Schema = SchemaVersion
	man.D, man.K, man.QoSMS = m.D, m.K, m.QoSMS
	man.RMSEValid, man.Pd, man.Pu = m.RMSEValid, m.Pd, m.Pu
	man.PayloadLen = int64(payload.Len())
	man.SHA256 = hex.EncodeToString(sum[:])

	var header bytes.Buffer
	if err := gob.NewEncoder(&header).Encode(man); err != nil {
		return Manifest{}, fmt.Errorf("lifecycle: encoding manifest: %w", err)
	}
	if _, err := w.Write(artifactMagic[:]); err != nil {
		return Manifest{}, err
	}
	var hlen [4]byte
	binary.BigEndian.PutUint32(hlen[:], uint32(header.Len()))
	if _, err := w.Write(hlen[:]); err != nil {
		return Manifest{}, err
	}
	if _, err := w.Write(header.Bytes()); err != nil {
		return Manifest{}, err
	}
	if _, err := w.Write(payload.Bytes()); err != nil {
		return Manifest{}, err
	}
	return man, nil
}

// ReadManifest reads and validates only the envelope header: magic, schema,
// and manifest. Cheap enough to scan a registry directory with.
func ReadManifest(r io.Reader) (Manifest, error) {
	var magic [8]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return Manifest{}, fmt.Errorf("lifecycle: reading magic: %w", err)
	}
	if magic != artifactMagic {
		return Manifest{}, fmt.Errorf("lifecycle: bad magic %q (not a model artifact)", magic[:])
	}
	var hlen [4]byte
	if _, err := io.ReadFull(r, hlen[:]); err != nil {
		return Manifest{}, fmt.Errorf("lifecycle: reading header length: %w", err)
	}
	n := binary.BigEndian.Uint32(hlen[:])
	if n == 0 || n > maxHeaderLen {
		return Manifest{}, fmt.Errorf("lifecycle: header length %d out of range", n)
	}
	hdr := make([]byte, n)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return Manifest{}, fmt.Errorf("lifecycle: reading header: %w", err)
	}
	var man Manifest
	if err := gob.NewDecoder(bytes.NewReader(hdr)).Decode(&man); err != nil {
		return Manifest{}, fmt.Errorf("lifecycle: decoding manifest: %w", err)
	}
	if man.Schema != SchemaVersion {
		return Manifest{}, fmt.Errorf("lifecycle: artifact schema %d, this build speaks %d", man.Schema, SchemaVersion)
	}
	if man.PayloadLen <= 0 || man.PayloadLen > maxPayloadLen {
		return Manifest{}, fmt.Errorf("lifecycle: payload length %d out of range", man.PayloadLen)
	}
	return man, nil
}

// Read decodes a checksummed artifact: magic, schema, manifest, payload
// digest, and dims fingerprint are all verified, in that order, before the
// model is returned. Truncated, bit-flipped, or shape-mismatched input
// yields an error — never a panic — and never a partially-valid model.
func Read(r io.Reader) (*core.HybridModel, Manifest, error) {
	man, err := ReadManifest(r)
	if err != nil {
		return nil, Manifest{}, err
	}
	payload := make([]byte, man.PayloadLen)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, Manifest{}, fmt.Errorf("lifecycle: truncated payload (want %d bytes): %w", man.PayloadLen, err)
	}
	sum := sha256.Sum256(payload)
	if got := hex.EncodeToString(sum[:]); got != man.SHA256 {
		return nil, Manifest{}, fmt.Errorf("lifecycle: payload checksum mismatch (corrupt artifact)")
	}
	m, err := core.DecodeHybrid(bytes.NewReader(payload))
	if err != nil {
		return nil, Manifest{}, err
	}
	if m.D != man.D || m.K != man.K || m.QoSMS != man.QoSMS {
		return nil, Manifest{}, fmt.Errorf("lifecycle: payload dims %+v/K=%d/QoS=%.0f disagree with manifest %+v/K=%d/QoS=%.0f",
			m.D, m.K, m.QoSMS, man.D, man.K, man.QoSMS)
	}
	return m, man, nil
}

// Decode reads an artifact from a byte slice (the RPC form).
func Decode(artifact []byte) (*core.HybridModel, Manifest, error) {
	return Read(bytes.NewReader(artifact))
}

// Encode renders m as artifact bytes (the RPC form).
func Encode(m *core.HybridModel, man Manifest) ([]byte, Manifest, error) {
	var buf bytes.Buffer
	man, err := Write(&buf, m, man)
	if err != nil {
		return nil, Manifest{}, err
	}
	return buf.Bytes(), man, nil
}

// WriteFile writes an artifact atomically (see WriteAtomic).
func WriteFile(path string, m *core.HybridModel, man Manifest) (Manifest, error) {
	err := WriteAtomic(path, func(w io.Writer) (err error) {
		man, err = Write(w, m, man)
		return err
	})
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
	f, err := os.Open(path)
	if err != nil {
		return nil, Manifest{}, err
	}
	defer f.Close()
	return Read(f)
}
