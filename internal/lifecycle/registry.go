package lifecycle

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"sinan/internal/core"
)

// Registry is a bounded on-disk store of model versions: artifact files
// named v%06d.model plus a CURRENT marker naming the live version. Put
// assigns monotonically increasing version numbers and prunes the oldest
// files beyond the retention bound — except the current version and its
// rollback target, which are never pruned out from under an operator.
type Registry struct {
	mu   sync.Mutex
	dir  string
	keep int
}

// DefaultKeep is the default number of versions a registry retains.
const DefaultKeep = 5

// OpenRegistry opens (creating if needed) a registry rooted at dir,
// retaining the most recent keep versions (keep <= 0 means DefaultKeep).
func OpenRegistry(dir string, keep int) (*Registry, error) {
	if keep <= 0 {
		keep = DefaultKeep
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &Registry{dir: dir, keep: keep}, nil
}

// Path returns the artifact path for a version.
func (r *Registry) Path(v int) string {
	return filepath.Join(r.dir, fmt.Sprintf("v%06d.model", v))
}

func (r *Registry) currentPath() string { return filepath.Join(r.dir, "CURRENT") }

// versionsLocked scans the directory for artifact files, sorted ascending.
func (r *Registry) versionsLocked() ([]int, error) {
	entries, err := os.ReadDir(r.dir)
	if err != nil {
		return nil, err
	}
	var out []int
	for _, e := range entries {
		name := e.Name()
		var v int
		if n, err := fmt.Sscanf(name, "v%d.model", &v); n == 1 && err == nil && strings.HasSuffix(name, ".model") {
			out = append(out, v)
		}
	}
	sort.Ints(out)
	return out, nil
}

// Put stores m as the next version (atomic write) and prunes old versions
// beyond the retention bound. The completed manifest — version number
// assigned — is returned.
func (r *Registry) Put(m *core.HybridModel, man Manifest) (Manifest, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	vs, err := r.versionsLocked()
	if err != nil {
		return Manifest{}, err
	}
	next := 1
	if len(vs) > 0 {
		next = vs[len(vs)-1] + 1
	}
	man.Version = next
	man, err = WriteFile(r.Path(next), m, man)
	if err != nil {
		return Manifest{}, err
	}
	r.pruneLocked(append(vs, next))
	return man, nil
}

// pruneLocked removes the oldest versions beyond the retention bound,
// never touching the CURRENT version or the one immediately preceding it
// (the standing rollback target).
func (r *Registry) pruneLocked(vs []int) {
	if len(vs) <= r.keep {
		return
	}
	cur, _ := r.currentLocked()
	protected := map[int]bool{cur: true}
	for i, v := range vs {
		if v == cur && i > 0 {
			protected[vs[i-1]] = true
		}
	}
	excess := len(vs) - r.keep
	for _, v := range vs {
		if excess == 0 {
			break
		}
		if protected[v] {
			continue
		}
		if os.Remove(r.Path(v)) == nil {
			excess--
		}
	}
}

// SetCurrent atomically marks v as the live version.
func (r *Registry) SetCurrent(v int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, err := os.Stat(r.Path(v)); err != nil {
		return fmt.Errorf("lifecycle: version %d not in registry: %w", v, err)
	}
	return WriteAtomic(r.currentPath(), func(w io.Writer) error {
		_, err := fmt.Fprintf(w, "%d\n", v)
		return err
	})
}

func (r *Registry) currentLocked() (int, error) {
	data, err := os.ReadFile(r.currentPath())
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, err
	}
	var v int
	if _, err := fmt.Sscanf(string(data), "%d", &v); err != nil {
		return 0, fmt.Errorf("lifecycle: corrupt CURRENT marker: %w", err)
	}
	return v, nil
}

// LoadCurrent loads the live version: the CURRENT marker's, falling back to
// the latest stored version when the marker is unset.
func (r *Registry) LoadCurrent() (*core.HybridModel, Manifest, error) {
	r.mu.Lock()
	v, err := r.currentLocked()
	if err == nil && v == 0 {
		var vs []int
		if vs, err = r.versionsLocked(); err == nil {
			if len(vs) == 0 {
				err = fmt.Errorf("lifecycle: registry %s is empty", r.dir)
			} else {
				v = vs[len(vs)-1]
			}
		}
	}
	path := r.Path(v)
	r.mu.Unlock()
	if err != nil {
		return nil, Manifest{}, err
	}
	return ReadFile(path)
}
